"""Property test: no public callable lets an exception outside socsir.errors escape.

Each public callable of ``socsir.__all__`` has a strategy in STRATEGIES
that draws its arguments: valid values mixed with wrong types,
non-sequences, strings, None, bools and non-finite numbers.  A call either
returns or raises one of the three families of socsir.errors
(ValidationError, NumericError, ConfigError); anything else would reach a
user as a raw traceback.  EXEMPT names every public callable without a
strategy, with the reason, and test_every_public_callable_is_covered fails
when a public callable has neither.

Parameters are drawn from validate_params or as values that are not a
Params; configs from loads_config or as values that are not a
ScenarioConfig.  A Params built by hand with fields of the wrong type is
not drawn for the analysis functions, which trust those fields;
run_scenario, run_mixed, dump_config and dumps_config, which check the
config's fields, draw hand-built configs too, and dump_config and
dumps_config also configs whose Params is built by hand, since they read
their document back through the loader.  Every config that dumps_config
writes loads back as the same config.
"""

from __future__ import annotations

import math
import os
import pathlib
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import socsir  # noqa: E402
from socsir import (  # noqa: E402
    INIT_RULE_DFE_PLUS_ONE,
    MixedSpec,
    ModelKind,
    Observable,
    Params,
    StateMA,
    StateMB,
    covid_mitigation_presets,
    load_config,
    observables_for,
    preset_params,
    simulate,
    validate_params,
    with_rho_one,
)
from socsir.errors import ConfigError, NumericError, ValidationError  # noqa: E402

ERRORS = (ValidationError, NumericError, ConfigError)

DATA = pathlib.Path(__file__).parent / "data"
DOC_PATHS = [p for p in sorted(DATA.glob("*.json")) if p.name != "golden.json"]
# Written by the not_utf8_file fixture for the duration of this module.
NOT_UTF8 = pathlib.Path(tempfile.gettempdir()) / f"socsir-not-utf8-{os.getpid()}.json"

# Values of the wrong type or out of any range: what a caller may pass by mistake.
JUNK = st.sampled_from([
    None, True, False, "x", "0.5", "", b"1", [], (), {}, {"a": 1}, [None],
    math.nan, math.inf, -math.inf, 10**400, -(10**400), -1.0, 0, 5, 1e300,
])


def mixed(valid, junk=JUNK):
    """Mostly valid values, sometimes junk."""
    return st.one_of(valid, valid, valid, junk)


MODELS = mixed(st.sampled_from(list(ModelKind)),
               st.sampled_from(["ma", "MB", None, 1, ["mb"], ModelKind]))

RAW_MA = {"beta1": 0.42, "beta2": 0.09, "lambda": 0.65, "gamma": 0.02,
          "kappa": 0.05, "rho": 0.75, "N": 100.0}
RAW_MB = {"beta1": 0.42, "beta2": 0.09, "lambda": 0.65, "gamma": 0.02,
          "kappa": 0.05, "alpha1": 0.3, "alpha2": 0.1, "N": 100.0}
P_MA = validate_params(RAW_MA, ModelKind.MA)
P_MB = validate_params(RAW_MB, ModelKind.MB)
P_VALID = [
    P_MA,
    P_MB,
    with_rho_one(P_MA),
    with_rho_one(P_MB),
    validate_params(dict(RAW_MB, transition_normalization="uniform"), ModelKind.MB),
    preset_params(covid_mitigation_presets()[0]),
]
PARAMS = mixed(st.sampled_from(P_VALID), st.one_of(JUNK, st.just(RAW_MA)))

NUMBERS = mixed(st.floats(-2.0, 2.0) | st.floats(0.0, 1.0) | st.integers(-3, 3))
UNIT = mixed(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))

FIVE = (74.0, 24.0, 2.0, 0.0, 0.0)
SIX = (74.0, 24.0, 0.0, 0.0, 2.0, 0.0)
STATES = mixed(
    st.sampled_from([FIVE, SIX, StateMA(*FIVE), StateMB(*SIX), list(SIX)]),
    st.one_of(
        JUNK,
        st.lists(st.one_of(st.floats(), JUNK), min_size=4, max_size=7).map(tuple),
    ),
)

# A time window of at most a few dozen steps when valid: a valid window
# runs, and a long one would cost the suite its budget.
TIMES = mixed(st.floats(0.0, 4.0))
ENDS = mixed(st.floats(4.0, 30.0))
STEPS = mixed(st.floats(0.5, 4.0))
RECORD_EVERY = mixed(st.integers(1, 4))

GRIDS = mixed(
    st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3, unique=True).map(sorted),
    st.one_of(JUNK, st.lists(st.one_of(st.floats(0.01, 0.99), JUNK), max_size=3)),
)

TRAJ_MA = simulate(ModelKind.MA, P_MA, FIVE, 0.0, 6.0)
TRAJ_MB = simulate(ModelKind.MB, P_MB, SIX, 0.0, 6.0)
TRAJS = mixed(st.sampled_from([TRAJ_MA, TRAJ_MB]), st.one_of(JUNK, st.just(FIVE)))

# Standard observables of the trajectories' own model, and misfits.
OBSERVABLES = mixed(
    st.sampled_from(list(observables_for(ModelKind.MA).values())[:5]),
    st.sampled_from([None, "I", Observable("I", "x"), Observable("I", None), 5]),
)
NAMES = mixed(
    st.lists(st.sampled_from(["I", "S1", "S2", "R", "Is"]), min_size=1, max_size=3),
    st.one_of(JUNK, st.lists(st.one_of(st.sampled_from(["I", "A1", "x"]), JUNK),
                             max_size=3)),
)


def _short(cfg):
    """cfg cut to a few steps; a mixed config switches in the middle."""
    t1 = cfg.t0 + 8 * cfg.dt
    if cfg.mixed is not None:
        cfg = cfg._replace(mixed=cfg.mixed._replace(t_switch=cfg.t0 + 4 * cfg.dt))
    return cfg._replace(t1=t1)


CONFIGS_VALID = [_short(load_config(str(path))) for path in DOC_PATHS]
CONFIGS = mixed(st.sampled_from(CONFIGS_VALID))


@st.composite
def hand_built_configs(draw):
    """A short valid config with one field replaced by a drawn value."""
    cfg = draw(st.sampled_from(CONFIGS_VALID))
    field = draw(st.sampled_from(
        ["model", "params", "init_state", "t0", "t1", "dt", "record_every", "mixed"]
    ))
    value = {
        "model": MODELS, "params": PARAMS, "init_state": STATES, "t0": TIMES,
        "t1": ENDS, "dt": STEPS, "record_every": RECORD_EVERY,
        "mixed": st.one_of(JUNK, st.builds(MixedSpec, TIMES | ENDS, UNIT)),
    }[field]
    return cfg._replace(**{field: draw(value)})


RUN_CONFIGS = st.one_of(CONFIGS, hand_built_configs())


@st.composite
def hand_built_params(draw):
    """A short valid config whose Params has one field replaced by a drawn
    value: junk, a number, or the value of one of its fields (beta1 equal
    to beta2, say).  A number in place of an MB rho is stale: it is not
    alpha2/(alpha1+alpha2)."""
    cfg = draw(st.sampled_from(CONFIGS_VALID))
    field = draw(st.sampled_from(Params._fields))
    value = draw(st.one_of(JUNK, NUMBERS, st.sampled_from(cfg.params)))
    return cfg._replace(params=cfg.params._replace(**{field: value}))


DUMP_CONFIGS = st.one_of(RUN_CONFIGS, hand_built_params())

DOC_TEXTS = [path.read_text() for path in DOC_PATHS]
TEXTS = mixed(st.sampled_from(DOC_TEXTS + [t.encode() for t in DOC_TEXTS]),
              st.one_of(JUNK, st.text(max_size=8), st.binary(max_size=8)))


# step_rk4's fields: a decay, a still field, one whose stage has one
# component whatever the state's size, and values that are not callable.
FIELDS = st.sampled_from([
    lambda t, s: tuple(-x for x in s),
    lambda t, s: (0.0,) * len(s),
    lambda t, s: (1.0,),
    5, None, "f",
])


def args(*strategies, **keywords):
    """The positional and keyword arguments of one call."""
    return st.tuples(st.tuples(*strategies), st.fixed_dictionaries(keywords))


PRESETS = mixed(st.sampled_from(covid_mitigation_presets()),
                st.one_of(JUNK, st.just("masks")))
RULES = mixed(st.just(INIT_RULE_DFE_PLUS_ONE))
FLAGS = st.booleans()
NORMALIZATIONS = mixed(st.sampled_from(["asymmetric", "uniform"]))

STRATEGIES = {
    # core
    "validate_params": args(
        mixed(st.fixed_dictionaries({}, optional={
            **{k: NUMBERS for k in (*RAW_MA, "alpha1", "alpha2")},
            "transition_normalization": NORMALIZATIONS,
        }) | st.sampled_from([RAW_MA, RAW_MB, dict(RAW_MA, rho=1.0),
                              dict(RAW_MA, transition_normalization="uniform")])
          | st.sampled_from(P_VALID)),
        MODELS, allow_beta_gt_one=FLAGS, allow_zero_alpha2=FLAGS,
    ),
    "total_population": args(STATES),
    "exact_complement": args(NUMBERS, NUMBERS),
    "with_rho_one": args(PARAMS),
    # dynamics
    "rhs_ma": args(PARAMS, STATES),
    "rhs_mb": args(PARAMS, STATES),
    # integrator
    "simulate": args(MODELS, PARAMS, STATES, TIMES, ENDS, STEPS, RECORD_EVERY),
    "step_rk4": args(FIELDS, STATES, NUMBERS, STEPS),
    "Trajectory": args(
        MODELS,
        mixed(st.just((0.0, 1.0))),
        mixed(st.sampled_from([(FIVE, FIVE), (SIX, SIX), (FIVE,)]),
              st.one_of(JUNK, st.just((5, 5)))),
        PARAMS, STEPS,
    ),
    "observables_for": args(MODELS),
    "peak_of": args(st.sampled_from([TRAJ_MA]) | JUNK, OBSERVABLES),
    # ngm
    "rho_from_alphas": args(NUMBERS, NUMBERS),
    "dfe_of": args(MODELS, PARAMS),
    "ngm": args(MODELS, PARAMS),
    "stability": args(MODELS, PARAMS),
    # feasibility
    "classify_feasible_set": args(UNIT, NUMBERS, MODELS),
    "bifurcation_scan": args(MODELS, NUMBERS, GRIDS),
    "threshold_P": args(NUMBERS, NUMBERS, NUMBERS),
    "threshold_B1": args(NUMBERS, UNIT, NUMBERS),
    "threshold_B2": args(NUMBERS, UNIT, NUMBERS),
    # sensitivity
    "sensitivity_indices": args(MODELS, PARAMS),
    "ordering_case": args(MODELS, PARAMS),
    "finite_diff_check": args(MODELS, PARAMS, mixed(st.floats(1e-9, 1e-3))),
    # scenarios
    "resolve_init": args(MODELS, PARAMS, RULES),
    "run_scenario": args(RUN_CONFIGS),
    "run_mixed": args(RUN_CONFIGS),
    "covid_mitigation_presets": args(),
    "preset_params": args(PRESETS),
    # a grid of at most 3 points forks at most 2 workers
    "participation_scan": args(PRESETS, mixed(st.floats(1.0, 100.0)), GRIDS),
    # config
    "load_config": args(
        # no int or bool: the parent's open() took them for file descriptors
        mixed(st.sampled_from([str(p) for p in DOC_PATHS] + DOC_PATHS),
              st.sampled_from([None, 5.0, [], str(DATA), str(DATA / "missing.json"),
                               b"", "", str(NOT_UTF8)])),
        allow_beta_gt_one=FLAGS,
    ),
    "loads_config": args(TEXTS, allow_beta_gt_one=FLAGS),
    "dump_config": args(DUMP_CONFIGS),
    "dumps_config": args(DUMP_CONFIGS),
    # output
    "write_csv": args(TRAJS),
    "render_svg": args(TRAJS, NAMES),
}

VALUE_TYPE = "value type: a constructor that stores its fields, checked by its users"
EXEMPT = {
    # plain float formulas, documented to leave validation to the caller
    "r0": "plain float formula b_rho / kappa; the caller validates",
    "b_rho": "plain float formula rho*beta1 + (1-rho)*beta2; the caller validates",
    "rho_feasible": "plain float formula b_rho < kappa; the caller validates",
    **dict.fromkeys(
        ["ModelKind", "Params", "StateMA", "StateMB", "SwitchRecord", "Observable",
         "NgmResult", "StabilityReport", "StabilityVerdict", "SetType",
         "FeasibleSetReport", "BifurcationScan", "SensitivityIndices",
         "OrderingCase", "ScenarioConfig", "MixedSpec", "RunResult", "RunSummary",
         "MitigationPreset", "ParticipationScanResult"],
        VALUE_TYPE,
    ),
    **dict.fromkeys(
        ["ValidationError", "OrderError", "RangeError", "MissingFieldError",
         "EmptyTrajectoryError", "NumericError", "NonFiniteError",
         "NegativeStateError", "SingularMatrixError", "ConfigError"],
        "exception class",
    ),
}

# Examples per callable; the forking scan and the runs take fewer.
EXAMPLES = {"participation_scan": 15, "simulate": 40, "run_scenario": 40,
            "run_mixed": 40}


def test_every_public_callable_is_covered():
    public = {name for name in socsir.__all__ if callable(getattr(socsir, name))}
    assert not set(STRATEGIES) & set(EXEMPT)
    assert public - set(STRATEGIES) - set(EXEMPT) == set(), "no strategy or exemption"
    assert set(STRATEGIES) | set(EXEMPT) <= public, "not a public callable"


@pytest.fixture(scope="module", autouse=True)
def not_utf8_file():
    NOT_UTF8.write_bytes(b'{"model": "ma\xe9"}')
    yield
    NOT_UTF8.unlink()


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_only_socsir_errors_escape(name):
    call = getattr(socsir, name)

    @settings(max_examples=EXAMPLES.get(name, 60), deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(STRATEGIES[name])
    def check(arguments):
        positional, keywords = arguments
        try:
            call(*positional, **keywords)
        except ERRORS:
            pass

    check()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(DUMP_CONFIGS)
def test_what_dumps_config_writes_loads_back_as_the_config(cfg):
    # a hand-built Params was written as it was: a string, beta1 <= beta2
    # or kappa 0 as a document that the loader refuses, a stale MB rho as
    # one that it reads back as another config
    try:
        text = socsir.dumps_config(cfg)
    except ERRORS:
        return
    # dumps_config writes a beta1 above 1, which loads under the flag
    assert socsir.loads_config(text, allow_beta_gt_one=True) == cfg
