"""Fixed-step RK4: accuracy on a known flow, grid discipline, guard rails."""

from __future__ import annotations

import math
import os
import pathlib
import pickle
import random
import subprocess
import sys
import textwrap

import pytest

from socsir import integrator
from socsir.core import (
    _LAYOUT,
    ModelKind,
    Params,
    StateMA,
    StateMB,
    total5,
    total6,
    total_population,
    validate_params,
    with_rho_one,
)
from socsir.dynamics import _TEXTS, vector_field
from socsir.errors import (
    EmptyTrajectoryError,
    NegativeStateError,
    NonFiniteError,
    NumericError,
    RangeError,
)
from socsir.integrator import (
    MAX_STEPS,
    Observable,
    Trajectory,
    _kernel,
    _step,
    check_times,
    integrate,
    observables_for,
    peak_of,
    simulate,
    step_rk4,
)
from socsir.config import load_config
from socsir.scenarios import INIT_RULE_DFE_PLUS_ONE, resolve_init, run_scenario
from tests._samplers import draw_raw_params

FIG_A = validate_params(
    {
        "beta1": 0.0042,
        "beta2": 0.0009,
        "lambda": 0.65,
        "gamma": 0.005,
        "kappa": 0.00006,
        "rho": 0.75,
        "N": 100.0,
    },
    ModelKind.MA,
)
FIG_A_INIT = StateMA(S1=74.25, S2=24.75, Is=1.0, Ia=0.0, R=0.0)
# FIG_A's rates with the switching of tests/data/mb_switching.json
FIG_A_MB = validate_params(
    dict(FIG_A.as_dict(), alpha1=0.1, alpha2=0.01), ModelKind.MB
)
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
DATA = pathlib.Path(__file__).resolve().parent / "data"


def test_step_rk4_exponential_decay():
    # y' = -y over h=0.1: classical RK4 reproduces the quartic Taylor
    # polynomial of exp(-h) exactly
    (y,) = step_rk4(lambda t, s: (-s[0],), (1.0,), 0.0, 0.1)
    h = 0.1
    poly = 1.0 - h + h * h / 2 - h**3 / 6 + h**4 / 24
    assert y == pytest.approx(poly, rel=1e-15)
    assert y == pytest.approx(math.exp(-h), abs=1e-7)


def test_step_rk4_preserves_state_type():
    out = step_rk4(
        lambda t, s: (0.0,) * 5, FIG_A_INIT, 0.0, 1.0
    )
    assert isinstance(out, StateMA)
    assert out == FIG_A_INIT


def test_step_rk4_rejects_bad_dt():
    with pytest.raises(RangeError):
        step_rk4(lambda t, s: (0.0,), (1.0,), 0.0, 0.0)


@pytest.mark.parametrize("dt", [math.nan, math.inf])
def test_step_rk4_rejects_non_finite_dt(dt):
    # nan passed the dt <= 0 test and both surfaced as a NonFiniteError
    with pytest.raises(RangeError, match="dt must be finite"):
        step_rk4(lambda t, s: (0.0,), (1.0,), 0.0, dt)


@pytest.mark.parametrize(
    "state",
    [(1.0, 2.0, 3.0), FIG_A_INIT, (1.0,)],
    ids=["plain-short", "named-short", "plain-long"],
)
def test_step_rk4_rejects_a_field_of_another_length(state):
    # a short field truncated a plain state silently, and a named state
    # failed in _make with a raw TypeError; a long one lost its extra parts
    k1 = (0.0,) if len(state) > 1 else (0.0, 0.0)
    with pytest.raises(RangeError, match="components for a state of"):
        step_rk4(lambda t, s: k1, state, 0.0, 1.0)


def test_step_rk4_raises_on_nonfinite():
    with pytest.raises(NonFiniteError) as exc:
        step_rk4(lambda t, s: (float("inf"),), (1.0,), 3.0, 1.0)
    assert exc.value.time == 3.0


# integrate's named state type and kernel, built from the field text of
# that state type, for each model
STATE_OF = {ModelKind.MA: StateMA, ModelKind.SINGLE: StateMA, ModelKind.MB: StateMB}
KERNEL_OF = {model: _kernel(_TEXTS[state]) for model, state in STATE_OF.items()}


def _raw_params(**rates) -> Params:
    """Params with every rate 0, alphas 0 and N = 1 unless given.

    Params itself checks nothing, so any float reaches the kernels, which
    are handed validated parameters only through integrate.
    """
    zero = Params(0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 1.0, 0.0, 0.0)
    return zero._replace(**rates)


def _one_step(run, p, s, t, h):
    """One step of a whole-run kernel from s at time t, drift check off."""
    return list(run(p, s, t, t + h, h, 1, 0.0, math.inf))[1][1]


def _step5(p, s, t, h):
    """One step of the MA kernel."""
    return _one_step(KERNEL_OF[ModelKind.MA], p, s, t, h)


def _step6(p, s, t, h):
    """One step of the MB kernel."""
    return _one_step(KERNEL_OF[ModelKind.MB], p, s, t, h)


def _generic_step(p, s, t, h):
    """step_rk4 on the MA field: the generic step behind the kernels."""
    f = vector_field(ModelKind.MA, p)
    return step_rk4(lambda t, c: f(*c), s, t, h)


# (one step, model): the generic step behind step_rk4 and one step of
# each whole-run kernel that integrate runs
KERNELS = {
    "step_rk4": (_generic_step, ModelKind.MA),
    "_step5": (_step5, ModelKind.MA),
    "_step6": (_step6, ModelKind.MB),
}


def _stages(f, s, h):
    """The four RK4 stage derivatives of the positional field f, as _step
    forms them."""
    half = 0.5 * h
    k1 = f(*s)
    k2 = f(*[x + half * k for x, k in zip(s, k1)])
    k3 = f(*[x + half * k for x, k in zip(s, k2)])
    k4 = f(*[x + h * k for x, k in zip(s, k3)])
    return k1, k2, k3, k4


@pytest.mark.parametrize("stage", [2, 3])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_step_rk4_raises_on_nonfinite_inner_stage(kernel, stage):
    # the kernels check only the result, so a run whose first non-finite
    # stage is an inner one must still fail there: find a beta1 that
    # overflows first at that stage, from all ones in a step of 1
    step, model = KERNELS[kernel]
    s = STATE_OF[model]._make([1.0] * len(STATE_OF[model]._fields))
    for e in range(1, 308):
        p = _raw_params(beta1=10.0**e)
        ks = _stages(vector_field(model, p), s, 1.0)
        finite = [all(map(math.isfinite, k)) for k in ks]
        if finite[:stage] == [True] * (stage - 1) + [False]:
            break
    else:
        pytest.fail(f"no beta1 overflows first at stage {stage}")
    with pytest.raises(NonFiniteError) as exc:
        step(p, s, 4.0, 1.0)
    assert (exc.value.time, exc.value.step) == (4.0, 1)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_step_rk4_raises_on_negative_overshoot(kernel):
    # a negative gamma feeds the growing asymptomatics into Is with a
    # minus sign, so Is ends the step far below zero
    step, model = KERNELS[kernel]
    s = STATE_OF[model]._make([1.0] * len(STATE_OF[model]._fields))
    with pytest.raises(NegativeStateError) as exc:
        step(_raw_params(gamma=-3.0), s, 2.0, 1.0)
    assert (exc.value.time, exc.value.compartment, exc.value.step) == (2.0, "Is", 1)


def _outcome(step, *args):
    """A step's result as bits, or its error's description."""
    try:
        return [x.hex() for x in step(*args)]
    except NumericError as exc:
        return type(exc), str(exc), exc.time, exc.compartment, exc.step


def _reference_step(model):
    def step(p, s, t, h):
        f = vector_field(model, p)
        return _step(lambda t, c: f(*c), s, t, h, 1, STATE_OF[model]._fields)

    return step


# Start values around the kernels' fast check, each with the error class
# the step must raise, or None.  The other components start at 1.0 and
# every rate is 0, so the values pass through the step (-0.0 may come out
# as 0.0, and a NaN or an infinity times a zero rate spreads NaN), with
# the negativity floor near -5e-9.
_EDGE_RESULTS = {
    "nan": (math.nan, NonFiniteError),
    "+inf": (math.inf, NonFiniteError),
    "-inf": (-math.inf, NonFiniteError),
    "-0.0": (-0.0, None),
    "negative within the floor": (-1e-12, None),
    "negative below the floor": (-1.0, NegativeStateError),
    "largest finite": (sys.float_info.max, None),
}


@pytest.mark.parametrize("edge", sorted(_EDGE_RESULTS))
@pytest.mark.parametrize("unrolled, n", [(_step5, 5), (_step6, 6)])
def test_fast_check_matches_generic_step_at_edges(unrolled, n, edge):
    # the kernels' fast check must pass exactly the results that
    # _checked_step passes, and leave the others to raise as _step does
    start, error = _EDGE_RESULTS[edge]
    model = ModelKind.MA if n == 5 else ModelKind.MB
    names = STATE_OF[model]._fields
    p = _raw_params()
    for i in range(n):
        s = tuple(start if j == i else 1.0 for j in range(n))
        got = _outcome(unrolled, p, s, 7.0, 1.0)
        assert got == _outcome(_reference_step(model), p, s, 7.0, 1.0)
        if error is None:
            assert isinstance(got, list)
            continue
        cls, _, time, compartment, step = got
        assert (cls, time, step) == (error, 7.0, 1)
        if error is NegativeStateError:
            assert compartment == names[i]


def _reference_run(model, p, init, t0, t1, dt, every):
    """integrate's records from _step on vector_field, total_population
    and the drift rule, one step at a time."""
    f = vector_field(model, p)
    names = STATE_OF[model]._fields
    n0 = total_population(init)
    tol = 1e-9 * abs(n0)
    t, s, k = float(t0), init, 0
    yield t, s
    while t < t1:
        k += 1
        t_next, h = t0 + k * dt, dt
        if t_next >= t1:
            t_next, h = float(t1), t1 - t
        s = _step(lambda t, c: f(*c), s, t, h, k, names)
        t = t_next
        if k % every == 0 or t >= t1:
            drift = abs(total_population(s) - n0)
            if drift > tol:
                raise integrator._drifted(drift, t, k)
            yield t, s


def _records(run):
    """A run's records as bits, ending with its error's description."""
    out = []
    try:
        for t, s in run:
            out.append((t.hex(), [x.hex() for x in s]))
    except NumericError as exc:
        out.append((type(exc), str(exc), exc.time, exc.compartment, exc.step))
    return out


_RUN_CASES = {
    "MA": (ModelKind.MA, {}),
    "SINGLE": (ModelKind.SINGLE, {"rho": 1.0}),
    "MB-asymmetric": (ModelKind.MB, {}),
    "MB-uniform": (ModelKind.MB, {"transition_normalization": "uniform"}),
}


@pytest.mark.parametrize("case", list(_RUN_CASES))
def test_kernels_match_the_reference_run_bit_for_bit(case):
    # integrate must give exactly the reference run's records, or raise
    # the same error at the same step, over sampler draws at record_every
    # 1 and 3, each ending in a partial step; a fifth of the draws take a
    # dt large enough to fail often
    model, extra = _RUN_CASES[case]
    rng = random.Random(20221018)
    failed = 0
    for _ in range(1000):
        p = validate_params(dict(draw_raw_params(rng, model), **extra), model)
        init = resolve_init(model, p, INIT_RULE_DFE_PLUS_ONE)
        dt = rng.uniform(0.1, 2.0) if rng.random() < 0.8 else rng.uniform(2.0, 40.0)
        t1 = dt * (rng.randint(5, 30) + rng.random())
        for every in (1, 3):
            got = _records(integrate(model, p, init, 0.0, t1, dt, every))
            assert got == _records(_reference_run(model, p, init, 0.0, t1, dt, every))
            failed += isinstance(got[-1][0], type)
    assert failed > 100, failed


@pytest.mark.parametrize(
    "total, state_type, named, named_i",
    [
        (total5, StateMA, lambda s: ((s.S1 + s.S2) + s.Ia) + s.Is + s.R,
         lambda s: s.Ia + s.Is),
        (total6, StateMB, lambda s: ((s.S1 + s.S2) + (s.A1 + s.A2)) + s.Is + s.R,
         lambda s: s.A1 + s.A2 + s.Is),
    ],
    ids=["total5-StateMA", "total6-StateMB"],
)
def test_raw_totals_match_total_population_bit_for_bit(
    total, state_type, named, named_i
):
    # the positional groupings, and total_population on raw and named
    # states, against the grouping written with field names
    rng = random.Random(14)
    n = len(state_type._fields)
    for _ in range(2000):
        s = tuple(rng.uniform(0.0, 10.0 ** rng.randint(-3, 6)) for _ in range(n))
        state = state_type._make(s)
        want = named(state).hex()
        assert total(s).hex() == want
        assert total_population(s).hex() == want
        assert total_population(state).hex() == want
    # every reader of the layout table of each model with this state type,
    # on the records of runs from sampler draws: a plain tuple reads as the
    # named state's attribute, I as it is grouped with field names, and N
    # as the total
    for model in [m for m in ModelKind if _LAYOUT[m].state is state_type]:
        readers = _LAYOUT[model].observables
        assert list(readers) == list(observables_for(model))
        extra = {"rho": 1.0} if model is ModelKind.SINGLE else {}
        for _ in range(40):
            p = validate_params(dict(draw_raw_params(rng, model), **extra), model)
            init = resolve_init(model, p, INIT_RULE_DFE_PLUS_ONE)
            for _, s in integrate(model, p, init, 0.0, 30.0, 0.5, 3):
                s, state = tuple(s), state_type._make(s)
                for name, read in readers.items():
                    want = named(state) if name == "N" else getattr(state, name)
                    assert read(s).hex() == want.hex(), (model, name)
                assert readers["I"](s).hex() == named_i(state).hex()


@pytest.mark.parametrize("record_every", [1, 5])
@pytest.mark.parametrize(
    "model, init",
    [
        (ModelKind.MA, FIG_A_INIT),
        (ModelKind.MB, StateMB(70.0, 29.0, 0.0, 0.0, 1.0, 0.0)),
    ],
)
def test_drift_check_stops_at_first_drifting_record(model, init, record_every):
    # rounding moves the total by about 1.4e-14 at a time; against a
    # tolerance of 2e-14 in place of integrate's 1e-9 * N it drifts out
    # part way through the run
    p = FIG_A if model is ModelKind.MA else FIG_A_MB
    f = vector_field(model, p)
    tol = 2e-14

    # reference: the generic step, named states and total_population
    n0 = total_population(init)
    s, k, first_bad = init, 0, None
    while first_bad is None:
        s = type(init)._make(_step(lambda t, c: f(*c), s, float(k), 1.0, k + 1, None))
        k += 1
        if k % record_every == 0 and abs(total_population(s) - n0) > tol:
            first_bad = float(k)
    assert 2 * record_every < first_bad < 40.0

    times = []
    with pytest.raises(NumericError, match="population drifted") as exc:
        for t, _ in KERNEL_OF[model](p, init, 0.0, 40.0, 1.0, record_every, n0, tol):
            times.append(t)
    assert (exc.value.time, exc.value.step) == (first_bad, int(first_bad))
    assert times == [float(k) for k in range(0, int(first_bad), record_every)]


@pytest.mark.parametrize("model", list(KERNEL_OF))
def test_integrate_checks_drift_against_the_initial_total(monkeypatch, model):
    # integrate hands its kernel the initial total and 1e-9 of it; SINGLE
    # takes MB's parameters with rho pinned to 1
    p = with_rho_one(FIG_A_MB) if model is ModelKind.SINGLE else FIG_A_MB
    init = resolve_init(model, p, INIT_RULE_DFE_PLUS_ONE)
    seen = []
    monkeypatch.setattr(
        integrator, "_kernel", lambda text: lambda *args: seen.append(args[-2:])
    )
    integrate(model, p, init, 0.0, 5.0, 1.0)
    n0 = total_population(init)
    assert seen == [(n0, 1e-9 * n0)]


@pytest.mark.parametrize(
    "model, init",
    [
        (ModelKind.MA, StateMB(70.0, 29.0, 0.0, 0.0, 1.0, 0.0)),
        (ModelKind.SINGLE, StateMB(70.0, 29.0, 0.0, 0.0, 1.0, 0.0)),
        (ModelKind.MB, FIG_A_INIT),
        (ModelKind.MA, 5),
        (ModelKind.MA, None),
        (ModelKind.MB, 5.0),
    ],
)
def test_integrate_rejects_a_state_of_the_wrong_length(model, init):
    # MA with an MB state used to escape as a raw TypeError from the field,
    # and a state with no len() as a raw TypeError from len()
    with pytest.raises(RangeError, match="state components, got"):
        simulate(model, FIG_A, init, 0.0, 5.0, 1.0)


def test_simulate_grid_times_are_exact():
    traj = simulate(ModelKind.MA, FIG_A, FIG_A_INIT, 0.0, 5.0, 0.5)
    assert traj.times == tuple(0.0 + k * 0.5 for k in range(11))


def test_int_times_give_float_times():
    # t0 + k*dt in ints would give int grid times between float ends
    traj = simulate(ModelKind.MA, FIG_A, StateMA(74, 25, 1, 0, 0), 0, 3, 1)
    assert traj.times == (0.0, 1.0, 2.0, 3.0)
    assert all(type(t) is float for t in traj.times)
    assert type(traj.dt) is float


def test_simulate_partial_final_step():
    traj = simulate(ModelKind.MA, FIG_A, FIG_A_INIT, 0.0, 3.7, 1.0)
    assert traj.times == (0.0, 1.0, 2.0, 3.0, 3.7)


def test_simulate_record_every():
    traj = simulate(ModelKind.MA, FIG_A, FIG_A_INIT, 0.0, 10.0, 1.0, record_every=4)
    assert traj.times == (0.0, 4.0, 8.0, 10.0)


def test_simulate_validations():
    with pytest.raises(RangeError):
        simulate(ModelKind.MA, FIG_A, FIG_A_INIT, 5.0, 5.0, 1.0)
    with pytest.raises(RangeError):
        simulate(ModelKind.MA, FIG_A, FIG_A_INIT, 0.0, 5.0, 1.0, record_every=0)
    # 1.5 used to record at t = 0, 3, 6, ... and True was taken as 1
    for every in (1.5, True):
        with pytest.raises(RangeError, match="record_every must be an int"):
            simulate(ModelKind.MA, FIG_A, FIG_A_INIT, 0.0, 5.0, 1.0, record_every=every)


@pytest.mark.parametrize(
    "t0, t1, dt",
    [
        (math.nan, 5.0, 1.0),
        (0.0, math.nan, 1.0),
        (0.0, 5.0, math.nan),
        (0.0, 5.0, math.inf),
    ],
)
def test_simulate_rejects_non_finite_times(t0, t1, dt):
    # t0 = -inf and t1 = inf are covered through the CLI in a subprocess,
    # since a build without this check loops forever on them
    with pytest.raises(RangeError, match="finite"):
        simulate(ModelKind.MA, FIG_A, FIG_A_INIT, t0, t1, dt)


def test_check_times_caps_the_step_count():
    check_times(0.0, float(MAX_STEPS), 1.0)
    check_times(1.0, 1.0 + 2.0 * MAX_STEPS, 2.0)
    with pytest.raises(RangeError, match=f"more than {MAX_STEPS} steps"):
        check_times(0.0, MAX_STEPS + 0.5, 1.0)
    with pytest.raises(RangeError, match="steps"):
        check_times(-1e308, 1e308, 1.0)  # t1 - t0 overflows to inf


@pytest.mark.parametrize("every", [0, -3, 1.5, True, None, math.nan])
def test_check_times_holds_the_record_every_rule(every):
    # integrate, run_mixed and the config loader read it here
    with pytest.raises(RangeError, match="^record_every must be an int >= 1"):
        check_times(0.0, 5.0, 1.0, every)
    with pytest.raises(RangeError, match="^record_every must be an int >= 1"):
        simulate(ModelKind.MA, FIG_A, FIG_A_INIT, 0.0, 5.0, 1.0, record_every=every)


@pytest.mark.parametrize(
    "t0, t1, dt",
    [(0, 10**400, 1), (-(10**400), 0, 1), (0, 10, 10**400)],
    ids=["t1", "t0", "dt"],
)
def test_times_beyond_the_float_range_raise_range_error(t0, t1, dt):
    # math.isfinite raised OverflowError on an int beyond the float range
    with pytest.raises(RangeError, match="must be finite"):
        check_times(t0, t1, dt)
    with pytest.raises(RangeError, match="must be finite"):
        integrate(ModelKind.MA, FIG_A, FIG_A_INIT, t0, t1, dt)
    with pytest.raises(RangeError, match="must be finite"):
        simulate(ModelKind.MA, FIG_A, FIG_A_INIT, t0, t1, dt)


@pytest.mark.parametrize("which", ["t0", "t1", "dt"])
def test_numeric_strings_as_times_raise_range_error(which):
    # to_float("1") is 1.0, so a string passed the finiteness check and
    # met dt <= 0 as a raw TypeError
    times = {"t0": 0.0, "t1": 10.0, "dt": 1.0}
    times[which] = "1"
    with pytest.raises(RangeError, match=f"^{which} must be a number, got '1'"):
        check_times(*times.values())
    with pytest.raises(RangeError, match=f"^{which} must be a number"):
        simulate(ModelKind.MA, FIG_A, FIG_A_INIT, **times)


@pytest.mark.parametrize(
    "field, value, why",
    [
        ("S1", math.nan, "S1 must be finite"),
        ("Ia", math.inf, "Ia must be finite"),
        ("R", 10**400, "R must be finite"),
        ("Is", -1.0, "Is must be at least"),
        ("S2", "24.75", "S2 must be a number"),
        ("S2", None, "S2 must be a number"),
        ("Is", True, "Is must be a number"),
    ],
    ids=["nan", "inf", "huge-int", "negative", "str", "none", "bool"],
)
def test_integrate_rejects_a_bad_init_component(field, value, why):
    # NaN failed at "step 1", Is = -1 was blamed on dt ("reduce dt"), and a
    # string raised a raw TypeError from the kernel
    init = FIG_A_INIT._replace(**{field: value})
    with pytest.raises(RangeError, match=f"^init {why}"):
        integrate(ModelKind.MA, FIG_A, init, 0.0, 5.0, 1.0)


def test_integrate_takes_an_init_just_below_zero():
    # run_mixed's second phase starts where the first ended, which the
    # step check lets lie down to -1e-9 times the sum of the magnitudes
    floor = -1e-9 * 100.0
    init = StateMB(74.25, 24.75 - floor, floor, 0.0, 1.0, 0.0)
    traj = simulate(ModelKind.MB, FIG_A_MB, init, 0.0, 5.0, 1.0)
    assert traj.states[0] == init
    with pytest.raises(RangeError, match="^init A1 must be at least"):
        integrate(ModelKind.MB, FIG_A_MB, init._replace(A1=2 * floor), 0.0, 5.0)


_BAD_TIME_RUN = textwrap.dedent(
    """
    import math
    from socsir import (ModelKind, RangeError, covid_mitigation_presets,
                        preset_params, resolve_init, simulate)
    masks = covid_mitigation_presets()[0]
    p = preset_params(masks)
    init = resolve_init(ModelKind.MB, p, "dfe_plus_one_symptomatic")
    try:
        {call}
    except RangeError:
        raise SystemExit(0)
    raise SystemExit("no RangeError")
    """
)


@pytest.mark.parametrize(
    "call",
    [
        "simulate(ModelKind.MB, p, init, 0.0, 10.0, 0.0)",
        "simulate(ModelKind.MB, p, init, 0.0, 10.0, -1.0)",
        "simulate(ModelKind.MB, p, init, 0.0, math.inf, 1.0)",
        "simulate(ModelKind.MB, p, init, 0.0, 1e9, 1.0)",
    ],
)
def test_bad_times_raise_before_stepping(call):
    # a kernel without these checks loops forever, so each case runs in a
    # separate process with a timeout: a regression fails instead of hanging
    done = subprocess.run(
        [sys.executable, "-c", _BAD_TIME_RUN.format(call=call)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert done.returncode == 0, done.stderr


def test_simulate_conserves_population():
    traj = simulate(ModelKind.MA, FIG_A, FIG_A_INIT, 0.0, 2000.0, 2.0)
    from socsir.core import total_population

    n0 = total_population(traj.states[0])
    worst = max(abs(total_population(s) - n0) for s in traj.states)
    assert worst <= 1e-9 * n0


def test_simulate_is_deterministic():
    a = simulate(ModelKind.MA, FIG_A, FIG_A_INIT, 0.0, 100.0, 1.0)
    b = simulate(ModelKind.MA, FIG_A, FIG_A_INIT, 0.0, 100.0, 1.0)
    assert a.times == b.times
    assert a.states == b.states  # tuple equality is bitwise on floats


def test_simulate_states_stay_named():
    traj = simulate(ModelKind.MA, FIG_A, FIG_A_INIT, 0.0, 3.0, 1.0)
    assert all(isinstance(s, StateMA) for s in traj.states)


@pytest.mark.parametrize("model", [ModelKind.MA, ModelKind.MB])
def test_simulate_takes_its_record_type_from_the_model(model):
    # a plain tuple as init used to fail with a raw AttributeError, as
    # the record type was read off init
    p = validate_params(draw_raw_params(random.Random(19), model), model)
    named = resolve_init(model, p, INIT_RULE_DFE_PLUS_ONE)
    traj = simulate(model, p, tuple(named), 0.0, 10.0)
    assert traj == simulate(model, p, named, 0.0, 10.0)
    state_type = StateMB if model is ModelKind.MB else StateMA
    assert all(type(s) is state_type for s in traj.states)


def _stored_runs(case):
    """simulate runs on sampler draws of one model, or one mixed run."""
    if case == "mixed":
        cfg = load_config(str(DATA / "mixed_switch.json"))._replace(t1=1500.0)
        return [run_scenario(cfg).trajectory]
    model = ModelKind[case]
    rng = random.Random(f"stored-{case}")
    runs = []
    for _ in range(10):
        raw = draw_raw_params(rng, model)
        if model is ModelKind.SINGLE:
            raw["rho"] = 1.0
        p = validate_params(raw, model)
        init = resolve_init(model, p, INIT_RULE_DFE_PLUS_ONE)
        runs.append(simulate(model, p, init, 0.0, 10.0, rng.choice([0.1, 0.25]),
                             rng.choice([1, 3])))
    return runs


@pytest.mark.parametrize("case", ["MA", "SINGLE", "MB", "mixed"])
def test_stored_records_equal_a_trajectory_of_named_states(case):
    # simulate and run_mixed keep the kernels' plain tuples; the public
    # constructor takes named states, and both must be the same value
    for traj in _stored_runs(case):
        state_type = STATE_OF[traj.model]
        rebuilt = Trajectory(traj.model, traj.times, traj.states, traj.params_used,
                             traj.dt, traj.switch_record)
        assert all(type(s) is state_type for s in traj.states)
        assert all(type(t) is float for t in traj.times)
        assert traj.states is traj.states and rebuilt.states == traj.states
        fresh = pickle.loads(pickle.dumps(traj))
        assert fresh == traj == rebuilt and hash(fresh) == hash(traj) == hash(rebuilt)
        assert repr(fresh) == repr(traj) == repr(rebuilt)
        assert all(type(s) is state_type for s in fresh.states)
        # the named states read the records' bits
        assert _hex_bits(fresh.states) == _hex_bits(traj.states)


@pytest.mark.parametrize(
    "times, states",
    [
        ((0.0,), ((1.0, 2.0),)),
        ((0.0, 1.0), (FIG_A_INIT,)),
        ((0.0,), (FIG_A_INIT, FIG_A_INIT)),
        ((0.0,), (5,)),
        ((0.0,), (None,)),
    ],
    ids=["short-record", "fewer-records", "more-records", "int-record",
         "none-record"],
)
def test_trajectory_rejects_records_that_do_not_fit(times, states):
    # a short record failed late, with a raw TypeError from .states and a
    # raw ValueError from write_csv; a record with no len() raised a raw
    # TypeError
    with pytest.raises(RangeError, match="^MA trajectories take one record of 5"):
        Trajectory(ModelKind.MA, times, states, FIG_A, 1.0)


def _hex_bits(states):
    return [tuple(map(float.hex, s)) for s in states]


def test_runs_build_no_named_state_per_record(monkeypatch):
    # the records stay the kernels' tuples until states is read; run_mixed
    # names only its pre-switch and post-split states
    made = []

    def counted(build):
        def wrapper(cls, *args, **kwargs):
            made.append(cls)
            return build(cls, *args, **kwargs)
        return wrapper

    for state_type in (StateMA, StateMB):
        make = state_type._make.__func__
        monkeypatch.setattr(state_type, "_make", classmethod(counted(make)))
        monkeypatch.setattr(state_type, "__new__", counted(state_type.__new__))
    traj = simulate(ModelKind.MB, FIG_A_MB, tuple(resolve_init(
        ModelKind.MB, FIG_A_MB, INIT_RULE_DFE_PLUS_ONE)), 0.0, 200.0, 2.0)
    assert len(traj) == 101 and made == [StateMB]  # resolve_init's one state
    made.clear()
    cfg = load_config(str(DATA / "mixed_switch.json"))
    made.clear()
    mixed = run_scenario(cfg).trajectory
    assert len(mixed) > 1000 and len(made) == 2
    made.clear()
    assert len(mixed.states) == len(mixed) and made == [StateMB] * len(mixed)


def test_import_and_r0_build_no_kernel():
    # kernels and fields are built on first use, so the CLI's import and
    # the analysis path compile none
    code = (
        "import socsir.cli, socsir\n"
        "p = socsir.validate_params({'beta1': 0.42, 'beta2': 0.09, 'lambda': 0.65,"
        " 'gamma': 0.02, 'kappa': 0.05, 'rho': 0.75, 'N': 100.0},"
        " socsir.ModelKind.MA)\n"
        "socsir.r0(p.beta1, p.beta2, p.rho, p.kappa)\n"
        "socsir.stability(socsir.ModelKind.MA, p)\n"
        "from socsir import dynamics, integrator\n"
        "print(integrator._kernel.cache_info().currsize,"
        " dynamics._binder.cache_info().currsize)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 0\n"


def test_observables_cover_model_fields():
    ma = observables_for(ModelKind.MA)
    assert set(ma) == {"S1", "S2", "Ia", "Is", "R", "I", "N"}
    mb = observables_for(ModelKind.MB)
    assert set(mb) == {"S1", "S2", "A1", "A2", "Is", "R", "I", "N"}
    s = StateMA(S1=1.0, S2=2.0, Is=3.0, Ia=4.0, R=5.0)
    assert ma["Ia"].extract(s) == 4.0
    assert ma["I"].extract(s) == 7.0
    assert ma["N"].extract(s) == 15.0


def test_peak_of_returns_first_maximum():
    obs = observables_for(ModelKind.MA)
    cases = [
        ((0.0, 5.0, 5.0, 3.0), (1.0, 5.0)),
        ((1.0, 5.0, 3.0, 5.0), (1.0, 5.0)),  # a later equal maximum
        ((-1.0, -0.0, 0.0), (1.0, -0.0)),  # -0.0 == 0.0, and comes first
        ((7.0,), (0.0, 7.0)),
    ]
    for values, want in cases:
        # Ia = -0.0 makes I = Ia + Is the same bits as Is, -0.0 included
        states = [StateMA(S1=0.0, S2=0.0, Is=v, Ia=-0.0, R=0.0) for v in values]
        traj = Trajectory(
            model=ModelKind.MA,
            times=tuple(map(float, range(len(values)))),
            states=tuple(states),
            params_used=FIG_A,
            dt=1.0,
        )
        for ob in (Observable("Is", lambda s: s.Is), obs["Is"], obs["I"]):
            t, v = peak_of(traj, ob)
            assert (t, v) == want
            assert math.copysign(1.0, v) == math.copysign(1.0, want[1])
    # a NaN first value compares below nothing, so it stays the pick
    nan_first = Trajectory(
        model=ModelKind.MA,
        times=(0.0, 1.0),
        states=(
            StateMA(S1=0.0, S2=0.0, Is=math.nan, Ia=0.0, R=0.0),
            StateMA(S1=0.0, S2=0.0, Is=1.0, Ia=0.0, R=0.0),
        ),
        params_used=FIG_A,
        dt=1.0,
    )
    for ob in (obs["Is"], obs["I"]):
        t, v = peak_of(nan_first, ob)
        assert t == 0.0 and math.isnan(v)


def test_peak_of_refuses_another_models_observables():
    # MB's readers on an MA run: R read past the record (a raw IndexError),
    # I returned Is + Ia + R and A1 returned Is
    traj = simulate(ModelKind.MA, FIG_A, (74.0, 24.0, 2.0, 0.0, 0.0), 0.0, 3.0)
    for name in ("R", "I", "A1", "S1"):
        with pytest.raises(RangeError, match=f"^obs {name!r} is another model's"):
            peak_of(traj, observables_for(ModelKind.MB)[name])
    mb = simulate(ModelKind.MB, FIG_A_MB, (74.0, 24.0, 1.0, 0.0, 1.0, 0.0), 0.0, 3.0)
    with pytest.raises(RangeError, match="observables_for\\(ModelKind.MB\\)"):
        peak_of(mb, observables_for(ModelKind.MA)["Ia"])
    # SINGLE reads as MA does, and a user-made observable reads what it likes
    assert peak_of(traj, observables_for(ModelKind.SINGLE)["I"]) == peak_of(
        traj, observables_for(ModelKind.MA)["I"]
    )
    assert peak_of(traj, Observable("R", lambda s: s[4])) == (3.0, traj.states[-1].R)


def test_peak_of_empty_trajectory():
    empty = Trajectory(
        model=ModelKind.MA, times=(), states=(), params_used=FIG_A, dt=1.0
    )
    with pytest.raises(EmptyTrajectoryError):
        peak_of(empty, Observable("Is", lambda s: s.Is))
