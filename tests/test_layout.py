"""The per-model layout table, wrong model arguments, and named run failures."""

from __future__ import annotations

import json
import pathlib

import pytest

from socsir import (
    INIT_RULE_DFE_PLUS_ONE,
    MixedSpec,
    ModelKind,
    NegativeStateError,
    NonFiniteError,
    RangeError,
    bifurcation_scan,
    classify_feasible_set,
    covid_mitigation_presets,
    dfe_of,
    finite_diff_check,
    ngm,
    observables_for,
    ordering_case,
    participation_scan,
    preset_params,
    render_svg,
    resolve_init,
    rho_from_alphas,
    run_mixed,
    run_scenario,
    sensitivity_indices,
    simulate,
    stability,
    threshold_B1,
    threshold_B2,
    threshold_P,
    validate_params,
    with_rho_one,
    write_csv,
)
from socsir.cli import main
from socsir.config import dump_config, load_config
from socsir.core import _LAYOUT, StateMA, StateMB
from socsir.dynamics import rhs_ma, rhs_mb, vector_field
from socsir.integrator import Observable, Trajectory, integrate, peak_of, step_rk4

RAW_MA = {"beta1": 0.42, "beta2": 0.09, "lambda": 0.65, "gamma": 0.02,
          "kappa": 0.05, "rho": 0.75, "N": 100.0}
# beta1 so large that the first step overflows
RAW_HUGE = dict(RAW_MA, beta1=1e300, beta2=1e299)
RAW_MB = {"beta1": 0.42, "beta2": 0.09, "lambda": 0.65, "gamma": 0.02,
          "kappa": 0.05, "alpha1": 0.3, "alpha2": 0.1, "N": 100.0}
P_MA = validate_params(RAW_MA, ModelKind.MA)
P_MB = validate_params(RAW_MB, ModelKind.MB)
SIX = (74.0, 24.0, 0.0, 0.0, 2.0, 0.0)


@pytest.mark.parametrize("model, hi", [(ModelKind.MA, 1.0), (ModelKind.MB, 0.5)])
def test_rho_range_comes_from_the_layout(model, hi, capsys):
    assert _LAYOUT[model].rho_max == hi
    classify_feasible_set(hi * 0.999, 0.3, model)
    with pytest.raises(RangeError, match=rf"\(0, {hi:g}\)"):
        classify_feasible_set(hi, 0.3, model)
    argv = ["bifurcation", "--model", model.value, "--kappa", "0.3", "--steps", "3"]
    assert main(argv) == 0
    assert f"grid = 3 points in (0, {hi:g})" in capsys.readouterr().out


# Each public callable that takes a model, with valid other arguments.
CALLS = {
    "validate_params": lambda m: validate_params(RAW_MB, m),
    "observables_for": lambda m: observables_for(m),
    "simulate": lambda m: simulate(m, P_MB, SIX, 0.0, 5.0),
    "dfe_of": lambda m: dfe_of(m, P_MB),
    "ngm": lambda m: ngm(m, P_MB),
    "stability": lambda m: stability(m, P_MB),
    "sensitivity_indices": lambda m: sensitivity_indices(m, P_MB),
    "ordering_case": lambda m: ordering_case(m, P_MB),
    "finite_diff_check": lambda m: finite_diff_check(m, P_MB),
    "classify_feasible_set": lambda m: classify_feasible_set(0.25, 0.3, m),
    "bifurcation_scan": lambda m: bifurcation_scan(m, 0.3, [0.1, 0.2]),
    "resolve_init": lambda m: resolve_init(m, P_MB, INIT_RULE_DFE_PLUS_ONE),
}


@pytest.mark.parametrize("name", sorted(CALLS))
@pytest.mark.parametrize("model", ["mb", "MB", None, 1, ["mb"]])
def test_a_model_that_is_not_a_model_kind_raises_range_error(name, model):
    # a string used to take the MA branch: ngm("mb", p) had dimension 2,
    # and simulate("mb", ...) raised a raw AttributeError
    with pytest.raises(RangeError, match="must be a ModelKind") as exc:
        CALLS[name](model)
    assert repr(model) in str(exc.value)


RAW_SINGLE = dict(RAW_MA, rho=1.0)
P_SINGLE = validate_params(RAW_SINGLE, ModelKind.SINGLE)
FIVE = (74.0, 24.0, 2.0, 0.0, 0.0)


def _state(model):
    return StateMB(*SIX) if model is ModelKind.MB else StateMA(*FIVE)


# Each public callable that takes a model and its parameters, with valid
# other arguments.
WITH_PARAMS = {
    "vector_field": vector_field,
    "rhs": lambda m, p: (rhs_mb if m is ModelKind.MB else rhs_ma)(p, _state(m)),
    "integrate": lambda m, p: integrate(m, p, _state(m), 0.0, 5.0),
    "simulate": lambda m, p: simulate(m, p, _state(m), 0.0, 5.0),
    "resolve_init": lambda m, p: resolve_init(m, p, INIT_RULE_DFE_PLUS_ONE),
    "dfe_of": dfe_of,
    "ngm": ngm,
    "stability": stability,
    "sensitivity_indices": sensitivity_indices,
    "ordering_case": ordering_case,
    "finite_diff_check": finite_diff_check,
}
# Parameters that do not fit the model: raw mappings, and MB with
# parameters validated without switch rates.
MISFITS = {
    "MA-mapping": (ModelKind.MA, RAW_MA),
    "SINGLE-mapping": (ModelKind.SINGLE, RAW_SINGLE),
    "MB-mapping": (ModelKind.MB, RAW_MB),
    "MB-with-MA-params": (ModelKind.MB, P_MA),
    "MB-with-SINGLE-params": (ModelKind.MB, P_SINGLE),
}
_TRAJ_MA = simulate(ModelKind.MA, P_MA, FIVE, 0.0, 3.0)


def _misfit_calls():
    for name, call in WITH_PARAMS.items():
        for case, (model, p) in MISFITS.items():
            yield pytest.param(
                lambda c=call, m=model, p=p: c(m, p), id=f"{name}-{case}"
            )
    reader = observables_for(ModelKind.MA)["I"].extract
    cases = {"name": "I", "reader": reader, "none": None,
             "extract-not-callable": Observable("I", "x")}
    for case, obs in cases.items():
        yield pytest.param(lambda obs=obs: peak_of(_TRAJ_MA, obs), id=f"peak_of-{case}")
    masks = covid_mitigation_presets()[0]
    not_numbers = {
        "classify-rho": lambda: classify_feasible_set("x", 0.5),
        "classify-kappa": lambda: classify_feasible_set(0.25, None),
        "bifurcation-kappa": lambda: bifurcation_scan(ModelKind.MA, "x", [0.1, 0.2]),
        "bifurcation-grid": lambda: bifurcation_scan(ModelKind.MA, 0.5, [0.1, "x"]),
        "scan-capacity": lambda: participation_scan(masks, "x", [0.5]),
        "scan-grid": lambda: participation_scan(masks, 80.0, ["x"]),
        "scan-preset": lambda: participation_scan("masks", 80.0, [0.5]),
        "preset_params": lambda: preset_params("masks"),
        "finite_diff_check-h": lambda: finite_diff_check(ModelKind.MA, P_MA, "x"),
    }
    for case, call in not_numbers.items():
        yield pytest.param(call, id=case)
    not_sequences = {
        "scan-grid-int": lambda: participation_scan(masks, 80.0, 5),
        "bifurcation-grid-int": lambda: bifurcation_scan(ModelKind.MA, 0.5, 5),
        "trajectory-states-int": lambda: Trajectory(ModelKind.MA, (0.0,), 5, P_MA, 1.0),
        "trajectory-times-int": lambda: Trajectory(ModelKind.MA, 5, (FIVE,), P_MA, 1.0),
    }
    for case, call in not_sequences.items():
        yield pytest.param(call, id=case)


@pytest.mark.parametrize("call", _misfit_calls())
def test_inputs_that_do_not_fit_raise_range_error(call):
    # a mapping raised a raw AttributeError; MB with MA's parameters raised
    # a raw TypeError (ngm, finite_diff_check, simulate) or gave MB answers
    # (stability, sensitivity_indices, ordering_case, dfe_of); peak_of with
    # a name raised AttributeError, and with an extract that is not
    # callable a raw TypeError; a number argument that is not a number
    # raised a raw TypeError, and a preset name a raw AttributeError; a grid
    # or trajectory times and records that are not sequences raised a raw
    # TypeError
    with pytest.raises(RangeError, match="must be a Params|with switch rates|"
                                         "must be an Observable|must be a number|"
                                         "must be a MitigationPreset|"
                                         "must be a sequence|"
                                         "trajectories take one record"):
        call()


DATA = pathlib.Path(__file__).parent / "data"
_CFG_MIXED = load_config(str(DATA / "mixed_switch.json"))
_OBS_I = observables_for(ModelKind.MA)["I"]
# Each call passes one argument of the wrong kind, or a number argument
# that is not a number where it was compared before any number check,
# with the start of its RangeError.
WRONG_KINDS = {
    "peak_of-int": ("traj must be a Trajectory", lambda: peak_of(5, _OBS_I)),
    "peak_of-str": ("traj must be a Trajectory", lambda: peak_of("ab", _OBS_I)),
    "write_csv": ("traj must be a Trajectory", lambda: write_csv(5)),
    "render_svg": ("traj must be a Trajectory", lambda: render_svg(5, ["I"])),
    "render_svg-observables-int": ("observables must be a sequence",
                                   lambda: render_svg(_TRAJ_MA, 5)),
    "render_svg-observable-list": ("unknown observable",
                                   lambda: render_svg(_TRAJ_MA, [["I"]])),
    "run_scenario": ("cfg must be a ScenarioConfig", lambda: run_scenario(5)),
    "run_mixed": ("cfg must be a ScenarioConfig", lambda: run_mixed(5)),
    "run_mixed-mixed-block": ("mixed must be a MixedSpec", lambda: run_mixed(
        _CFG_MIXED._replace(mixed=(20.0, 0.5)))),
    "run_mixed-t_switch": ("t_switch must be a number", lambda: run_mixed(
        _CFG_MIXED._replace(mixed=MixedSpec("x", 0.25)))),
    "run_mixed-rho_split": ("rho_split must be a number", lambda: run_mixed(
        _CFG_MIXED._replace(mixed=MixedSpec(1000.0, "x")))),
    "dump_config": ("cfg must be a ScenarioConfig", lambda: dump_config(5)),
    "threshold_P": ("beta1 must be a number", lambda: threshold_P("x", 0.1, 0.5)),
    "threshold_B1": ("beta2 must be a number", lambda: threshold_B1("x", 0.5, 0.2)),
    "threshold_B2": ("beta1 must be a number", lambda: threshold_B2("x", 0.25, 0.5)),
    "threshold_B2-rho": ("rho must be a number", lambda: threshold_B2(0.8, "x", 0.5)),
    "rho_from_alphas": ("alpha1 must be a number", lambda: rho_from_alphas("x", 0.1)),
    "step_rk4-field": ("f must be callable", lambda: step_rk4(5, (1.0,), 0.0, 1.0)),
    "step_rk4-state": ("s must be a nonempty tuple",
                       lambda: step_rk4(lambda t, s: s, 5, 0.0, 1.0)),
    "step_rk4-component": ("state component must be a number",
                           lambda: step_rk4(lambda t, s: s, ("x",), 0.0, 1.0)),
    "step_rk4-t": ("t must be a number",
                   lambda: step_rk4(lambda t, s: s, (1.0,), "x", 1.0)),
}


@pytest.mark.parametrize("name", sorted(WRONG_KINDS))
def test_arguments_of_the_wrong_kind_raise_range_error(name):
    # each escaped as a raw TypeError or AttributeError
    message, call = WRONG_KINDS[name]
    with pytest.raises(RangeError, match=f"^{message}"):
        call()


@pytest.mark.parametrize("name", sorted(WITH_PARAMS))
def test_single_takes_parameters_validated_for_mb(name):
    # only with rho pinned to 1, as run_mixed opens its single-class phase:
    # SINGLE used to take MB's rho, so stability(SINGLE, P_MB).r0 read 3.45
    # instead of 8.4 and dfe_of put 75 susceptibles in class 2.  rhs_ma
    # evaluates MA's field, which takes any rho.
    WITH_PARAMS[name](ModelKind.SINGLE, with_rho_one(P_MB))
    if name != "rhs":
        with pytest.raises(RangeError, match=r"rho = 1, .*with_rho_one"):
            WITH_PARAMS[name](ModelKind.SINGLE, P_MB)


def test_negative_state_names_compartment_and_step():
    # the MA reference set at dt 20: the second step drives Is to -180
    init = resolve_init(ModelKind.MA, P_MA, INIT_RULE_DFE_PLUS_ONE)
    with pytest.raises(NegativeStateError) as exc:
        simulate(ModelKind.MA, P_MA, init, 0.0, 400.0, 20.0)
    err = exc.value
    assert (err.compartment, err.step, err.time) == ("Is", 2, 20.0)
    assert str(err).startswith("Is, step 2: component 2 fell to -180.")
    assert "reduce dt" in str(err)


def test_cli_error_line_names_compartment_and_step(tmp_path, capsys):
    doc = {"model": "ma", "params": RAW_MA, "init": INIT_RULE_DFE_PLUS_ONE,
           "time": {"t1": 400.0, "dt": 20.0}}
    cfg = tmp_path / "dt20.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error at t = 20: Is, step 2: component 2 fell to")


def test_non_finite_state_names_compartment_and_step():
    # the error used to carry only its time
    p = validate_params(RAW_HUGE, ModelKind.MA, allow_beta_gt_one=True)
    init = resolve_init(ModelKind.MA, p, INIT_RULE_DFE_PLUS_ONE)
    with pytest.raises(NonFiniteError) as exc:
        simulate(ModelKind.MA, p, init, 0.0, 10.0, 1.0)
    err = exc.value
    assert (err.compartment, err.step, err.time) == ("S1", 1, 0.0)
    assert str(err) == "S1, step 1: component 0 became nan in step from t=0.0"


def test_cli_error_line_names_a_non_finite_compartment(tmp_path, capsys):
    doc = {"model": "ma", "params": RAW_HUGE, "init": INIT_RULE_DFE_PLUS_ONE,
           "time": {"t1": 10.0}}
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg), "--allow-beta-gt-one"]) == 3
    assert capsys.readouterr().err == (
        "error at t = 0: S1, step 1: component 0 became nan in step from t=0.0\n"
    )


@pytest.mark.parametrize(
    "state, compartment",
    [(StateMA(50.0, 49.0, 1.0, 0.0, 0.0), "Is"), ((50.0, 49.0, 1.0, 0.0, 0.0), 2)],
    ids=["named", "plain"],
)
def test_step_rk4_names_the_compartment_by_the_state_fields(state, compartment):
    # a named state's compartment used to be reported by position, and
    # the step not at all
    with pytest.raises(NegativeStateError) as exc:
        step_rk4(lambda t, s: (0.0, 0.0, -500.0, 0.0, 500.0), state, 0.0, 1.0)
    err = exc.value
    assert (err.compartment, err.step, err.time) == (compartment, 1, 0.0)
    where = "Is, step 1" if compartment == "Is" else "step 1"
    assert str(err).startswith(f"{where}: component 2 fell to -499.0, below ")
