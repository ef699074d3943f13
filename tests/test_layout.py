"""The per-model layout table, wrong model arguments, and named run failures."""

from __future__ import annotations

import json

import pytest

from socsir import (
    INIT_RULE_DFE_PLUS_ONE,
    ModelKind,
    NegativeStateError,
    NonFiniteError,
    RangeError,
    bifurcation_scan,
    classify_feasible_set,
    dfe_of,
    finite_diff_check,
    ngm,
    observables_for,
    ordering_case,
    resolve_init,
    sensitivity_indices,
    simulate,
    stability,
    validate_params,
)
from socsir.cli import main
from socsir.core import _LAYOUT, StateMA
from socsir.integrator import step_rk4

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
