"""Normalized forward sensitivity indices of R0 and their ordering cases.

Frozen tuples were hand-derived from the closed forms (all rational at the
chosen rates) before the implementation; the finite-difference check then
ties those forms back to the bare definition (p/R0) dR0/dp.
"""

from __future__ import annotations

import math
import random

import pytest

from socsir.core import ModelKind, Params, validate_params
from socsir.errors import NumericError, RangeError
from socsir.reproduction import r0
from socsir.sensitivity import finite_diff_check, ordering_case, sensitivity_indices
from tests._dual import Dual
from tests._samplers import MODEL_CASES, draw_raw_params

BASE = {
    "beta1": 0.0042,
    "beta2": 0.0009,
    "lambda": 0.65,
    "gamma": 0.005,
    "kappa": 0.0006,
    "N": 100.0,
}


def _ma(rho=0.75, **ov):
    raw = dict(BASE, rho=rho)
    raw.update(ov)
    return validate_params(raw, ModelKind.MA)


def _mb(alpha1=0.001, alpha2=0.0001, **ov):
    raw = dict(BASE, alpha1=alpha1, alpha2=alpha2)
    raw.update(ov)
    return validate_params(raw, ModelKind.MB)


def test_ma_indices_frozen():
    # B_rho = 0.003375; all three are exact fifteenths
    si = sensitivity_indices(ModelKind.MA, _ma())
    assert si.upsilon_rho == pytest.approx(11 / 15, rel=1e-13)
    assert si.upsilon_beta1 == pytest.approx(14 / 15, rel=1e-13)
    assert si.upsilon_beta2 == pytest.approx(1 / 15, rel=1e-13)
    assert si.upsilon_alpha1 is None and si.upsilon_alpha2 is None


def test_mb_indices_frozen():
    # rho = 1/11, B_rho = 0.0012, R0 = 2
    si = sensitivity_indices(ModelKind.MB, _mb())
    assert si.upsilon_rho == pytest.approx(0.25, rel=1e-12)
    assert si.upsilon_beta1 == pytest.approx(7 / 22, rel=1e-12)
    assert si.upsilon_beta2 == pytest.approx(15 / 22, rel=1e-12)
    assert si.upsilon_alpha1 == pytest.approx(-5 / 22, rel=1e-12)
    assert si.upsilon_alpha2 == pytest.approx(5 / 22, rel=1e-12)


def test_beta_indices_sum_to_one():
    rng = random.Random(246)
    for _ in range(100):
        p = validate_params(draw_raw_params(rng, ModelKind.MA), ModelKind.MA)
        si = sensitivity_indices(ModelKind.MA, p)
        assert si.upsilon_beta1 + si.upsilon_beta2 == pytest.approx(1.0, abs=1e-12)


def test_structural_identity_one_minus_f():
    # each index can be rewritten as 1 - f/B_rho; both routes must agree
    p = _ma(rho=0.4)
    b = p.rho * p.beta1 + (1 - p.rho) * p.beta2
    si = sensitivity_indices(ModelKind.MA, p)
    assert si.upsilon_rho == pytest.approx(1 - p.beta2 / b, rel=1e-12)
    assert si.upsilon_beta1 == pytest.approx(1 - (1 - p.rho) * p.beta2 / b, rel=1e-12)
    assert si.upsilon_beta2 == pytest.approx(1 - p.rho * p.beta1 / b, rel=1e-12)


def test_universal_orderings():
    rng = random.Random(135)
    for _ in range(200):
        p = validate_params(draw_raw_params(rng, ModelKind.MB), ModelKind.MB)
        si = sensitivity_indices(ModelKind.MB, p)
        assert si.upsilon_alpha1 < si.upsilon_alpha2 < si.upsilon_rho
        assert si.upsilon_rho < si.upsilon_beta1
        assert si.upsilon_alpha1 == -si.upsilon_alpha2


def test_indices_monotone_in_rho():
    rhos = [0.1, 0.3, 0.5, 0.7, 0.9]
    vals = [sensitivity_indices(ModelKind.MA, _ma(rho=r)) for r in rhos]
    for a, b in zip(vals, vals[1:]):
        assert b.upsilon_rho > a.upsilon_rho
        assert b.upsilon_beta1 > a.upsilon_beta1
        assert b.upsilon_beta2 < a.upsilon_beta2


def test_equal_betas_zero_alpha_indices():
    # theorem boundary, reachable only by bypassing validation on purpose
    p = Params(
        beta1=0.004,
        beta2=0.004,
        lam=0.65,
        gamma=0.0,
        kappa=0.002,
        rho=0.25,
        N=100.0,
        alpha1=0.003,
        alpha2=0.001,
        transition_normalization="asymmetric",
    )
    si = sensitivity_indices(ModelKind.MB, p)
    assert si.upsilon_alpha1 == 0.0
    assert si.upsilon_alpha2 == 0.0
    assert si.upsilon_rho == 0.0


# --- ordering cases ----------------------------------------------------------


def test_ma_case_a():
    oc = ordering_case(ModelKind.MA, _ma(rho=0.1))  # below beta2/(beta1+beta2)
    assert oc.label == "A"
    assert oc.chain == ("rho", "beta1", "beta2")


def test_ma_case_b():
    oc = ordering_case(ModelKind.MA, _ma(rho=0.2))  # between the first two cuts
    assert oc.label == "B"
    assert oc.chain == ("rho", "beta2", "beta1")


def test_ma_case_c_frozen_example():
    oc = ordering_case(ModelKind.MA, _ma())  # rho=0.75 above beta2/beta1
    assert oc.label == "C"
    assert oc.chain == ("beta2", "rho", "beta1")
    assert [name for name, _ in oc.thresholds] == [
        "beta2/(beta1+beta2)", "beta2/beta1", "beta2/(beta1-beta2)"
    ]
    assert oc.thresholds[1][1] == pytest.approx(0.0009 / 0.0042, rel=1e-15)


def test_ma_never_reports_case_d():
    # beyond beta2/(beta1-beta2) the three-index chain keeps its case-C shape
    oc = ordering_case(ModelKind.MA, _ma(rho=0.9, beta1=0.01, beta2=0.002))
    assert oc.label == "C"


def test_mb_case_a_frozen_example():
    oc = ordering_case(ModelKind.MB, _mb())  # rho = 1/11 < beta2/(beta1+beta2)
    assert oc.label == "A"
    assert oc.chain == ("alpha1", "alpha2", "rho", "beta1", "beta2")


def test_mb_case_c_and_d():
    # beta1=0.01, beta2=0.002: cuts at 0.2 and 0.25
    common = {"beta1": 0.01, "beta2": 0.002}
    oc_c = ordering_case(ModelKind.MB, _mb(alpha1=0.01, alpha2=0.0028205128205128205, **common))
    assert oc_c.label == "C"
    assert oc_c.chain == ("alpha1", "alpha2", "beta2", "rho", "beta1")
    oc_d = ordering_case(ModelKind.MB, _mb(alpha1=0.007, alpha2=0.003, **common))
    assert oc_d.label == "D"
    assert oc_d.chain == ("alpha1", "beta2", "alpha2", "rho", "beta1")


def test_boundary_is_explicit():
    rho_star = 0.0009 / (0.0042 + 0.0009)
    oc = ordering_case(ModelKind.MA, _ma(rho=rho_star))
    assert oc.label == "BOUNDARY"
    assert oc.chain == ()


def test_chain_always_matches_direct_sort():
    rng = random.Random(8086)
    checked = 0
    for _ in range(500):
        model = ModelKind.MA if checked % 2 else ModelKind.MB
        p = validate_params(draw_raw_params(rng, model), model)
        oc = ordering_case(model, p)
        if oc.label == "BOUNDARY":
            continue
        si = sensitivity_indices(model, p)
        values = {
            "rho": si.upsilon_rho,
            "beta1": si.upsilon_beta1,
            "beta2": si.upsilon_beta2,
        }
        if model is ModelKind.MB:
            values["alpha1"] = si.upsilon_alpha1
            values["alpha2"] = si.upsilon_alpha2
        assert oc.chain == tuple(sorted(values, key=values.__getitem__))
        checked += 1
    assert checked > 400


# --- the exact oracle -------------------------------------------------------

# Chosen on 3,000 draws per case of another seed, whose worst was 31 eps:
# the dual in an alpha reaches r0 as rho's partial times beta1 and beta2
# apart, which then cancel.
INDEX_REL = 1e-13


@pytest.mark.parametrize("case", list(MODEL_CASES))
def test_indices_are_the_exact_log_derivatives_of_r0(case):
    # a dual in theta through r0 gives theta * dR0/dtheta / R0 with no step
    # size; MB's alphas reach r0 through rho = alpha2 / (alpha1 + alpha2)
    model, extra = MODEL_CASES[case]
    rng = random.Random(1729)
    for _ in range(300):
        p = validate_params(dict(draw_raw_params(rng, model), **extra), model)
        for name, closed in sensitivity_indices(model, p).as_dict().items():
            rates = {"beta1": p.beta1, "beta2": p.beta2, "rho": p.rho,
                     "alpha1": p.alpha1, "alpha2": p.alpha2}
            theta = rates[name] = Dual.seed(rates[name], 0, 1)
            if name.startswith("alpha"):
                rates["rho"] = rates["alpha2"] / (rates["alpha1"] + rates["alpha2"])
            r = r0(rates["beta1"], rates["beta2"], rates["rho"], p.kappa)
            derived = theta.value * r.partials[0] / r.value
            assert abs(derived - closed) <= INDEX_REL * abs(closed), (
                f"U_{name} of {p}: closed form {closed!r}, dual {derived!r}"
            )


# --- finite differences ------------------------------------------------------


def test_finite_diff_matches_closed_forms():
    assert finite_diff_check(ModelKind.MA, _ma()) <= 1e-6
    assert finite_diff_check(ModelKind.MB, _mb()) <= 1e-6


def test_finite_diff_coarse_step_still_close():
    assert finite_diff_check(ModelKind.MB, _mb(), 1e-2) <= 1e-3


def test_finite_diff_step_bounds():
    with pytest.raises(RangeError):
        finite_diff_check(ModelKind.MA, _ma(), 1e-10)
    with pytest.raises(RangeError):
        finite_diff_check(ModelKind.MA, _ma(), 0.02)


def test_finite_diff_single_compares_the_zero_index_absolutely():
    # rho = 1 makes U_beta2 exactly 0, which has no relative error
    rng = random.Random(11)
    for _ in range(200):
        raw = draw_raw_params(rng, ModelKind.MA)
        del raw["rho"]
        p = validate_params(raw, ModelKind.SINGLE)
        assert sensitivity_indices(ModelKind.SINGLE, p).upsilon_beta2 == 0.0
        assert 0.0 <= finite_diff_check(ModelKind.SINGLE, p) <= 1e-6
    tiny = validate_params(dict(BASE, beta1=1e-323, beta2=5e-324, kappa=1.0),
                           ModelKind.SINGLE)
    with pytest.raises(NumericError, match="too small for a central difference"):
        finite_diff_check(ModelKind.SINGLE, tiny)


@pytest.mark.parametrize(
    "beta1, beta2, rho",
    [(1e-323, 5e-324, 0.5), (1.0, 5e-324, 0.9)],
    ids=["scale-underflows", "index-underflows"],
)
def test_finite_diff_underflow_is_numeric_error(beta1, beta2, rho):
    p = _ma(rho, beta1=beta1, beta2=beta2, kappa=1.0)
    with pytest.raises(NumericError, match="too small for a central difference"):
        finite_diff_check(ModelKind.MA, p)


# --- NaN rates in a hand-built Params -----------------------------------------

# The MB set whose alpha1 = NaN finite_diff_check used to answer 1.1e-10,
# max dropping the NaN deviation of U_alpha1.
NAN_MB = {"beta1": 0.5, "beta2": 0.1, "lambda": 0.5, "gamma": 0.1, "kappa": 0.5,
          "alpha1": 0.3, "alpha2": 0.1, "N": 100.0}


def _nan(model, field):
    p = _ma() if model is ModelKind.MA else validate_params(NAN_MB, ModelKind.MB)
    return p._replace(**{field: math.nan})


@pytest.mark.parametrize(
    "model, field",
    [(ModelKind.MA, "rho"), (ModelKind.MA, "beta1"), (ModelKind.MA, "beta2"),
     (ModelKind.MB, "rho"), (ModelKind.MB, "beta1"), (ModelKind.MB, "beta2")],
)
def test_ordering_case_of_a_nan_raises(model, field):
    # every comparison with NaN is false, which used to leave label C (MA)
    # or D (MB) by elimination
    with pytest.raises(NumericError, match="is not a number"):
        ordering_case(model, _nan(model, field))


@pytest.mark.parametrize(
    "model, field",
    [(ModelKind.MA, "rho"), (ModelKind.MA, "beta1"), (ModelKind.MA, "kappa"),
     (ModelKind.MB, "beta2"), (ModelKind.MB, "alpha1"), (ModelKind.MB, "alpha2")],
)
def test_finite_diff_check_of_a_nan_raises(model, field):
    with pytest.raises(NumericError, match="is not a number"):
        finite_diff_check(model, _nan(model, field))
