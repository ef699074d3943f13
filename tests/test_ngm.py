"""Next-generation matrix, closed-form reproduction number, stability.

Frozen dominants were hand-derived from B_rho/kappa before wiring up the
matrix route; the tests keep both routes (closed form vs eigensolve of
K = -T Sigma^{-1}) so a regression in either one trips the comparison.
"""

from __future__ import annotations

import math
import random
import sys
from itertools import combinations, product

import pytest

from socsir.core import ModelKind, StateMA, StateMB, validate_params
from socsir.dynamics import rhs_ma, rhs_mb, vector_field
from socsir.errors import NumericError, OrderError, RangeError, SingularMatrixError
from socsir.reproduction import (
    StabilityVerdict,
    dfe_of,
    ngm,
    r0,
    rho_from_alphas,
    stability,
)
from tests._dual import Dual
from tests._samplers import MODEL_CASES, draw_raw_params


def _ma(**overrides):
    raw = {
        "beta1": 0.0042,
        "beta2": 0.0009,
        "lambda": 0.65,
        "gamma": 0.005,
        "kappa": 0.0006,
        "rho": 0.75,
        "N": 100.0,
    }
    raw.update(overrides)
    return validate_params(raw, ModelKind.MA)


def _mb(**overrides):
    raw = {
        "beta1": 0.009,
        "beta2": 0.0012,
        "lambda": 0.65,
        "gamma": 0.0001,
        "kappa": 0.0009,
        "alpha1": 0.01,
        "alpha2": 0.001,
        "N": 100.0,
    }
    raw.update(overrides)
    return validate_params(raw, ModelKind.MB)


# --- closed form -------------------------------------------------------------


def test_r0_frozen_values():
    assert r0(0.0042, 0.0009, 0.75, 0.0006) == pytest.approx(5.625, rel=1e-12)
    assert r0(0.00808, 0.00558, 0.5, 0.0002) == pytest.approx(34.15, rel=1e-12)


def test_r0_collapses_when_betas_equal():
    # boundary relaxed on purpose: the convex combination degenerates
    for rho in (0.1, 0.5, 0.9):
        assert r0(0.004, 0.004, rho, 0.002) == pytest.approx(2.0, rel=1e-15)


def test_rho_from_alphas():
    assert rho_from_alphas(0.001, 0.0001) == pytest.approx(1 / 11, rel=1e-15)
    assert rho_from_alphas(0.10, 0.010) == pytest.approx(1 / 11, rel=1e-15)
    with pytest.raises(OrderError):
        rho_from_alphas(0.0001, 0.0001)


@pytest.mark.parametrize(
    ("alpha1", "alpha2"),
    [(math.inf, 0.1), (1.7e308, 1e308), (1e300, 1e-300)],
    ids=["infinite-alpha1", "sum-overflows", "quotient-underflows"],
)
def test_rho_from_alphas_that_rounds_to_zero_raises(alpha1, alpha2):
    # each pair used to return 0.0, outside the documented (0, 1/2)
    with pytest.raises(RangeError, match="rounds to 0"):
        rho_from_alphas(alpha1, alpha2)


def test_rho_from_alphas_below_half():
    rng = random.Random(404)
    for _ in range(100):
        a1 = rng.uniform(1e-5, 0.5)
        a2 = a1 * rng.uniform(0.01, 0.99)
        assert 0.0 < rho_from_alphas(a1, a2) < 0.5


# --- equilibria --------------------------------------------------------------


def test_dfe_ma():
    assert dfe_of(ModelKind.MA, _ma()) == StateMA(75.0, 25.0, 0.0, 0.0, 0.0)
    p = _ma(rho=0.5, N=1.0)
    assert dfe_of(ModelKind.MA, p) == StateMA(0.5, 0.5, 0.0, 0.0, 0.0)


def test_dfe_mb_uses_resting_split():
    p = _mb(alpha1=0.001, alpha2=0.0001)
    d = dfe_of(ModelKind.MB, p)
    assert d.S1 == pytest.approx(100 / 11, rel=1e-15)
    assert d.S2 == pytest.approx(1000 / 11, rel=1e-15)
    assert (d.A1, d.A2, d.Is, d.R) == (0.0, 0.0, 0.0, 0.0)


def test_dfe_is_stationary_under_the_dynamics():
    pa = _ma()
    assert all(v == 0.0 for v in rhs_ma(pa, dfe_of(ModelKind.MA, pa)))
    pb = _mb()
    db = rhs_mb(pb, dfe_of(ModelKind.MB, pb))
    assert max(abs(v) for v in db) < 1e-18


# --- the matrix route --------------------------------------------------------


def test_ngm_ma_spectrum():
    res = ngm(ModelKind.MA, _ma())
    assert res.dimension == 2
    assert res.eigenvalues[:-1] == (0.0,)
    assert res.dominant == pytest.approx(5.625, rel=1e-12)


def test_ngm_mb_spectrum():
    res = ngm(ModelKind.MB, _mb())
    assert res.dimension == 3
    # the two subdominant eigenvalues are exactly zero (rank-one K)
    assert res.eigenvalues[:-1] == (0.0, 0.0)
    assert res.dominant == pytest.approx(2.1212121212121211, rel=1e-12)


def test_ngm_matches_closed_form_both_models():
    rng = random.Random(1618)
    for _ in range(50):
        p = validate_params(draw_raw_params(rng, ModelKind.MA), ModelKind.MA)
        res = ngm(ModelKind.MA, p)
        want = r0(p.beta1, p.beta2, p.rho, p.kappa)
        assert abs(res.dominant - want) <= 1e-10 * want
        q = validate_params(draw_raw_params(rng, ModelKind.MB), ModelKind.MB)
        resb = ngm(ModelKind.MB, q)
        wantb = r0(q.beta1, q.beta2, q.rho, q.kappa)
        assert abs(resb.dominant - wantb) <= 1e-10 * wantb


@pytest.mark.parametrize("case", list(MODEL_CASES))
def test_ngm_linearizes_the_vector_field(case):
    # At the DFE the infected equations of the field are linear in the
    # infected compartments (van den Driessche & Watmough, Math. Biosci.
    # 180 (2002) 29-48), so f(dfe + e_j) - f(dfe) is column j of their
    # Jacobian, which T + Sigma must be.  The infected compartments sit
    # at positions 2, 3 (and 4) of the state, in ngm's order.
    model, extra = MODEL_CASES[case]
    rng = random.Random(20021029)
    for _ in range(300):
        p = validate_params(dict(draw_raw_params(rng, model), **extra), model)
        f = vector_field(model, p)
        dfe = dfe_of(model, p)
        at_dfe = f(*dfe)
        assert max(map(abs, at_dfe)) <= 1e-15
        res = ngm(model, p)
        n = res.dimension
        for j in range(n):
            bumped = list(dfe)
            bumped[2 + j] += 1.0
            column = [a - b for a, b in zip(f(*bumped)[2:2 + n], at_dfe[2:])]
            expected = [res.T[i][j] + res.Sigma[i][j] for i in range(n)]
            assert column == pytest.approx(expected, rel=1e-9, abs=1e-15), (p, j)


# The dual-number oracle's bands, chosen on 3,000 draws per case of another
# seed.  Sigma's worst there was 0 ulp for MA and SINGLE and 2 ulp for MB.
# T = J - Sigma cancels where T is far below Sigma (T's relative error
# reached 4e-11), so T is measured in units of eps * (|J| + |Sigma|), the
# size of the subtraction's operands: its worst there was 6.25.
SIGMA_ULPS = {ModelKind.MA: 0, ModelKind.SINGLE: 0, ModelKind.MB: 4}
T_EPS = 16


def _infected_jacobian(model, p):
    """The Jacobian of the field text's infected equations at dfe_of, from
    one evaluation of vector_field on duals in the infected compartments."""
    dfe = dfe_of(model, p)
    n = len(dfe) - 3  # all but S1, S2 and R, in ngm's order
    infected = [Dual.seed(dfe[2 + j], j, n) for j in range(n)]
    rates = vector_field(model, p)(*dfe[:2], *infected, dfe[-1])[2:2 + n]
    return [rate.partials for rate in rates]


@pytest.mark.parametrize("case", list(MODEL_CASES))
def test_ngm_is_the_exact_jacobian_of_the_field_text(case):
    # Sigma is the Jacobian J of the infected equations with beta1 = beta2
    # = 0, and T = J - Sigma; the duals differentiate with no step size
    model, extra = MODEL_CASES[case]
    rng = random.Random(1729)
    for _ in range(300):
        p = validate_params(dict(draw_raw_params(rng, model), **extra), model)
        res = ngm(model, p)
        jac = _infected_jacobian(model, p)
        sigma = _infected_jacobian(model, p._replace(beta1=0.0, beta2=0.0))
        for i, j in product(range(res.dimension), repeat=2):
            closed, derived = res.Sigma[i][j], sigma[i][j]
            assert abs(derived - closed) <= SIGMA_ULPS[model] * math.ulp(closed), (
                f"Sigma[{i}][{j}] of {p}: ngm {closed!r}, field text {derived!r}"
            )
            closed, derived = res.T[i][j], jac[i][j] - sigma[i][j]
            band = T_EPS * sys.float_info.epsilon * (abs(jac[i][j]) + abs(sigma[i][j]))
            assert abs(derived - closed) <= band, (
                f"T[{i}][{j}] of {p}: ngm {closed!r}, field text {derived!r}"
            )


@pytest.mark.parametrize("model", [ModelKind.MA, ModelKind.MB])
def test_ngm_k_has_rank_one(model):
    # the fact the spectrum (0, ..., 0, trace) rests on: every 2x2 minor
    # of K vanishes up to rounding
    rng = random.Random(2002)
    for _ in range(200):
        k = ngm(model, validate_params(draw_raw_params(rng, model), model)).K
        scale = max(abs(x) for row in k for x in row) ** 2
        pairs = list(combinations(range(len(k)), 2))
        for (i, j), (a, b) in product(pairs, repeat=2):
            minor = k[i][a] * k[j][b] - k[i][b] * k[j][a]
            assert abs(minor) <= 1e-12 * scale


def test_ngm_mb_lambda_one_boundary():
    res = ngm(ModelKind.MB, _mb(**{"lambda": 1.0}))
    p = _mb(**{"lambda": 1.0})
    assert res.dominant == pytest.approx(
        r0(p.beta1, p.beta2, p.rho, p.kappa), rel=1e-12
    )


def test_ngm_raises_when_the_determinant_underflows():
    # Sigma is invertible in exact arithmetic, but with rates near 1e-200
    # its float determinant (a product of two or three of them) is zero
    message = r"^transition matrix is singular$"
    with pytest.raises(SingularMatrixError, match=message):
        ngm(ModelKind.MA, _ma(kappa=1e-200, gamma=0.0))
    with pytest.raises(SingularMatrixError, match=message):
        ngm(ModelKind.MB, _mb(kappa=1e-200, gamma=0.0, alpha1=1e-200, alpha2=5e-201))


def test_ngm_matrix_shapes_and_sign():
    res = ngm(ModelKind.MA, _ma())
    assert len(res.T) == len(res.Sigma) == len(res.K) == 2
    # Sigma is a transition (outflow) matrix: diagonal strictly negative
    assert all(res.Sigma[i][i] < 0 for i in range(2))


# --- stability verdicts ------------------------------------------------------


def test_stability_verdicts():
    sup = stability(ModelKind.MA, _ma())
    assert sup.verdict is StabilityVerdict.UNSTABLE
    assert sup.r0 == pytest.approx(5.625, rel=1e-12)
    assert sup.b_rho == pytest.approx(0.003375, rel=1e-13)
    assert sup.dfe == StateMA(75.0, 25.0, 0.0, 0.0, 0.0)

    sub = stability(ModelKind.MA, _ma(beta1=0.0005, beta2=0.0001, rho=0.5))
    assert sub.verdict is StabilityVerdict.STABLE
    assert sub.r0 == pytest.approx(0.5, rel=1e-12)


def test_stability_marginal_band():
    # engineered so B_rho/kappa == 1 exactly
    p = _ma(beta1=0.0008, beta2=0.0004, rho=0.5, kappa=0.0006)
    rep = stability(ModelKind.MA, p)
    assert rep.r0 == pytest.approx(1.0, abs=1e-12)
    assert rep.verdict is StabilityVerdict.MARGINAL


def test_stability_of_a_nan_rate_says_r0_is_not_a_number():
    # a NaN beta1 in a hand-built Params was reported as an overflow
    with pytest.raises(
        NumericError,
        match=r"^R0 = B_rho / kappa is not a number: B_rho = nan, kappa = 0\.0006$",
    ):
        stability(ModelKind.MA, _ma()._replace(beta1=math.nan))


def test_stability_mb():
    rep = stability(ModelKind.MB, _mb())
    assert rep.verdict is StabilityVerdict.UNSTABLE
    assert rep.r0 == pytest.approx(2.1212121212121211, rel=1e-12)
