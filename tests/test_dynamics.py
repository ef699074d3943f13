"""Right-hand sides: frozen worked examples and structural identities.

The frozen numbers were hand-evaluated from the printed rate equations
before running the code; they pin the 1/N scaling of the infection and
class-switch terms, the lambda/(1-lambda) incidence split, and gamma's
role as the asymptomatic-to-symptomatic progression rate.
"""

from __future__ import annotations

import random

import pytest

from socsir.core import ModelKind, StateMA, StateMB, validate_params
from socsir.dynamics import rhs_ma, rhs_mb
from socsir.errors import NonFiniteError, RangeError
from tests._samplers import draw_raw_params

# --- fixed class membership ------------------------------------------------

MA_PARAMS = {
    "beta1": 0.0042,
    "beta2": 0.0009,
    "lambda": 0.65,
    "gamma": 0.005,
    "kappa": 0.0006,
    "rho": 0.75,
    "N": 100.0,
}
MA_STATE = StateMA(S1=74.25, S2=24.75, Is=1.0, Ia=0.0, R=0.0)

# hand-derived at the state above (I = Is + Ia = 1):
#   incidence        = (b1*S1 + b2*S2)/N * I = 0.0031185 + 0.00022275
#   dS1              = -b1*S1*I/N           = -0.0031185
#   dS2              = -b2*S2*I/N           = -0.00022275
#   dIs              = lam*incidence + gamma*Ia - kappa*Is = 0.0015718125
#   dIa              = (1-lam)*incidence - (gamma+kappa)*Ia = 0.0011694375
#   dR               = kappa*I             = 0.0006
MA_EXPECTED = (-0.0031185, -0.00022275, 0.0015718125, 0.0011694375, 0.0006)


def test_rhs_ma_frozen_example():
    p = validate_params(MA_PARAMS, ModelKind.MA)
    d = rhs_ma(p, MA_STATE)
    for got, want in zip(d, MA_EXPECTED):
        assert got == pytest.approx(want, rel=1e-13, abs=1e-18)


def test_rhs_ma_conserves_mass():
    p = validate_params(MA_PARAMS, ModelKind.MA)
    assert abs(sum(rhs_ma(p, MA_STATE))) < 1e-15


def test_rhs_ma_dfe_is_stationary():
    p = validate_params(MA_PARAMS, ModelKind.MA)
    d = rhs_ma(p, StateMA(S1=75.0, S2=25.0, Is=0.0, Ia=0.0, R=0.0))
    assert all(v == 0.0 for v in d)


def test_rhs_ma_pure_recovery():
    p = validate_params(MA_PARAMS, ModelKind.MA)
    d = rhs_ma(p, StateMA(S1=0.0, S2=0.0, Is=7.0, Ia=0.0, R=10.0))
    assert d == (0.0, 0.0, -p.kappa * 7.0, 0.0, p.kappa * 7.0)


def test_rhs_ma_progression_channel():
    # gamma moves mass Ia -> Is without touching dR beyond kappa*I
    p = validate_params(MA_PARAMS, ModelKind.MA)
    d = rhs_ma(p, StateMA(S1=0.0, S2=0.0, Is=0.0, Ia=4.0, R=0.0))
    assert d.dIs == pytest.approx(p.gamma * 4.0, rel=1e-15)
    assert d.dIa == pytest.approx(-(p.gamma + p.kappa) * 4.0, rel=1e-15)
    assert d.dR == pytest.approx(p.kappa * 4.0, rel=1e-15)


def test_rhs_ma_rejects_nonfinite_state():
    p = validate_params(MA_PARAMS, ModelKind.MA)
    with pytest.raises(NonFiniteError):
        rhs_ma(p, StateMA(S1=float("nan"), S2=0.0, Is=0.0, Ia=0.0, R=0.0))


# --- behavioural switching ---------------------------------------------------

MB_PARAMS = {
    "beta1": 0.0042,
    "beta2": 0.0009,
    "lambda": 0.65,
    "gamma": 0.0005,
    "kappa": 0.0002,
    "alpha1": 0.10,
    "alpha2": 0.010,
    "N": 100.0,
}
MB_STATE = StateMB(S1=74.25, S2=24.75, A1=0.0, A2=0.0, Is=1.0, R=0.0)


def test_rhs_mb_frozen_example():
    # hand-derived: I = 1, S-switch terms carry 1/N, A-switch terms do not
    p = validate_params(MB_PARAMS, ModelKind.MB)
    d = rhs_mb(p, MB_STATE)
    assert d.dS1 == pytest.approx(0.010 * 0.2475 - (0.10 + 0.0042) * 0.7425, rel=1e-13)
    assert d.dS2 == pytest.approx(0.10 * 0.7425 - (0.010 + 0.0009) * 0.2475, rel=1e-13)
    assert d.dA1 == pytest.approx(0.35 * 0.0042 * 0.7425, rel=1e-13)
    assert d.dA2 == pytest.approx(0.35 * 0.0009 * 0.2475, rel=1e-13)
    assert d.dIs == pytest.approx(0.65 * 0.00334125 - 0.0002, rel=1e-13)
    assert d.dR == 0.0002


def test_rhs_mb_component_sum_is_zero():
    p = validate_params(MB_PARAMS, ModelKind.MB)
    assert abs(sum(rhs_mb(p, MB_STATE))) < 1e-15


def test_rhs_mb_resting_equilibrium():
    # with no infectives the S-split is stationary iff alpha1*S1 == alpha2*S2
    raw = dict(MB_PARAMS, alpha1=0.001, alpha2=0.0001)
    p = validate_params(raw, ModelKind.MB)
    rho_star = 0.0001 / 0.0011
    s = StateMB(S1=100 * rho_star, S2=100 * (1 - rho_star), A1=0.0, A2=0.0, Is=0.0, R=0.0)
    d = rhs_mb(p, s)
    assert max(abs(v) for v in d) < 1e-16


def test_rhs_mb_pure_recovery():
    p = validate_params(MB_PARAMS, ModelKind.MB)
    d = rhs_mb(p, StateMB(S1=0.0, S2=0.0, A1=0.0, A2=0.0, Is=3.0, R=5.0))
    assert d.dIs == -p.kappa * 3.0
    assert d.dR == p.kappa * 3.0
    assert d.dS1 == d.dS2 == d.dA1 == d.dA2 == 0.0


def test_rhs_mb_rejects_nonfinite_state():
    p = validate_params(MB_PARAMS, ModelKind.MB)
    with pytest.raises(NonFiniteError):
        rhs_mb(p, MB_STATE._replace(A2=float("nan")))


# States that do not fit.  All but the bool raised a raw TypeError, from the
# field or, for a state with no len(), from len(); a bool is not a number to
# core._finite.
MISFIT_STATES = {
    "too-short": ((1.0, 2.0, 3.0), "takes {n} state components, got 3"),
    "too-long": ((1.0,) * 7, "takes {n} state components, got 7"),
    "string": (("a",), "state S1 must be a number, got 'a'"),
    "none": ((None,), "state S1 must be a number, got None"),
    "bool": ((True,), "state S1 must be a number, got True"),
    "int": (5, "takes {n} state components, got int$"),
    "no-state": (None, "takes {n} state components, got NoneType$"),
}


@pytest.mark.parametrize("case", sorted(MISFIT_STATES))
@pytest.mark.parametrize("rhs, model, raw, n", [
    (rhs_ma, ModelKind.MA, MA_PARAMS, 5), (rhs_mb, ModelKind.MB, MB_PARAMS, 6),
], ids=["ma", "mb"])
def test_rhs_rejects_a_state_that_does_not_fit(rhs, model, raw, n, case):
    state, message = MISFIT_STATES[case]
    if isinstance(state, tuple) and len(state) == 1:
        state += (1.0,) * (n - 1)  # a bad first component, the rest valid
    with pytest.raises(RangeError, match=message.format(n=n)) as exc:
        rhs(validate_params(raw, model), state)
    if "components" in message:
        assert str(exc.value).startswith(f"{model.name} takes {n}")


@pytest.mark.parametrize("value", [float("inf"), -float("inf"), 10**400],
                         ids=["inf", "-inf", "int-past-float"])
def test_rhs_reports_an_infinite_component_as_non_finite(value):
    # an int past the float range counts as infinite, as in core.to_float
    p = validate_params(MB_PARAMS, ModelKind.MB)
    with pytest.raises(NonFiniteError, match="state Is must be finite, got "):
        rhs_mb(p, MB_STATE._replace(Is=value))


def test_rhs_mb_uniform_normalization_still_conserves():
    raw = dict(MB_PARAMS, transition_normalization="uniform")
    p = validate_params(raw, ModelKind.MB)
    s = StateMB(S1=40.0, S2=30.0, A1=10.0, A2=5.0, Is=10.0, R=5.0)
    d_uniform = rhs_mb(p, s)
    d_default = rhs_mb(validate_params(MB_PARAMS, ModelKind.MB), s)
    assert abs(sum(d_uniform)) < 1e-13
    # the A-switch flux shrinks by 1/N under uniform scaling
    assert d_uniform.dA1 != d_default.dA1
    flux_default = 0.010 * 5.0 - 0.10 * 10.0
    assert d_default.dA1 - d_uniform.dA1 == pytest.approx(
        flux_default * (1 - 1 / 100.0), rel=1e-12
    )


def test_rhs_mass_balance_random_states():
    rng = random.Random(90210)
    for _ in range(200):
        p = validate_params(draw_raw_params(rng, ModelKind.MA), ModelKind.MA)
        s = StateMA(*(rng.uniform(0.0, p.N / 5.0) for _ in range(5)))
        assert abs(sum(rhs_ma(p, s))) < 1e-9 * p.N
        q = validate_params(draw_raw_params(rng, ModelKind.MB), ModelKind.MB)
        u = StateMB(*(rng.uniform(0.0, q.N / 6.0) for _ in range(6)))
        assert abs(sum(rhs_mb(q, u))) < 1e-9 * q.N


def test_boundary_inflow_nonnegative():
    # a compartment sitting at zero can only gain mass
    p = validate_params(MA_PARAMS, ModelKind.MA)
    d = rhs_ma(p, StateMA(S1=50.0, S2=30.0, Is=2.0, Ia=0.0, R=0.0))
    assert d.dIa >= 0.0
    q = validate_params(MB_PARAMS, ModelKind.MB)
    e = rhs_mb(q, StateMB(S1=50.0, S2=30.0, A1=0.0, A2=0.0, Is=2.0, R=0.0))
    assert e.dA1 >= 0.0 and e.dA2 >= 0.0
