"""Vector fields for the two compartment models.

Pure functions: given parameters and a state they return the instantaneous
rates of change.  The population is closed, so each derivative vector sums
to zero (up to float rounding); nothing here integrates or mutates.

vector_field binds a model's parameters once and returns a plain positional
field for the integrator; rhs_ma and rhs_mb check a named state and
evaluate that field on it once.  Both models are autonomous, so the fields
take no time argument.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import ModelKind, Params, StateMA, StateMB, _switch_rates
from .errors import NonFiniteError

__all__ = ["DerivMA", "DerivMB", "rhs_ma", "rhs_mb", "vector_field"]


class DerivMA(NamedTuple):
    """Rates of change for model MA (counts per unit time)."""

    dS1: float
    dS2: float
    dIs: float
    dIa: float
    dR: float


class DerivMB(NamedTuple):
    """Rates of change for model MB."""

    dS1: float
    dS2: float
    dA1: float
    dA2: float
    dIs: float
    dR: float


def _field_ma(p: Params):
    """Model MA (and SINGLE) vector field f(S1, S2, Is, Ia, R) -> tuple.

    Class membership is fixed.  Both infective classes (Ia, Is) infect both
    susceptible classes; new infections split lam : (1-lam) into symptomatic
    and asymptomatic; asymptomatics develop symptoms at rate gamma; everyone
    recovers at rate kappa.
    """
    beta1, beta2, lam, gamma, kappa, N = (
        p.beta1, p.beta2, p.lam, p.gamma, p.kappa, p.N
    )
    # Left-associative prefixes of the rate expressions, so hoisting them
    # keeps every result bit-identical.
    asym_share = 1.0 - lam
    leave_ia = gamma + kappa

    def f(S1, S2, Is, Ia, R):
        infectives = Ia + Is
        force1 = beta1 * S1 / N
        force2 = beta2 * S2 / N
        incidence = (force1 + force2) * infectives
        return (
            -force1 * infectives,
            -force2 * infectives,
            lam * incidence + gamma * Ia - kappa * Is,
            asym_share * incidence - leave_ia * Ia,
            kappa * infectives,
        )

    return f


def _field_mb(p: Params):
    """Model MB vector field f(S1, S2, A1, A2, Is, R) -> tuple.

    Like MA, but susceptibles and asymptomatics switch class at rates
    alpha1 (1 -> 2) and alpha2 (2 -> 1).  Susceptible switch terms are
    scaled by 1/N, asymptomatic ones as core._switch_rates says (so too
    in ngm's Sigma).  The switches cancel pairwise: the total is conserved.
    """
    beta1, beta2, lam, gamma, kappa, alpha1, alpha2, N = (
        p.beta1, p.beta2, p.lam, p.gamma, p.kappa, p.alpha1, p.alpha2, p.N
    )
    sw1, sw2 = _switch_rates(p)
    # Left-associative prefixes of the rate expressions, so hoisting them
    # keeps every result bit-identical.
    asym_rate1 = (1.0 - lam) * beta1
    asym_rate2 = (1.0 - lam) * beta2
    leave_a = gamma + kappa

    def f(S1, S2, A1, A2, Is, R):
        asympt = A1 + A2
        infectives = asympt + Is
        s1n = S1 / N
        s2n = S2 / N
        switch_in_1 = sw2 * A2
        switch_out_1 = sw1 * A1
        return (
            alpha2 * S2 / N - (alpha1 + beta1 * infectives) * s1n,
            alpha1 * S1 / N - (alpha2 + beta2 * infectives) * s2n,
            asym_rate1 * infectives * s1n
            + switch_in_1
            - switch_out_1
            - leave_a * A1,
            asym_rate2 * infectives * s2n
            + switch_out_1
            - switch_in_1
            - leave_a * A2,
            lam * (beta1 * s1n + beta2 * s2n) * infectives
            + gamma * asympt
            - kappa * Is,
            kappa * infectives,
        )

    return f


def vector_field(model: ModelKind, p: Params):
    """The positional vector field f(*components) -> tuple of a model.

    The parameters are bound once.  The field does no checks: a non-finite
    input gives a non-finite output, which the integrator rejects.
    """
    return _field_mb(p) if model is ModelKind.MB else _field_ma(p)


def _checked(s) -> None:
    if not all(map(math.isfinite, s)):
        raise NonFiniteError(f"non-finite state {s!r}")


def rhs_ma(p: Params, s: StateMA) -> DerivMA:
    """Model MA right-hand side (see _field_ma).

    Raises NonFiniteError when any input component is not finite.
    """
    _checked(s)
    return DerivMA._make(_field_ma(p)(*s))


def rhs_mb(p: Params, s: StateMB) -> DerivMB:
    """Model MB right-hand side (see _field_mb).

    Raises NonFiniteError when any input component is not finite.
    """
    _checked(s)
    return DerivMB._make(_field_mb(p)(*s))
