"""Normalized forward sensitivity indices of r0 and their ordering.

The index of r0 with respect to a parameter p is (p/r0) * d(r0)/dp: the
relative change of r0 per relative change of p.  Writing B for the mixed
rate rho*beta1 + (1-rho)*beta2 (so r0 = B/kappa), the closed forms are

    U_rho   = rho*(beta1-beta2)/B        = 1 - beta2/B
    U_beta1 = rho*beta1/B                = 1 - (1-rho)*beta2/B
    U_beta2 = (1-rho)*beta2/B            = 1 - rho*beta1/B

and, for model MB where rho = alpha2/(alpha1+alpha2),

    U_alpha1 = -rho*(1-rho)*(beta1-beta2)/B
    U_alpha2 = +rho*(1-rho)*(beta1-beta2)/B.

U_beta1 + U_beta2 = 1 always, U_rho < U_beta1 always, and for MB
U_alpha1 < 0 < U_alpha2 < U_rho always.  The relative position of U_beta2
depends on where rho sits against the breakpoints beta2/(beta1+beta2),
beta2/beta1 and beta2/(beta1-beta2), which is what ordering_case labels.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import _MB, ModelKind, Params, _finite, _layout_for
from .errors import NumericError, RangeError
from .reproduction import b_rho

# A rho sitting within this distance of a breakpoint is reported BOUNDARY:
# the ordering statements use strict inequalities only, so ties are
# surfaced instead of being broken arbitrarily.
BOUNDARY_TOL = 1e-12


class SensitivityIndices(NamedTuple):
    """The indices of one parameter set; alpha entries are None for MA."""

    model: ModelKind
    upsilon_rho: float
    upsilon_beta1: float
    upsilon_beta2: float
    upsilon_alpha1: float | None = None
    upsilon_alpha2: float | None = None

    def as_dict(self) -> dict[str, float]:
        out = {
            "rho": self.upsilon_rho,
            "beta1": self.upsilon_beta1,
            "beta2": self.upsilon_beta2,
        }
        if self.upsilon_alpha1 is not None:
            out["alpha1"] = self.upsilon_alpha1
            out["alpha2"] = self.upsilon_alpha2
        return out


class OrderingCase(NamedTuple):
    """Which ordering chain the indices follow.

    label is "A".."D" or "BOUNDARY"; chain lists the parameter names in
    increasing order of their index (empty for BOUNDARY); thresholds pairs
    each breakpoint expression with its value, in the order
    beta2/(beta1+beta2), beta2/beta1, beta2/(beta1-beta2).
    """

    label: str
    chain: tuple[str, ...]
    thresholds: tuple[tuple[str, float], ...]


# Each label's chain: three indices (MA, SINGLE; never D), then five (MB).
_CHAINS = {
    "A": (("rho", "beta1", "beta2"), ("alpha1", "alpha2", "rho", "beta1", "beta2")),
    "B": (("rho", "beta2", "beta1"), ("alpha1", "alpha2", "rho", "beta2", "beta1")),
    "C": (("beta2", "rho", "beta1"), ("alpha1", "alpha2", "beta2", "rho", "beta1")),
    "D": ((), ("alpha1", "beta2", "alpha2", "rho", "beta1")),
    "BOUNDARY": ((), ()),
}


def _closed_forms(mb: bool, p: Params) -> tuple[float | None, ...]:
    """The indices rho, beta1, beta2, alpha1, alpha2; None alphas but for MB."""
    beta1, beta2, rho = p.beta1, p.beta2, p.rho
    mixed = b_rho(beta1, beta2, rho)
    u_rho = rho * (beta1 - beta2) / mixed
    u_beta1 = rho * beta1 / mixed
    u_beta2 = (1.0 - rho) * beta2 / mixed
    if not mb:
        return u_rho, u_beta1, u_beta2, None, None
    swing = rho * (1.0 - rho) * (beta1 - beta2) / mixed
    return u_rho, u_beta1, u_beta2, -swing, swing


def sensitivity_indices(model: ModelKind, p: Params) -> SensitivityIndices:
    """Closed-form indices for the model's parameters."""
    mb = _layout_for(model, p) is _MB
    return tuple.__new__(SensitivityIndices, (model, *_closed_forms(mb, p)))


def ordering_case(model: ModelKind, p: Params) -> OrderingCase:
    """Label the inequality chain the indices satisfy.

    MA:  A: U_rho < U_beta1 < U_beta2          (rho < beta2/(beta1+beta2))
         B: U_rho < U_beta2 < U_beta1          (... < rho < beta2/beta1)
         C: U_beta2 < U_rho < U_beta1          (rho > beta2/beta1)
    MB prepends U_alpha1 < U_alpha2 and gains a fourth case when U_beta2
    drops below U_alpha2:
         A: Ua1 < Ua2 < U_rho < U_beta1 < U_beta2
         B: Ua1 < Ua2 < U_rho < U_beta2 < U_beta1
         C: Ua1 < Ua2 < U_beta2 < U_rho < U_beta1
                                            (beta2/beta1 < rho < beta2/(beta1-beta2))
         D: Ua1 < U_beta2 < Ua2 < U_rho < U_beta1
                                            (rho > beta2/(beta1-beta2))
    BOUNDARY when rho sits within BOUNDARY_TOL of a relevant breakpoint.
    """
    mb = _layout_for(model, p) is _MB
    beta1, beta2, rho = p.beta1, p.beta2, p.rho
    t_sum = beta2 / (beta1 + beta2)
    t_ratio = beta2 / beta1
    t_diff = beta2 / (beta1 - beta2)
    if (
        abs(rho - t_sum) <= BOUNDARY_TOL
        or abs(rho - t_ratio) <= BOUNDARY_TOL
        or (mb and abs(rho - t_diff) <= BOUNDARY_TOL)
    ):
        label = "BOUNDARY"
    elif rho < t_sum:
        label = "A"
    elif rho < t_ratio:
        label = "B"
    elif not mb or rho < t_diff:
        label = "C"
    else:
        label = "D"
    thresholds = (
        ("beta2/(beta1+beta2)", t_sum),
        ("beta2/beta1", t_ratio),
        ("beta2/(beta1-beta2)", t_diff),
    )
    return tuple.__new__(OrderingCase, (label, _CHAINS[label][mb], thresholds))


def finite_diff_check(model: ModelKind, p: Params, h: float = 1e-6) -> float:
    """Max relative deviation of the closed forms from central differences.

    Each index is re-derived as (param/r0) * d(r0)/d(param) with a central
    difference of relative step h; the alpha indices differentiate through
    rho = alpha2 / (alpha1 + alpha2), perturbing the switch rates
    themselves.  Returns the worst relative error over all indices of the
    model; an index that is exactly 0 (U_beta2 when rho = 1, as for model
    SINGLE) contributes its absolute error instead.

    Raises NumericError when the rates are so small that 2*h*r0 or a
    closed-form index underflows to zero.
    """
    mb = _layout_for(model, p) is _MB
    if not 1e-10 < _finite("h", h) <= 1e-2:
        raise RangeError(f"h must lie in (1e-10, 1e-2], got {h}")

    beta1, beta2, rho, kappa = p.beta1, p.beta2, p.rho, p.kappa
    up, down = 1.0 + h, 1.0 - h
    # (param/r0) * (f(+) - f(-)) / (2*h*param) with the param cancelled; r0
    # is written out per step, with its operands in r0's order.
    head, comp = rho * beta1, 1.0 - rho
    rest = comp * beta2
    scale = 2.0 * h * ((head + rest) / kappa)
    r_up, r_down = rho * up, rho * down
    diffs = [
        (r_up * beta1 + (1.0 - r_up) * beta2) / kappa
        - (r_down * beta1 + (1.0 - r_down) * beta2) / kappa,
        (rho * (beta1 * up) + rest) / kappa - (rho * (beta1 * down) + rest) / kappa,
        (head + comp * (beta2 * up)) / kappa - (head + comp * (beta2 * down)) / kappa,
    ]
    if mb:
        # rho_from_alphas's formula without its order check: a step can
        # carry alpha1 below alpha2 when the two are within a factor
        # (1+h)/(1-h), and the derivative is still defined there.
        a1, a2 = p.alpha1, p.alpha2
        a2_up, a2_down = a2 * up, a2 * down
        for r_up, r_down in (
            (a2 / (a1 * up + a2), a2 / (a1 * down + a2)),
            (a2_up / (a1 + a2_up), a2_down / (a1 + a2_down)),
        ):
            diffs.append(
                (r_up * beta1 + (1.0 - r_up) * beta2) / kappa
                - (r_down * beta1 + (1.0 - r_down) * beta2) / kappa
            )
    # The closed forms divide by B, which is 0 only if scale is.  rho = 1
    # (model SINGLE) makes U_beta2 = (1-rho)*beta2/B exactly 0, and no other
    # index can be 0 then; that one is compared by absolute error.
    closed_forms = _closed_forms(mb, p) if scale else ()
    if not scale or (comp and 0.0 in closed_forms):
        raise NumericError(
            f"the rates are too small for a central difference at step "
            f"h={h:g}: 2*h*r0 or a closed-form index underflows to zero"
        )
    # zip stops at the last diff, so an MA's None alphas are never read.
    return max(
        [
            abs(diff / scale - closed) / (abs(closed) or 1.0)
            for diff, closed in zip(diffs, closed_forms)
        ]
    )
