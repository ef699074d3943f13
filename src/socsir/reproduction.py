"""Basic reproduction number, next-generation matrices, DFE, stability.

The linearized infection subsystem of either model factors as
K = -T * Sigma^{-1} with a new-infection matrix T whose rows are constant:
every new infection is distributed over the infected compartments by one
fixed vector, so K has rank one.  Its characteristic polynomial is
lambda^(n-1) * (lambda - trace), and the spectrum is read off in closed
form rather than iterated for.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .core import (
    _MB, ModelKind, Params, State, _class_split, _finite, _layout_for,
    _switch_rates, split_share,
)
from .errors import NumericError, OrderError, SingularMatrixError

Matrix = tuple[tuple[float, ...], ...]

# |r0 - 1| <= this is reported as MARGINAL rather than arbitrating the
# threshold case, where the strict and non-strict stability statements of
# the underlying theory disagree.
MARGINAL_TOL = 1e-12


def b_rho(beta1: float, beta2: float, rho: float) -> float:
    """The class-mixed infection rate rho*beta1 + (1-rho)*beta2."""
    return rho * beta1 + (1.0 - rho) * beta2


def r0(beta1: float, beta2: float, rho: float, kappa: float) -> float:
    """Basic reproduction number b_rho(beta1, beta2, rho) / kappa.

    Pure formula; argument validation is the caller's job: kappa = 0
    raises ZeroDivisionError, and an overflow returns inf.  checked_r0 is
    the checked path for a Params value.  For model MB pass
    rho = rho_from_alphas(alpha1, alpha2).
    """
    return b_rho(beta1, beta2, rho) / kappa


def checked_r0(p: Params) -> tuple[float, float]:
    """R0 and B_rho of p, computed as r0 and b_rho compute them.

    Raises NumericError when either is not finite: a tiny kappa, or huge
    rates admitted with allow_beta_gt_one, overflow the float range, and a
    NaN rate in a hand-built Params makes R0 not a number.
    """
    mixed = b_rho(p.beta1, p.beta2, p.rho)
    value = mixed / p.kappa  # r0, the same expression
    if not (math.isfinite(value) and math.isfinite(mixed)):
        fault = "is not a number" if math.isnan(value) else "overflows the float range"
        raise NumericError(
            f"R0 = B_rho / kappa {fault}: B_rho = {mixed!r}, kappa = {p.kappa!r}"
        )
    return value, mixed


def rho_from_alphas(alpha1: float, alpha2: float) -> float:
    """Equilibrium class-1 fraction alpha2 / (alpha1 + alpha2).

    Because alpha1 > alpha2 > 0 is required, the result lies in (0, 1/2).
    Raises RangeError for a rate that is not a number or, but for an
    infinite alpha1, not finite (core._finite); OrderError when the rates
    are not strictly ordered; RangeError when the result rounds to 0
    (alpha1 + alpha2 overflows, alpha1 is infinite, or the quotient
    underflows).
    """
    if alpha1 != math.inf:  # an infinite alpha1 is _class_split's to refuse
        _finite("alpha1", alpha1)
    if not alpha1 > _finite("alpha2", alpha2) > 0:
        raise OrderError(
            f"need alpha1 > alpha2 > 0, got alpha1={alpha1}, alpha2={alpha2}"
        )
    return _class_split(alpha1, alpha2)


def dfe_of(model: ModelKind, p: Params) -> State:
    """The disease-free equilibrium state of the model.

    All infective compartments are zero and the susceptibles are split
    rho : (1-rho) between the classes (for MB, rho comes from the switch
    rates).  split_share makes the state sum to N exactly, so either share
    may differ from literal rho*N or (1-rho)*N by an ulp.
    """
    state = _layout_for(model, p).state
    s1, s2 = split_share(p.N, p.rho)
    return tuple.__new__(state, (s1, s2) + (0.0,) * (len(state._fields) - 2))


class NgmResult(NamedTuple):
    """Next-generation analysis of the linearized infection subsystem."""

    T: Matrix
    Sigma: Matrix
    K: Matrix
    eigenvalues: tuple[float, ...]
    dominant: float
    dimension: int


def ngm(model: ModelKind, p: Params) -> NgmResult:
    """Build T and Sigma, form K = -T * Sigma^{-1}, and take its spectrum.

    MA and SINGLE order the infected compartments (Is, Ia); MB orders them
    (A1, A2, Is).  T + Sigma is the Jacobian of vector_field's infected
    equations at dfe_of, so MB's Sigma reads core._switch_rates as the
    field does.  K has rank one (Diekmann, Heesterbeek & Roberts, J. R.
    Soc. Interface 7:873, 2010), so its spectrum is (0, ..., 0, trace(K)):
    the non-dominant eigenvalues are reported as exact zeros and the
    dominant one is the float trace of K.

    Raises RangeError for a model and parameters that core._layout_for
    refuses, and SingularMatrixError if Sigma's float determinant is zero.
    Its exact value is nonzero for validated parameters (kappa > 0), but it
    underflows when the rates on its diagonal are tiny: kappa = 1e-200
    with gamma = 0 (and, for MB, alphas as small) does it.
    """
    layout = _layout_for(model, p)
    beta1, beta2, rho, lam = p.beta1, p.beta2, p.rho, p.lam
    gamma, kappa = p.gamma, p.kappa
    mixed = b_rho(beta1, beta2, rho)
    # Row i of T is all t_i; Sigma^{-1} is the adjugate over det, zeros kept.
    # K's entries and trace add left to right from 0.0, as sum() does on
    # Python 3.11, so each bit (signed zeros too) is the general product's.
    if layout is _MB:
        t1 = (1.0 - lam) * beta1 * rho
        t2 = (1.0 - lam) * beta2 * (1.0 - rho)
        t3 = lam * mixed
        sw1, sw2 = _switch_rates(p)
        a, b, c = -(sw1 + gamma + kappa), sw2, 0.0
        d, e, f = sw1, -(sw2 + gamma + kappa), 0.0
        g, h, i = gamma, gamma, -kappa
        ca, cb, cc = e * i - f * h, f * g - d * i, d * h - e * g
        det = a * ca + b * cb + c * cc
        if det == 0:
            raise SingularMatrixError("transition matrix is singular")
        i00, i01, i02 = ca / det, (c * h - b * i) / det, (b * f - c * e) / det
        i10, i11, i12 = cb / det, (a * i - c * g) / det, (c * d - a * f) / det
        i20, i21, i22 = cc / det, (b * g - a * h) / det, (a * e - b * d) / det
        K = (
            (-(0.0 + t1 * i00 + t1 * i10 + t1 * i20),
             -(0.0 + t1 * i01 + t1 * i11 + t1 * i21),
             -(0.0 + t1 * i02 + t1 * i12 + t1 * i22)),
            (-(0.0 + t2 * i00 + t2 * i10 + t2 * i20),
             -(0.0 + t2 * i01 + t2 * i11 + t2 * i21),
             -(0.0 + t2 * i02 + t2 * i12 + t2 * i22)),
            (-(0.0 + t3 * i00 + t3 * i10 + t3 * i20),
             -(0.0 + t3 * i01 + t3 * i11 + t3 * i21),
             -(0.0 + t3 * i02 + t3 * i12 + t3 * i22)),
        )
        dominant = 0.0 + K[0][0] + K[1][1] + K[2][2]
        return tuple.__new__(NgmResult, (
            ((t1, t1, t1), (t2, t2, t2), (t3, t3, t3)),
            ((a, b, c), (d, e, f), (g, h, i)),
            K, (0.0, 0.0, dominant), dominant, 3,
        ))
    t1, t2 = lam * mixed, (1.0 - lam) * mixed
    a, b, c, d = -kappa, gamma, 0.0, -(gamma + kappa)
    det = a * d - b * c
    if det == 0:
        raise SingularMatrixError("transition matrix is singular")
    i00, i01, i10, i11 = d / det, -b / det, -c / det, a / det
    K = (
        (-(0.0 + t1 * i00 + t1 * i10), -(0.0 + t1 * i01 + t1 * i11)),
        (-(0.0 + t2 * i00 + t2 * i10), -(0.0 + t2 * i01 + t2 * i11)),
    )
    dominant = 0.0 + K[0][0] + K[1][1]
    return tuple.__new__(NgmResult, (
        ((t1, t1), (t2, t2)), ((a, b), (c, d)), K, (0.0, dominant), dominant, 2,
    ))


class StabilityVerdict(enum.Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    MARGINAL = "marginal"


class StabilityReport(NamedTuple):
    """Stability of the disease-free equilibrium."""

    r0: float
    verdict: StabilityVerdict
    dfe: State
    b_rho: float


def stability(model: ModelKind, p: Params) -> StabilityReport:
    """Classify the DFE: STABLE iff r0 < 1, UNSTABLE iff r0 > 1.

    Within MARGINAL_TOL of r0 = 1 the verdict is MARGINAL; the threshold
    case is genuinely ambiguous between the strict and non-strict forms of
    the stability statements, so it is reported, not arbitrated.

    Raises NumericError when R0 or B_rho is not finite (see checked_r0).
    """
    dfe = dfe_of(model, p)
    value, mixed = checked_r0(p)
    if abs(value - 1.0) <= MARGINAL_TOL:
        verdict = StabilityVerdict.MARGINAL
    elif value < 1.0:
        verdict = StabilityVerdict.STABLE
    else:
        verdict = StabilityVerdict.UNSTABLE
    return tuple.__new__(StabilityReport, (value, verdict, dfe, mixed))
