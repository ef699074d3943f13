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
from operator import mul
from typing import NamedTuple

from .core import ModelKind, Params, State, StateMA, StateMB, split_share
from .errors import NumericError, OrderError, RangeError, SingularMatrixError

__all__ = [
    "NgmResult",
    "StabilityReport",
    "StabilityVerdict",
    "r0",
    "rho_from_alphas",
    "dfe_of",
    "ngm",
    "stability",
]

Matrix = tuple[tuple[float, ...], ...]

# |r0 - 1| <= this is reported as MARGINAL rather than arbitrating the
# threshold case, where the strict and non-strict stability statements of
# the underlying theory disagree.
MARGINAL_TOL = 1e-12


def r0(beta1: float, beta2: float, rho: float, kappa: float) -> float:
    """Basic reproduction number (rho*beta1 + (1-rho)*beta2) / kappa.

    Pure formula; argument validation is the caller's job.  For model MB
    pass rho = rho_from_alphas(alpha1, alpha2).
    """
    return (rho * beta1 + (1.0 - rho) * beta2) / kappa


def b_rho(beta1: float, beta2: float, rho: float) -> float:
    """The class-mixed infection rate rho*beta1 + (1-rho)*beta2."""
    return rho * beta1 + (1.0 - rho) * beta2


def checked_r0(p: Params) -> tuple[float, float]:
    """R0 and B_rho of p, computed as r0 and b_rho compute them.

    Raises NumericError when either is not finite: a tiny kappa, or huge
    rates admitted with allow_beta_gt_one, overflow the float range.
    """
    mixed = b_rho(p.beta1, p.beta2, p.rho)
    value = mixed / p.kappa  # r0, the same expression
    if not (math.isfinite(value) and math.isfinite(mixed)):
        raise NumericError(
            f"R0 = B_rho / kappa overflows the float range: "
            f"B_rho = {mixed!r}, kappa = {p.kappa!r}"
        )
    return value, mixed


def rho_from_alphas(alpha1: float, alpha2: float) -> float:
    """Equilibrium class-1 fraction alpha2 / (alpha1 + alpha2).

    Because alpha1 > alpha2 > 0 is required, the result lies in (0, 1/2).
    Raises OrderError when the rates are not strictly ordered, RangeError
    when the result rounds to 0 (alpha1 + alpha2 overflows, alpha1 is
    infinite, or the quotient underflows).
    """
    if not alpha1 > alpha2 > 0:
        raise OrderError(
            f"need alpha1 > alpha2 > 0, got alpha1={alpha1}, alpha2={alpha2}"
        )
    rho = alpha2 / (alpha1 + alpha2)
    if rho == 0.0:
        raise RangeError(
            f"rho = alpha2 / (alpha1 + alpha2) rounds to 0, got "
            f"alpha1={alpha1}, alpha2={alpha2}"
        )
    return rho


def dfe_of(model: ModelKind, p: Params) -> State:
    """The disease-free equilibrium state of the model.

    All infective compartments are zero and the susceptibles are split
    rho : (1-rho) between the classes (for MB, rho comes from the switch
    rates).  split_share makes the state sum to N exactly, so either share
    may differ from literal rho*N or (1-rho)*N by an ulp.
    """
    s1, s2 = split_share(p.N, p.rho)
    if model is ModelKind.MB:
        return StateMB(s1, s2, 0.0, 0.0, 0.0, 0.0)
    return StateMA(s1, s2, 0.0, 0.0, 0.0)


def _build_matrices(model: ModelKind, p: Params) -> tuple[Matrix, Matrix]:
    """New-infection matrix T and transition matrix Sigma.

    MA orders the infected compartments (Is, Ia); MB orders them
    (A1, A2, Is).
    """
    beta1, beta2, rho, lam = p.beta1, p.beta2, p.rho, p.lam
    gamma, kappa = p.gamma, p.kappa
    b = b_rho(beta1, beta2, rho)
    if model is ModelKind.MB:
        t1 = (1.0 - lam) * beta1 * rho
        t2 = (1.0 - lam) * beta2 * (1.0 - rho)
        t3 = lam * b
        T: Matrix = ((t1, t1, t1), (t2, t2, t2), (t3, t3, t3))
        a1, a2 = p.alpha1, p.alpha2
        Sigma: Matrix = (
            (-(a1 + gamma + kappa), a2, 0.0),
            (a1, -(a2 + gamma + kappa), 0.0),
            (gamma, gamma, -kappa),
        )
    else:
        lam_b = lam * b
        rest_b = (1.0 - lam) * b
        T = ((lam_b, lam_b), (rest_b, rest_b))
        Sigma = ((-kappa, gamma), (0.0, -(gamma + kappa)))
    return T, Sigma


def _inverse(m: Matrix) -> Matrix:
    """Adjugate inverse of a 2x2 or 3x3 matrix."""
    n = len(m)
    if n == 2:
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if det == 0:
            raise SingularMatrixError("transition matrix is singular")
        return (
            (m[1][1] / det, -m[0][1] / det),
            (-m[1][0] / det, m[0][0] / det),
        )
    (a, b, c), (d, e, f), (g, h, i) = m
    ca, cb, cc = e * i - f * h, f * g - d * i, d * h - e * g
    det = a * ca + b * cb + c * cc
    if det == 0:
        raise SingularMatrixError("transition matrix is singular")
    return (
        (ca / det, (c * h - b * i) / det, (b * f - c * e) / det),
        (cb / det, (a * i - c * g) / det, (c * d - a * f) / det),
        (cc / det, (b * g - a * h) / det, (a * e - b * d) / det),
    )


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

    K has rank one, so its spectrum is (0, ..., 0, trace(K)): the
    non-dominant eigenvalues are reported as exact zeros and the dominant
    one is the float trace of K.

    Raises SingularMatrixError if Sigma's float determinant is zero.  Its
    exact value is nonzero for validated parameters (kappa > 0), but it
    underflows when the rates on its diagonal are tiny: kappa = 1e-200
    with gamma = 0 (and, for MB, alphas as small) does it.
    """
    T, Sigma = _build_matrices(model, p)
    # K[i][j] = -sum over m of T[i][m] * inv[m][j], summed in m order.
    cols = tuple(zip(*_inverse(Sigma)))
    K: Matrix = tuple([tuple([-sum(map(mul, row, col)) for col in cols]) for row in T])
    # T's rows are constant vectors, so K = -T Sigma^{-1} is an outer
    # product of rank one and its only nonzero eigenvalue is its trace
    # (Diekmann, Heesterbeek & Roberts, J. R. Soc. Interface 7:873, 2010).
    n = len(T)
    dominant = sum([row[i] for i, row in enumerate(K)])
    return NgmResult(T, Sigma, K, (0.0,) * (n - 1) + (dominant,), dominant, n)


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
    value, mixed = checked_r0(p)
    if abs(value - 1.0) <= MARGINAL_TOL:
        verdict = StabilityVerdict.MARGINAL
    elif value < 1.0:
        verdict = StabilityVerdict.STABLE
    else:
        verdict = StabilityVerdict.UNSTABLE
    return StabilityReport(value, verdict, dfe_of(model, p), mixed)
