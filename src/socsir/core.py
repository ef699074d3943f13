"""Core domain types: parameter vector, compartment states, model tags.

Two closely related compartment models are supported.  Both split the
susceptible population into a high-contact class 1 (infection rate beta1)
and a low-contact class 2 (infection rate beta2 < beta1), and both split
infectives into symptomatic (Is) and asymptomatic carriers.

* Model "MA": class membership is fixed.  Compartments S1, S2, Is, Ia, R.
* Model "MB": susceptibles and asymptomatics switch class at rates
  alpha1 (1 -> 2) and alpha2 (2 -> 1).  Compartments S1, S2, A1, A2, Is, R.
* Model "SINGLE": MA restricted to rho = 1 (everyone in class 1, S2 = 0);
  used as the opening phase of the mixed scenario.

All types are immutable values; share them freely across threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple, Union

from .errors import MissingFieldError, NumericError, OrderError, RangeError

__all__ = [
    "ModelKind",
    "Params",
    "StateMA",
    "StateMB",
    "State",
    "validate_params",
    "total_population",
    "exact_complement",
    "split_share",
    "to_float",
    "with_rho_one",
]


class ModelKind(enum.Enum):
    MA = "ma"
    MB = "mb"
    SINGLE = "single"


class StateMA(NamedTuple):
    """Compartment vector for model MA (counts, same unit as N)."""

    S1: float
    S2: float
    Is: float
    Ia: float
    R: float

    @property
    def I(self) -> float:  # noqa: E743 - the epidemiological symbol
        """Total infectives Ia + Is (derived, never stored)."""
        return self.Ia + self.Is


class StateMB(NamedTuple):
    """Compartment vector for model MB."""

    S1: float
    S2: float
    A1: float
    A2: float
    Is: float
    R: float

    @property
    def A(self) -> float:
        """Total asymptomatics A1 + A2 (derived, never stored)."""
        return self.A1 + self.A2

    @property
    def I(self) -> float:  # noqa: E743
        """Total infectives A1 + A2 + Is (derived, never stored)."""
        return self.A1 + self.A2 + self.Is


State = Union[StateMA, StateMB]

# Admissible values of Params.transition_normalization (MB only):
#   "asymmetric": susceptible class switching is scaled by 1/N while
#                 asymptomatic class switching is not (the default).
#   "uniform":    asymptomatic switch terms are divided by N as well.
TRANSITION_NORMALIZATIONS = ("asymmetric", "uniform")


@dataclass(frozen=True)
class Params:
    """Full parameter vector.

    beta1, beta2   infection rates of class 1 / class 2 contacts
                   (per unit time; the vector fields scale them by S/N)
    lam            fraction of new infections that are symptomatic, in (0, 1]
    gamma          rate at which asymptomatics develop symptoms (>= 0)
    kappa          recovery rate, in (0, 1]
    alpha1, alpha2 class-switch rates 1->2 and 2->1 (model MB only; None
                   for MA).  MB requires alpha1 > alpha2 > 0.
    rho            fraction of susceptibles in class 1.  Free parameter for
                   MA; for MB it is derived as alpha2/(alpha1+alpha2) and the
                   alphas stay authoritative.  SINGLE pins rho = 1.
    N              total population (constant; real-valued continuum).
    transition_normalization
                   MB switch-term scaling; see TRANSITION_NORMALIZATIONS.

    Build instances through validate_params, which enforces the invariants
    (beta1 > beta2 > 0, beta1 <= 1, beta2 < 1, kappa in (0,1], ...).
    """

    beta1: float
    beta2: float
    lam: float
    gamma: float
    kappa: float
    rho: float
    N: float
    alpha1: float | None = None
    alpha2: float | None = None
    transition_normalization: str = "asymmetric"

    def as_dict(self) -> dict[str, float | str]:
        """Mapping form with the external key spelling ("lambda", not "lam")."""
        out: dict[str, float | str] = {
            "beta1": self.beta1,
            "beta2": self.beta2,
            "lambda": self.lam,
            "gamma": self.gamma,
            "kappa": self.kappa,
            "rho": self.rho,
            "N": self.N,
        }
        if self.alpha1 is not None:
            out["alpha1"] = self.alpha1
        if self.alpha2 is not None:
            out["alpha2"] = self.alpha2
        if self.transition_normalization != "asymmetric":
            out["transition_normalization"] = self.transition_normalization
        return out


def to_float(value: int | float) -> float:
    """float(value), with an int beyond the float range mapped to +-inf.

    JSON reads 1e400 as inf but 10**400 written out as an int; both then
    meet the same finiteness check instead of an OverflowError.
    """
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _require(raw: Mapping[str, object], key: str) -> float:
    if key not in raw or raw[key] is None:
        raise MissingFieldError(f"missing required parameter {key!r}")
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RangeError(f"parameter {key!r} must be a number, got {value!r}")
    value = to_float(value)
    if not math.isfinite(value):
        raise RangeError(f"parameter {key!r} must be finite, got {value!r}")
    return value


def validate_params(
    raw: Mapping[str, object] | Params,
    model: ModelKind,
    *,
    allow_beta_gt_one: bool = False,
    allow_zero_alpha2: bool = False,
) -> Params:
    """Check a raw parameter mapping against the model's invariants.

    Accepts either a mapping with external key names ("beta1", "lambda",
    "gamma", ...) or an existing Params value (revalidation is idempotent:
    a valid Params comes back equal).

    allow_beta_gt_one lifts the beta1 <= 1 / beta2 < 1 caps for free
    exploration; feasible-set classification is meaningless in that mode
    and refuses such parameters.  allow_zero_alpha2 admits alpha2 == 0
    (one-way class switching), needed by the mitigation presets; rho then
    degenerates to 0 and the MB value is only suitable for simulation.

    Raises OrderError / RangeError / MissingFieldError.
    """
    if isinstance(raw, Params):
        mapping: Mapping[str, object] = raw.as_dict()
    else:
        mapping = raw

    beta1 = _require(mapping, "beta1")
    beta2 = _require(mapping, "beta2")
    lam = _require(mapping, "lambda")
    gamma = _require(mapping, "gamma")
    kappa = _require(mapping, "kappa")
    n_total = _require(mapping, "N")

    if beta2 <= 0:
        raise RangeError(f"beta2 must be positive, got {beta2}")
    if beta1 <= beta2:
        raise OrderError(
            f"beta1 must exceed beta2 (the classes are indistinguishable "
            f"otherwise); got beta1={beta1}, beta2={beta2}"
        )
    if not allow_beta_gt_one:
        if beta1 > 1:
            raise RangeError(f"beta1 must lie in (0, 1], got {beta1}")
        if beta2 >= 1:
            raise RangeError(f"beta2 must lie in (0, 1), got {beta2}")
    if not 0 < lam <= 1:
        raise RangeError(f"lambda must lie in (0, 1], got {lam}")
    if gamma < 0:
        raise RangeError(f"gamma must be nonnegative, got {gamma}")
    if not 0 < kappa <= 1:
        raise RangeError(f"kappa must lie in (0, 1], got {kappa}")
    if n_total <= 0:
        raise RangeError(f"N must be positive, got {n_total}")

    norm = mapping.get("transition_normalization", "asymmetric")
    if norm not in TRANSITION_NORMALIZATIONS:
        raise RangeError(
            f"transition_normalization must be one of "
            f"{TRANSITION_NORMALIZATIONS}, got {norm!r}"
        )

    alpha1: float | None = None
    alpha2: float | None = None

    if model is ModelKind.MA:
        rho = _require(mapping, "rho")
        if not 0 < rho < 1:
            raise RangeError(f"rho must lie in (0, 1) for model MA, got {rho}")
    elif model is ModelKind.SINGLE:
        rho = float(mapping.get("rho", 1.0))  # type: ignore[arg-type]
        if rho != 1.0:
            raise RangeError(f"rho must equal 1 for a single-class run, got {rho}")
    elif model is ModelKind.MB:
        alpha1 = _require(mapping, "alpha1")
        alpha2 = _require(mapping, "alpha2")
        if alpha2 < 0 or (alpha2 == 0 and not allow_zero_alpha2):
            raise RangeError(f"alpha2 must be positive, got {alpha2}")
        if alpha1 <= alpha2:
            raise OrderError(
                f"alpha1 must exceed alpha2; got alpha1={alpha1}, alpha2={alpha2}"
            )
        # rho is derived, never free: the class split at equilibrium is set
        # by the switch rates alone.
        rho = alpha2 / (alpha1 + alpha2)
    else:  # pragma: no cover - enum is exhaustive
        raise RangeError(f"unknown model kind {model!r}")

    return Params(
        beta1=beta1,
        beta2=beta2,
        lam=lam,
        gamma=gamma,
        kappa=kappa,
        rho=rho,
        N=n_total,
        alpha1=alpha1,
        alpha2=alpha2,
        transition_normalization=str(norm),
    )


def total_population(state: State) -> float:
    """Sum of all compartments.

    The additions are grouped so that a class split performed with
    split_share leaves the computed total bit-identical: for MA the
    susceptible classes and then the infective classes are combined before
    anything else, and MB mirrors that grouping with (A1+A2) in place of Ia.
    """
    if isinstance(state, StateMA):
        return ((state.S1 + state.S2) + state.Ia) + state.Is + state.R
    return ((state.S1 + state.S2) + (state.A1 + state.A2)) + state.Is + state.R


def exact_complement(total: float, part: float) -> float:
    """Return c with part + c == total exactly in float arithmetic.

    c is the rounded difference total - part.  It fails only when that
    difference is a half-ulp tie, and then no float complement of part
    exists at all: raises NumericError.  split_share never fails.
    """
    c = total - part
    if part + c != total:
        raise NumericError(
            f"no float c gives {part!r} + c == {total!r}; split_share "
            f"moves the part by half an ulp instead"
        )
    return c


def split_share(total: float, share: float) -> tuple[float, float]:
    """Split total >= 0 into (part, rest) with part ~ share * total.

    part + rest == total exactly.  part is share * total unless that has
    no float complement; then (for 0 <= share <= 1) rest = total - part is
    at least total / 2, so total - rest is exact and moves part by at most
    half an ulp of total.
    """
    part = share * total
    rest = total - part
    if part + rest != total:
        part = total - rest
    return part, rest


def with_rho_one(p: Params) -> Params:
    """Internal helper: the single-class variant of p (rho pinned to 1)."""
    return replace(p, rho=1.0)
