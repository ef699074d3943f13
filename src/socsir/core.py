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

_LAYOUT is the one place a model's layout is decided: its state type,
population total, observables in CSV order and rho's upper bound.  Every
function that takes a model looks it up there through _layout, which
raises RangeError for anything that is not a ModelKind (validate_params
raises it from its own branches).  Only the physics (parameter rules,
vector fields, next-generation matrices, sensitivity forms) tests the
model itself.

All types are immutable values; share them freely across threads.
"""

from __future__ import annotations

import enum
import math
from operator import itemgetter
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence, Union

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

    # Members compare by identity, so identity hashes them too, in C;
    # Enum's own __hash__ is Python code, and _layout hashes a member on
    # every analysis call.
    __hash__ = object.__hash__


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


class Params(NamedTuple):
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


def _switch_rates(p: Params) -> tuple[float, float]:
    """MB's asymptomatic switch rates 1 -> 2 and 2 -> 1: the alphas, or
    under "uniform" the alphas over N.  Field, kernel and ngm read them."""
    if p.transition_normalization == "uniform":
        return p.alpha1 / p.N, p.alpha2 / p.N
    return p.alpha1, p.alpha2


def to_float(value: int | float) -> float:
    """float(value), with an int beyond the float range mapped to +-inf.

    JSON reads 1e400 as inf but 10**400 written out as an int; both then
    meet the same finiteness check instead of an OverflowError.
    """
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _number(key: str, value: object) -> float:
    """value as a finite float, or RangeError naming the parameter."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise RangeError(f"parameter {key!r} must be a number, got {value!r}")
        value = to_float(value)
    if not math.isfinite(value):
        raise RangeError(f"parameter {key!r} must be finite, got {value!r}")
    return value


def _require(raw: Mapping[str, object], key: str) -> float:
    value = raw.get(key)
    # A finite float, the common case, needs no further check.
    if type(value) is float and math.isfinite(value):
        return value
    if value is None:
        raise MissingFieldError(f"missing required parameter {key!r}")
    return _number(key, value)


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

    Raises OrderError / RangeError / MissingFieldError, and RangeError
    for anything that is neither a mapping nor a Params.
    """
    if type(raw) is dict:
        mapping: Mapping[str, object] = raw
    elif isinstance(raw, Params):
        mapping = raw.as_dict()
    elif isinstance(raw, Mapping):
        mapping = raw
    else:
        raise RangeError(
            f"parameters must be a mapping or Params, got {type(raw).__name__}"
        )

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
    # beta2 < beta1 <= 1 keeps beta2 below 1 as well.
    if beta1 > 1 and not allow_beta_gt_one:
        raise RangeError(f"beta1 must lie in (0, 1], got {beta1}")
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
        rho = _number("rho", mapping["rho"]) if "rho" in mapping else 1.0
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
        # by the switch rates alone.  An overflowing sum or an underflowing
        # quotient rounds it to 0.0, outside (0, 1/2).
        rho = alpha2 / (alpha1 + alpha2)
        if rho == 0.0 and alpha2 > 0:
            raise RangeError(
                f"rho = alpha2 / (alpha1 + alpha2) rounds to 0, got "
                f"alpha1={alpha1}, alpha2={alpha2}"
            )
    else:
        raise RangeError(f"model must be a ModelKind, got {model!r}")

    # A NamedTuple's generated __new__ is Python code; tuple.__new__ fills
    # the fields in C.  It takes every field in order and fills no defaults,
    # so the analysis path builds its results this way too.
    return tuple.__new__(Params, (
        beta1, beta2, lam, gamma, kappa, rho, n_total, alpha1, alpha2, str(norm)
    ))


# The population total on positional components, for named states and raw
# tuples alike.  Combining each pair of classes first keeps the total of a
# split_share split bit-identical.
def total5(s: Sequence[float]) -> float:
    return ((s[0] + s[1]) + s[3]) + s[2] + s[4]


def total6(s: Sequence[float]) -> float:
    return ((s[0] + s[1]) + (s[2] + s[3])) + s[4] + s[5]


class _Layout(NamedTuple):
    state: type  # its _fields name the components; their count is the size
    total: Callable[[Sequence[float]], float]
    observables: tuple[str, ...]  # CSV order after t; N is the total
    rho_max: float  # rho's open upper bound


# MA's observables list Ia before Is, unlike StateMA.  MB's rho =
# alpha2/(alpha1+alpha2) stays below 1/2 because alpha1 > alpha2.
_MA = _Layout(StateMA, total5, ("S1", "S2", "Ia", "Is", "R", "I", "N"), 1.0)
_MB = _Layout(StateMB, total6, ("S1", "S2", "A1", "A2", "Is", "R", "I", "N"), 0.5)
_LAYOUT = {ModelKind.MA: _MA, ModelKind.SINGLE: _MA, ModelKind.MB: _MB}


def _layout(model: ModelKind) -> _Layout:
    """The model's layout; RangeError for anything not a ModelKind."""
    try:
        return _LAYOUT[model]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        raise RangeError(f"model must be a ModelKind, got {model!r}") from None


def _column(
    model: ModelKind, records: Sequence[Sequence[float]], name: str
) -> Iterator[float]:
    """An iterator over the observable name (one of the layout's
    observables) of each record, read from its components by position.
    I and N are summed as StateMA.I, StateMB.I, total5 and total6 group
    them, so the values are the observables' bits.  Run summaries and the
    SVG writer read them without holding a list of a whole run."""
    fields = _layout(model).state._fields
    if name in fields:
        return map(itemgetter(fields.index(name)), records)
    if len(fields) == 5:
        if name == "I":
            return (ia + i_s for _, _, i_s, ia, _ in records)
        return (((s1 + s2) + ia) + i_s + r for s1, s2, i_s, ia, r in records)
    if name == "I":
        return ((a1 + a2) + i_s for _, _, a1, a2, i_s, _ in records)
    return (((s1 + s2) + (a1 + a2)) + i_s + r for s1, s2, a1, a2, i_s, r in records)


def total_population(state: State | Sequence[float]) -> float:
    """Sum of all compartments, grouped as total5 or total6 by length.

    Raises RangeError for a state of any other length.
    """
    n = len(state)
    if n == 6:
        return total6(state)
    if n == 5:
        return total5(state)
    raise RangeError(f"a state has 5 or 6 components, got {n}")


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
    return p._replace(rho=1.0)
