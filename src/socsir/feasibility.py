"""Feasible-set geometry in the (beta1, beta2) plane and threshold formulas.

A pair (beta1, beta2) with beta1 > beta2 is rho-feasible when
rho*beta1 + (1-rho)*beta2 < kappa, i.e. r0 < 1.  For fixed (rho, kappa)
the feasible pairs form a convex polygon whose shape falls into one of
three types depending on the sign of kappa - rho:

* TYPE_1      (rho < kappa): the r0 = 1 line exits through beta1 = 1 at a
              positive height; hull (0,0), (k,k), (1, (k-rho)/(1-rho)), (1,0).
* TYPE_0      (rho = kappa): the line passes through the corner (1, 0);
              hull (0,0), (k,k), (1,0).
* TYPE_MINUS_1 (rho > kappa): the line hits the beta1 axis at kappa/rho < 1;
              hull (0,0), (k,k), (kappa/rho, 0).

kappa = 1 degenerates TYPE_1 to the half-square (0,0), (1,1), (1,0).
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Sequence

from .core import ModelKind, _check_grid, _finite, _layout
from .errors import RangeError
from .reproduction import b_rho

# rho and kappa are treated as coincident within this absolute tolerance;
# only then is the knife-edge TYPE_0 reported.
TYPE0_TOL = 1e-12


class SetType(enum.Enum):
    TYPE_1 = 1
    TYPE_0 = 0
    TYPE_MINUS_1 = -1


class FeasibleSetReport(NamedTuple):
    """Classification of the rho-feasible set for one (rho, kappa)."""

    type_label: SetType
    vertices: tuple[tuple[float, float], ...]
    kappa: float
    rho: float


class BifurcationScan(NamedTuple):
    """Feasible-set types along a parameter grid.

    breakpoints holds one (lo, hi) interval per label change, with
    lo == hi when a grid point sat exactly on the knife edge.
    """

    axis: str  # "rho" (scans over kappa are not produced by this module)
    grid: tuple[float, ...]
    labels: tuple[SetType, ...]
    breakpoints: tuple[tuple[float, float], ...]


def rho_feasible(beta1: float, beta2: float, rho: float, kappa: float) -> bool:
    """True iff b_rho(beta1, beta2, rho) < kappa (strict), i.e. r0 < 1."""
    return b_rho(beta1, beta2, rho) < kappa


def threshold_P(beta1: float, beta2: float, kappa: float) -> float:
    """Largest stable class-1 fraction: P = (kappa-beta2)/(beta1-beta2).

    The DFE is stable exactly for rho < P; P >= 1 means every rho in (0,1)
    is stable.  Requires 0 < beta2 < min(beta1, kappa) and beta1 <= 1;
    in particular beta2 >= kappa leaves no stable rho at all.
    """
    if not 0 < _finite("beta2", beta2) < _finite("beta1", beta1) <= 1:
        raise RangeError(
            f"need 0 < beta2 < beta1 <= 1, got beta1={beta1}, beta2={beta2}"
        )
    if not beta2 < _finite("kappa", kappa) <= 1:
        raise RangeError(
            f"need beta2 < kappa <= 1 (no stable rho otherwise), "
            f"got beta2={beta2}, kappa={kappa}"
        )
    return (kappa - beta2) / (beta1 - beta2)


def _check_rho_kappa(rho: float, kappa: float, hi: float = 1.0) -> None:
    """RangeError unless rho is a number (core._finite) in (0, hi) and kappa
    one in (0, 1]."""
    if not 0 < _finite("rho", rho) < hi:
        raise RangeError(f"rho must lie in (0, {hi:g}), got {rho}")
    if not 0 < _finite("kappa", kappa) <= 1:
        raise RangeError(f"kappa must lie in (0, 1], got {kappa}")


def threshold_B2(beta1: float, rho: float, kappa: float) -> float:
    """Largest stable beta2 given (beta1, rho, kappa).

    B2 = beta1 when beta1 <= kappa (the pair is then feasible for any
    beta2 < beta1), else (kappa - rho*beta1)/(1 - rho).  The two branches
    agree at beta1 = kappa.  Requires beta1 <= min(1, kappa/rho); beyond
    that no stable beta2 exists.
    """
    _check_rho_kappa(rho, kappa)
    if not 0 < _finite("beta1", beta1) <= min(1.0, kappa / rho):
        raise RangeError(
            f"need 0 < beta1 <= min(1, kappa/rho) = "
            f"{min(1.0, kappa / rho)}, got beta1={beta1}"
        )
    if beta1 <= kappa:
        return beta1
    return (kappa - rho * beta1) / (1.0 - rho)


def threshold_B1(beta2: float, rho: float, kappa: float) -> float:
    """Largest stable beta1 given (beta2, rho, kappa).

    B1 = min(1, (kappa - (1-rho)*beta2)/rho).  Requires beta2 < kappa
    (otherwise no beta1 is stable).
    """
    _check_rho_kappa(rho, kappa)
    if not 0 < _finite("beta2", beta2) < kappa:
        raise RangeError(
            f"need 0 < beta2 < kappa (no stable beta1 otherwise), "
            f"got beta2={beta2}, kappa={kappa}"
        )
    return min(1.0, (kappa - (1.0 - rho) * beta2) / rho)


def classify_feasible_set(
    rho: float, kappa: float, model: ModelKind = ModelKind.MA
) -> FeasibleSetReport:
    """Type and hull vertices of the rho-feasible set.

    The classification is the sign of kappa - rho for every kappa in
    (0, 1]; model only sets the admitted rho range, (0, 1) for MA and
    (0, 0.5) for MB, whose rho comes from ordered switch rates.
    Coincident vertices (kappa = 1) are merged, leaving the degenerate
    three-vertex TYPE_1 half-square.
    """
    _check_rho_kappa(rho, kappa, _layout(model).rho_max)

    if abs(rho - kappa) <= TYPE0_TOL:
        label = SetType.TYPE_0
        vertices = ((0.0, 0.0), (kappa, kappa), (1.0, 0.0))
    elif rho < kappa:
        label = SetType.TYPE_1
        exit_height = (kappa - rho) / (1.0 - rho)
        vertices = ((0.0, 0.0), (kappa, kappa), (1.0, exit_height), (1.0, 0.0))
        if kappa == 1.0:
            vertices = ((0.0, 0.0), (1.0, 1.0), (1.0, 0.0))
    else:
        label = SetType.TYPE_MINUS_1
        vertices = ((0.0, 0.0), (kappa, kappa), (kappa / rho, 0.0))
    return tuple.__new__(FeasibleSetReport, (label, vertices, kappa, rho))


def bifurcation_scan(
    model: ModelKind, kappa: float, grid: Sequence[float]
) -> BifurcationScan:
    """Classify every rho on the grid and locate the label changes.

    The grid must be strictly increasing and inside the model's rho range.
    There is at most one change, at rho = kappa; when kappa falls outside
    the range (e.g. MB with kappa >= 1/2) every label is TYPE_1 and the
    breakpoint list is empty.
    """
    _layout(model)
    grid = _check_grid(grid)

    labels = tuple(
        classify_feasible_set(r, kappa, model).type_label for r in grid
    )

    breakpoints: list[tuple[float, float]] = []
    for i in range(len(grid) - 1):
        here, there = labels[i], labels[i + 1]
        # A change into TYPE_0 is the exact point (lo == hi); the change
        # out of it is not reported again.
        if here is not there and here is not SetType.TYPE_0:
            lo = grid[i + 1] if there is SetType.TYPE_0 else grid[i]
            breakpoints.append((lo, grid[i + 1]))

    return BifurcationScan(
        axis="rho",
        grid=grid,
        labels=labels,
        breakpoints=tuple(breakpoints),
    )
