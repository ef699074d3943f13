"""Feasible-set geometry: thresholds, hull classification, scans."""

from __future__ import annotations

import pytest

from socsir.core import ModelKind
from socsir.errors import RangeError
from socsir.feasibility import (
    SetType,
    bifurcation_scan,
    classify_feasible_set,
    rho_feasible,
    threshold_B1,
    threshold_B2,
    threshold_P,
)


def test_threshold_formulas_frozen():
    # P: largest stable class-1 fraction; B2/B1: largest stable partner rate
    assert threshold_P(0.8, 0.2, 0.5) == pytest.approx(0.5, rel=1e-15)
    assert threshold_B2(0.8, 0.25, 0.5) == pytest.approx(0.4, rel=1e-15)
    assert threshold_B1(0.1, 0.5, 0.2) == pytest.approx(0.3, rel=1e-15)


def test_thresholds_sit_on_the_critical_line():
    # plugging a threshold back in lands exactly on r0 = 1
    b1, b2, kappa = 0.8, 0.2, 0.5
    rho = threshold_P(b1, b2, kappa)
    assert rho * b1 + (1 - rho) * b2 == pytest.approx(kappa, rel=1e-15)
    rho2, kappa2 = 0.25, 0.5
    cut = threshold_B2(0.8, rho2, kappa2)
    assert rho2 * 0.8 + (1 - rho2) * cut == pytest.approx(kappa2, rel=1e-15)


@pytest.mark.parametrize(
    "threshold, args, match",
    [
        (threshold_P, (0.2, 0.8, 0.5), "beta2 < beta1"),
        (threshold_P, (0.8, 0.2, 0.1), "no stable rho"),
        (threshold_B2, (0.8, 1.0, 0.5), "rho must lie"),
        (threshold_B2, (0.8, 0.25, 1.5), "kappa must lie"),
        (threshold_B2, (0.8, 0.25, 0.1), "kappa/rho"),
        (threshold_B1, (0.1, 0.0, 0.2), "rho must lie"),
        (threshold_B1, (0.1, 0.5, 0.0), "kappa must lie"),
        (threshold_B1, (0.3, 0.5, 0.2), "no stable beta1"),
    ],
)
def test_thresholds_reject_inputs_outside_their_domain(threshold, args, match):
    with pytest.raises(RangeError, match=match):
        threshold(*args)


def test_threshold_B2_is_beta1_when_beta1_is_stable_alone():
    # beta1 <= kappa: every beta2 < beta1 is feasible, so the bound is beta1
    assert threshold_B2(0.3, 0.25, 0.5) == 0.3
    assert threshold_B2(0.5, 0.25, 0.5) == 0.5


def test_rho_feasible_strictness():
    assert rho_feasible(0.3, 0.1, 0.5, 0.5)
    assert not rho_feasible(0.3, 0.1, 0.5, 0.2)  # B_rho = 0.2 is not < 0.2


def test_classify_type_1():
    rep = classify_feasible_set(0.25, 0.5, ModelKind.MA)
    assert rep.type_label is SetType.TYPE_1
    assert rep.vertices == (
        (0.0, 0.0),
        (0.5, 0.5),
        (1.0, pytest.approx(1 / 3, rel=1e-15)),
        (1.0, 0.0),
    )


def test_classify_type_0_knife_edge():
    rep = classify_feasible_set(0.3, 0.3, ModelKind.MA)
    assert rep.type_label is SetType.TYPE_0
    assert rep.vertices == ((0.0, 0.0), (0.3, 0.3), (1.0, 0.0))


def test_classify_type_minus_1():
    rep = classify_feasible_set(0.6, 0.25, ModelKind.MA)
    assert rep.type_label is SetType.TYPE_MINUS_1
    assert rep.vertices[0] == (0.0, 0.0)
    assert rep.vertices[1] == (0.25, 0.25)
    assert rep.vertices[2][0] == pytest.approx(0.25 / 0.6, rel=1e-15)
    assert rep.vertices[2][1] == 0.0


def test_classify_kappa_one_degenerates():
    rep = classify_feasible_set(0.5, 1.0, ModelKind.MA)
    assert rep.type_label is SetType.TYPE_1
    assert rep.vertices == ((0.0, 0.0), (1.0, 1.0), (1.0, 0.0))


def test_classify_mb_restricts_rho():
    # the behavioural model pins rho below one half
    ok = classify_feasible_set(0.3, 0.6, ModelKind.MB)
    assert ok.type_label is SetType.TYPE_1
    with pytest.raises(RangeError):
        classify_feasible_set(0.55, 0.6, ModelKind.MB)


def test_classify_rejects_bad_inputs():
    with pytest.raises(RangeError):
        classify_feasible_set(0.0, 0.5, ModelKind.MA)
    with pytest.raises(RangeError):
        classify_feasible_set(0.5, 1.5, ModelKind.MA)
    with pytest.raises(RangeError):
        classify_feasible_set(0.5, 0.0, ModelKind.MA)


def test_vertices_are_feasible_closure():
    # every hull vertex satisfies B_rho <= kappa and beta2 <= beta1
    for rho, kappa in [(0.25, 0.5), (0.3, 0.3), (0.6, 0.25), (0.9, 0.05)]:
        rep = classify_feasible_set(rho, kappa, ModelKind.MA)
        for b1, b2 in rep.vertices:
            assert b2 <= b1 + 1e-15
            assert rho * b1 + (1 - rho) * b2 <= kappa + 1e-12


def test_bifurcation_scan_straddle():
    scan = bifurcation_scan(ModelKind.MB, 0.3, [0.1, 0.25, 0.35, 0.45])
    assert scan._fields == ("grid", "labels", "breakpoints")
    assert [l.name for l in scan.labels] == [
        "TYPE_1",
        "TYPE_1",
        "TYPE_MINUS_1",
        "TYPE_MINUS_1",
    ]
    assert scan.breakpoints == ((0.25, 0.35),)


def test_bifurcation_scan_exact_hit_collapses():
    scan = bifurcation_scan(ModelKind.MB, 0.3, [0.1, 0.2, 0.3, 0.4])
    assert [l.name for l in scan.labels] == [
        "TYPE_1",
        "TYPE_1",
        "TYPE_0",
        "TYPE_MINUS_1",
    ]
    assert scan.breakpoints == ((0.3, 0.3),)


def test_bifurcation_scan_mb_large_kappa_has_no_breakpoint():
    # rho < 1/2 <= kappa keeps the whole scan in the same class
    scan = bifurcation_scan(ModelKind.MB, 0.6, [i / 20 for i in range(1, 10)])
    assert all(l is SetType.TYPE_1 for l in scan.labels)
    assert scan.breakpoints == ()


def test_bifurcation_scan_ma_brackets_kappa():
    grid = [i / 10 for i in range(1, 10)]
    scan = bifurcation_scan(ModelKind.MA, 0.55, grid)
    assert scan.breakpoints == ((0.5, 0.6),)
    lo, hi = scan.breakpoints[0]
    assert lo <= 0.55 <= hi


def test_bifurcation_scan_validations():
    with pytest.raises(RangeError):
        bifurcation_scan(ModelKind.MB, 0.3, [0.1, 0.55])  # rho out of range
    with pytest.raises(RangeError):
        bifurcation_scan(ModelKind.MA, 0.3, [0.5, 0.2])  # not increasing
    with pytest.raises(RangeError, match="nonempty"):
        bifurcation_scan(ModelKind.MA, 0.3, [])


def test_bifurcation_scan_single_point_is_trivial():
    scan = bifurcation_scan(ModelKind.MA, 0.3, [0.5])
    assert scan.labels == (SetType.TYPE_MINUS_1,)
    assert scan.breakpoints == ()
