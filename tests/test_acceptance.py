"""Acceptance gate: one test per release criterion.

Each test is self-contained and prints one pass/fail line under
``pytest -v``.  Tolerances and runtime budgets are part of the contract;
scenario constants are frozen copies of the worked figures elsewhere in
the suite.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from socsir.config import dumps_config, load_config, loads_config
from socsir.core import ModelKind, StateMA, total_population, validate_params
from socsir.feasibility import SetType, bifurcation_scan, classify_feasible_set
from socsir.integrator import observables_for, peak_of, simulate
from socsir.reproduction import ngm, r0
from socsir.output import render_svg, write_csv
from socsir.scenarios import (
    INIT_RULE_DFE_PLUS_ONE,
    MixedSpec,
    ScenarioConfig,
    covid_mitigation_presets,
    participation_scan,
    resolve_init,
    run_mixed,
    run_scenario,
)
from socsir.sensitivity import finite_diff_check, ordering_case, sensitivity_indices
from tests._samplers import draw_raw_params

import pathlib

DATA = pathlib.Path(__file__).parent / "data"

FIG_A_RAW = {
    "beta1": 0.0042,
    "beta2": 0.0009,
    "lambda": 0.65,
    "gamma": 0.005,
    "kappa": 0.00006,
    "rho": 0.75,
    "N": 100.0,
}
FIG_A_INIT = StateMA(S1=74.25, S2=24.75, Is=1.0, Ia=0.0, R=0.0)

MIXED_RAW = {
    "beta1": 0.0011,
    "beta2": 0.0001,
    "lambda": 0.65,
    "gamma": 0.0001,
    "kappa": 0.0002,
    "alpha1": 0.001,
    "alpha2": 0.0001,
    "N": 100.0,
}


def test_criterion_1_ngm_matches_closed_form():
    """Dominant eigenvalue of K equals B_rho/kappa to 1e-10 relative,
    1000 random parameter sets per model, under one second."""
    rng = random.Random(12345)
    t_start = time.perf_counter()
    worst = 0.0
    for model in (ModelKind.MA, ModelKind.MB):
        for _ in range(1000):
            p = validate_params(draw_raw_params(rng, model), model)
            closed = r0(p.beta1, p.beta2, p.rho, p.kappa)
            dominant = ngm(model, p).dominant
            worst = max(worst, abs(dominant - closed) / closed)
    elapsed = time.perf_counter() - t_start
    assert worst <= 1e-10, f"worst relative deviation {worst}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_sensitivity_gradient_check():
    """Closed-form indices match central finite differences of R0 at
    h=1e-6 to 1e-6 relative, 1000 random parameter sets, under a second."""
    rng = random.Random(23456)
    t_start = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        model = ModelKind.MA if i % 2 == 0 else ModelKind.MB
        p = validate_params(draw_raw_params(rng, model), model)
        worst = max(worst, finite_diff_check(model, p, 1e-6))
    elapsed = time.perf_counter() - t_start
    assert worst <= 1e-6, f"worst relative error {worst}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_3_ordering_theorems():
    """ordering_case agrees with the direct sort of the indices on 10,000
    non-boundary draws, covers every case, and respects the beta-ratio
    exclusions for the five-index chains."""
    rng = random.Random(31415)
    seen = {ModelKind.MA: set(), ModelKind.MB: set()}
    for i in range(10000):
        model = ModelKind.MA if i % 2 == 0 else ModelKind.MB
        p = validate_params(draw_raw_params(rng, model), model)
        case = ordering_case(model, p)
        if case.label == "BOUNDARY":
            continue
        seen[model].add(case.label)
        si = sensitivity_indices(model, p)
        values = {
            "rho": si.upsilon_rho,
            "beta1": si.upsilon_beta1,
            "beta2": si.upsilon_beta2,
        }
        if model is ModelKind.MB:
            values["alpha1"] = si.upsilon_alpha1
            values["alpha2"] = si.upsilon_alpha2
        expected = tuple(sorted(values, key=values.__getitem__))
        assert case.chain == expected, (model, p, case.label)
        if model is ModelKind.MB:
            if p.beta2 >= p.beta1 / 3:
                assert case.label != "D"
            if p.beta2 >= p.beta1 / 2:
                assert case.label != "C"
        else:
            assert case.label != "D"
    assert seen[ModelKind.MA] == {"A", "B", "C"}
    assert seen[ModelKind.MB] == {"A", "B", "C", "D"}


def _hull_margin(verts, B1, B2):
    """Signed distance of every grid point to a convex polygon (+ inside)."""
    v = np.asarray(verts, dtype=float)
    n = len(v)
    area2 = sum(
        v[i][0] * v[(i + 1) % n][1] - v[(i + 1) % n][0] * v[i][1] for i in range(n)
    )
    sign = 1.0 if area2 > 0 else -1.0
    margins = []
    for i in range(n):
        x1, y1 = v[i]
        x2, y2 = v[(i + 1) % n]
        ex, ey = x2 - x1, y2 - y1
        length = np.hypot(ex, ey)
        if length == 0.0:
            continue
        margins.append(-sign * ((B1 - x1) * ey - (B2 - y1) * ex) / length)
    return np.minimum.reduce(margins)


def test_criterion_4_feasibility_oracle():
    """classify_feasible_set agrees with a brute-force 500x500 inequality
    grid on 100 (rho, kappa) pairs; the scan brackets the knife edge within
    one grid cell; MB with kappa >= 1/2 has no breakpoint."""
    m = 500
    cell = 1.0 / m
    centers = (np.arange(m) + 0.5) * cell
    B1, B2 = np.meshgrid(centers, centers, indexing="ij")

    fixed = [(0.3, 0.3), (0.7, 0.7), (0.25, 0.6), (0.6, 0.25)]
    rng = random.Random(27182)
    for k in range(100):
        if k < len(fixed):
            rho, kappa = fixed[k]
            model = ModelKind.MA
        else:
            model = ModelKind.MA if k % 2 == 0 else ModelKind.MB
            hi = 0.98 if model is ModelKind.MA else 0.48
            rho = rng.uniform(0.02, hi)
            kappa = (
                rng.uniform(0.05, 0.45) if k % 4 < 2 else rng.uniform(0.55, 0.95)
            )
        report = classify_feasible_set(rho, kappa, model)
        feasible = (B2 < B1) & (rho * B1 + (1.0 - rho) * B2 < kappa)
        margin = _hull_margin(report.vertices, B1, B2)
        # compare everywhere except a one-cell band around the hull edges,
        # where open/closed conventions differ legitimately
        inside = margin > 1.5 * cell
        outside = margin < -1.5 * cell
        assert not np.any(inside & ~feasible), (rho, kappa, report.type_label)
        assert not np.any(outside & feasible), (rho, kappa, report.type_label)

    # breakpoint within one grid cell of rho = kappa
    kappa = 0.437
    grid = [i / 200 for i in range(1, 200)]
    scan = bifurcation_scan(ModelKind.MA, kappa, grid)
    assert len(scan.breakpoints) == 1
    lo, hi = scan.breakpoints[0]
    assert lo <= kappa <= hi
    assert hi - lo <= 1 / 200 + 1e-12

    # the switching model's admissible splits stay below 1/2
    mb_grid = [i / 100 for i in range(1, 50)]
    for kappa in (0.5, 0.6, 0.9):
        mb_scan = bifurcation_scan(ModelKind.MB, kappa, mb_grid)
        assert mb_scan.breakpoints == ()
        assert all(label is SetType.TYPE_1 for label in mb_scan.labels)


def test_criterion_5_conservation_and_order():
    """Population is conserved to 1e-9 N on every run; halving the step
    shrinks the error by the fourth-order factor (ratio in [8, 32])."""
    p = validate_params(FIG_A_RAW, ModelKind.MA)

    runs = {}
    for dt, record_every in ((4.0, 1), (2.0, 2), (1.0, 4)):
        traj = simulate(ModelKind.MA, p, FIG_A_INIT, 0.0, 2000.0, dt, record_every)
        n0 = total_population(traj.states[0])
        drift = max(abs(total_population(s) - n0) for s in traj.states)
        assert drift <= 1e-9 * n0
        runs[dt] = traj

    assert runs[4.0].times == runs[2.0].times == runs[1.0].times

    def dist(a, b):
        return max(
            max(abs(x - y) for x, y in zip(sa, sb))
            for sa, sb in zip(a.states, b.states)
        )

    d_coarse = dist(runs[4.0], runs[2.0])
    d_fine = dist(runs[2.0], runs[1.0])
    ratio = d_coarse / d_fine
    assert 8.0 <= ratio <= 32.0, f"step-halving ratio {ratio:.2f}"


def test_criterion_6_stability_corroboration():
    """R0 = 0.5 decays monotonically to below 1e-3 of the seed; the
    R0 = 56.25 figure scenario peaks in the interior and ends with more
    than 90% of the population recovered."""
    sub = validate_params(
        {
            "beta1": 0.0005,
            "beta2": 0.0001,
            "lambda": 0.65,
            "gamma": 0.005,
            "kappa": 0.0006,
            "rho": 0.5,
            "N": 100.0,
        },
        ModelKind.MA,
    )
    assert r0(sub.beta1, sub.beta2, sub.rho, sub.kappa) == pytest.approx(0.5)
    init = resolve_init(ModelKind.MA, sub, INIT_RULE_DFE_PLUS_ONE)
    traj = simulate(ModelKind.MA, sub, init, 0.0, 30000.0, 2.0)
    series = [s.I for s in traj.states]
    assert all(b <= a + 1e-12 for a, b in zip(series, series[1:]))
    assert series[-1] < 1e-3  # the seed was one individual

    sup = validate_params(FIG_A_RAW, ModelKind.MA)
    assert r0(sup.beta1, sup.beta2, sup.rho, sup.kappa) == pytest.approx(56.25)
    traj_sup = simulate(ModelKind.MA, sup, FIG_A_INIT, 0.0, 60000.0, 2.0)
    t_peak, v_peak = peak_of(traj_sup, observables_for(ModelKind.MA)["I"])
    assert traj_sup.times[0] < t_peak < traj_sup.times[-1]
    assert v_peak > traj_sup.states[0].I
    assert traj_sup.states[-1].R > 0.9 * sup.N


def test_criterion_7_mixed_model():
    """The class split at the switch preserves every aggregate exactly;
    a more compliant split softens the peak; an earlier switch lowers the
    cumulative infection count."""
    p = validate_params(MIXED_RAW, ModelKind.MB)
    init = StateMA(S1=99.0, S2=0.0, Is=1.0, Ia=0.0, R=0.0)

    def cfg(t_switch, rho_split):
        return ScenarioConfig(
            model=ModelKind.SINGLE,
            params=p,
            init_state=init,
            t0=0.0,
            t1=40000.0,
            dt=2.0,
            mixed=MixedSpec(t_switch=t_switch, rho_split=rho_split),
        )

    res_low = run_mixed(cfg(1000.0, 0.25))
    rec = res_low.trajectory.switch_record
    assert rec.post_state.S1 + rec.post_state.S2 == rec.pre_state.S1 + rec.pre_state.S2
    assert rec.post_state.A1 + rec.post_state.A2 == rec.pre_state.A1 + rec.pre_state.A2
    assert rec.post_state.Is == rec.pre_state.Is
    assert rec.post_state.R == rec.pre_state.R

    res_high = run_mixed(cfg(1000.0, 0.75))

    def post_switch_peak(res):
        traj = res.trajectory
        return max(
            s.I for t, s in zip(traj.times, traj.states) if t >= 1000.0
        )

    assert post_switch_peak(res_low) < post_switch_peak(res_high)

    res_late = run_mixed(cfg(5000.0, 0.25))
    assert res_low.summary.final_R < res_late.summary.final_R


def test_criterion_8_case_study_participation():
    """Minimal compliant fractions against a capacity of 80: around 0.6
    for masks and around 0.2 for the other two mitigations."""
    bands = {
        "masks": (0.45, 0.75),
        "common_areas": (0.05, 0.35),
        "distancing": (0.05, 0.35),
    }
    grid = [i / 100 for i in range(1, 100)]
    for preset in covid_mitigation_presets():
        result = participation_scan(preset, 80.0, grid)
        lo, hi = bands[preset.name]
        assert result.minimal_compliant is not None, preset.name
        assert lo <= result.minimal_compliant <= hi, (
            preset.name,
            result.minimal_compliant,
        )


def test_criterion_9_determinism_and_round_trip():
    """Repeated runs produce byte-identical CSV/SVG; configs survive the
    dump/parse cycle unchanged."""
    for name in ("ma_basic.json", "mb_switching.json", "mixed_switch.json"):
        cfg = load_config(str(DATA / name))
        first = run_scenario(cfg)
        second = run_scenario(cfg)
        assert write_csv(first.trajectory) == write_csv(second.trajectory)
        observables = cfg.outputs or ("I", "R")
        assert render_svg(first.trajectory, observables) == render_svg(
            second.trajectory, observables
        )
        assert loads_config(dumps_config(cfg)) == cfg
        assert dumps_config(loads_config(dumps_config(cfg))) == dumps_config(cfg)
