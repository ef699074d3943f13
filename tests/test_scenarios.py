"""Composite scenarios: symbolic inits, the single-to-two-class switch,
mitigation presets, and the participation scan."""

from __future__ import annotations

import math

import pytest

from socsir.core import (
    ModelKind,
    StateMA,
    StateMB,
    split_share,
    total_population,
    validate_params,
    with_rho_one,
)
from socsir.errors import RangeError, ValidationError
from socsir.integrator import (
    SwitchRecord,
    Trajectory,
    observables_for,
    peak_of,
    simulate,
)
from socsir.scenarios import (
    INIT_RULE_DFE_PLUS_ONE,
    SCAN_DT,
    SCAN_T1,
    MixedSpec,
    ScenarioConfig,
    covid_mitigation_presets,
    participation_scan,
    preset_params,
    resolve_init,
    run_mixed,
    run_scenario,
)

MB_RAW = {
    "beta1": 0.0011,
    "beta2": 0.0001,
    "lambda": 0.65,
    "gamma": 0.0001,
    "kappa": 0.0002,
    "alpha1": 0.001,
    "alpha2": 0.0001,
    "N": 100.0,
}


def _mixed_cfg(t_switch=1000.0, rho_split=0.25, t1=3000.0, record_every=1):
    p = validate_params(MB_RAW, ModelKind.MB)
    init = StateMA(S1=99.0, S2=0.0, Is=1.0, Ia=0.0, R=0.0)
    return ScenarioConfig(
        model=ModelKind.SINGLE,
        params=p,
        init_state=init,
        t0=0.0,
        t1=t1,
        dt=2.0,
        record_every=record_every,
        mixed=MixedSpec(t_switch=t_switch, rho_split=rho_split),
    )


# --- symbolic initial conditions ---------------------------------------------


def test_resolve_init_ma():
    p = validate_params(
        {
            "beta1": 0.0042,
            "beta2": 0.0009,
            "lambda": 0.65,
            "gamma": 0.005,
            "kappa": 0.0006,
            "rho": 0.75,
            "N": 100.0,
        },
        ModelKind.MA,
    )
    s = resolve_init(ModelKind.MA, p, INIT_RULE_DFE_PLUS_ONE)
    assert s == StateMA(S1=74.25, S2=24.75, Is=1.0, Ia=0.0, R=0.0)
    assert total_population(s) == 100.0


def test_resolve_init_mb():
    p = validate_params(MB_RAW, ModelKind.MB)
    s = resolve_init(ModelKind.MB, p, INIT_RULE_DFE_PLUS_ONE)
    assert isinstance(s, StateMB)
    assert s.Is == 1.0 and s.A1 == s.A2 == 0.0
    assert s.S1 + s.S2 == 99.0
    assert total_population(s) == 100.0


def test_resolve_init_rejects_unknown_rule():
    p = validate_params(MB_RAW, ModelKind.MB)
    with pytest.raises(RangeError):
        resolve_init(ModelKind.MB, p, "everyone_infected")


def test_resolve_init_needs_room_for_the_seeded_infective():
    p = validate_params(dict(MB_RAW, N=0.5), ModelKind.MB)
    with pytest.raises(RangeError, match="N must be at least 1"):
        resolve_init(ModelKind.MB, p, INIT_RULE_DFE_PLUS_ONE)
    one = validate_params(dict(MB_RAW, N=1.0), ModelKind.MB)
    assert resolve_init(ModelKind.MB, one, INIT_RULE_DFE_PLUS_ONE).Is == 1.0


# --- plain scenario runs -----------------------------------------------------


def test_run_scenario_summary_consistency():
    p = validate_params(
        {
            "beta1": 0.0042,
            "beta2": 0.0009,
            "lambda": 0.65,
            "gamma": 0.005,
            "kappa": 0.00006,
            "rho": 0.75,
            "N": 100.0,
        },
        ModelKind.MA,
    )
    cfg = ScenarioConfig(
        model=ModelKind.MA,
        params=p,
        init_state=StateMA(S1=74.25, S2=24.75, Is=1.0, Ia=0.0, R=0.0),
        t0=0.0,
        t1=2000.0,
        dt=2.0,
    )
    res = run_scenario(cfg)
    assert res.summary.r0 == pytest.approx(56.25, rel=1e-12)
    obs = observables_for(ModelKind.MA)
    assert res.summary.peak_I == peak_of(res.trajectory, obs["I"])
    assert res.summary.final_R == res.trajectory.states[-1].R


# --- the single-to-two-class switch ------------------------------------------


def test_mixed_switch_is_exact():
    res = run_mixed(_mixed_cfg())
    traj = res.trajectory
    rec = traj.switch_record
    assert traj.model is ModelKind.MB
    assert rec is not None and rec.t_switch == 1000.0

    pre, post = rec.pre_state, rec.post_state
    # aggregate continuity, bit for bit
    assert post.S1 + post.S2 == pre.S1 + pre.S2
    assert post.A1 + post.A2 == pre.A1 + pre.A2
    assert post.Is == pre.Is
    assert post.R == pre.R
    # the split itself is a single multiplication plus an exact complement
    assert post.S1 == 0.25 * (pre.S1 + pre.S2)
    assert post.A1 == 0.25 * (pre.A1 + pre.A2)
    assert total_population(post) == total_population(pre)


def test_mixed_trajectory_shape():
    res = run_mixed(_mixed_cfg())
    traj = res.trajectory
    assert all(b > a for a, b in zip(traj.times, traj.times[1:]))
    assert traj.times.count(1000.0) == 1
    at_switch = traj.states[traj.times.index(1000.0)]
    assert at_switch == traj.switch_record.post_state
    # opening phase is single-class in two-class coordinates
    for t, s in zip(traj.times, traj.states):
        if t >= 1000.0:
            break
        assert s.S2 == 0.0 and s.A2 == 0.0


def _mixed_by_two_simulations(cfg):
    """run_mixed's trajectory built from two simulate runs: the opening
    phase embedded in two-class coordinates, then joined to the second
    phase at the switch."""
    spec, p = cfg.mixed, cfg.params

    def embed(s):
        return StateMB(s.S1, s.S2, s.Ia, 0.0, s.Is, s.R)

    single = simulate(
        ModelKind.SINGLE, with_rho_one(p), cfg.init_state,
        cfg.t0, spec.t_switch, cfg.dt, cfg.record_every,
    )
    pre = single.states[-1]
    s1, s2 = split_share(pre.S1 + pre.S2, spec.rho_split)
    a1, a2 = split_share(pre.Ia, spec.rho_split)
    post = StateMB(s1, s2, a1, a2, pre.Is, pre.R)
    second = simulate(
        ModelKind.MB, p, post, spec.t_switch, cfg.t1, cfg.dt, cfg.record_every
    )
    return Trajectory(
        model=ModelKind.MB,
        times=single.times[:-1] + second.times,
        states=tuple(map(embed, single.states[:-1])) + second.states,
        params_used=p,
        dt=cfg.dt,
        switch_record=SwitchRecord(spec.t_switch, embed(pre), post),
    )


@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("t_switch", [120.0, 121.5], ids=["on-grid", "off-grid"])
def test_mixed_equals_two_simulations(t_switch, record_every):
    cfg = _mixed_cfg(t_switch=t_switch, t1=400.0, record_every=record_every)
    traj = run_mixed(cfg).trajectory
    want = _mixed_by_two_simulations(cfg)
    assert traj.switch_record.pre_state.A1 > 0  # the asymptomatics split
    assert traj == want
    assert repr(traj) == repr(want)  # float reprs round-trip: same bits


def test_mixed_validations():
    with pytest.raises(RangeError):
        run_mixed(_mixed_cfg(t_switch=3000.0))  # not inside (t0, t1)
    with pytest.raises(RangeError):
        run_mixed(_mixed_cfg(rho_split=1.0))
    cfg = _mixed_cfg()
    with pytest.raises(ValidationError):
        run_mixed(
            ScenarioConfig(
                model=cfg.model,
                params=cfg.params,
                init_state=StateMA(S1=74.0, S2=25.0, Is=1.0, Ia=0.0, R=0.0),
                t0=0.0,
                t1=3000.0,
                mixed=MixedSpec(t_switch=1000.0, rho_split=0.25),
            )
        )
    plain = ScenarioConfig(
        model=cfg.model,
        params=cfg.params,
        init_state=cfg.init_state,
        t0=0.0,
        t1=3000.0,
    )
    with pytest.raises(ValidationError):
        run_mixed(plain)
    # bad times are rejected before the first phase, and the error names the
    # configured window, not the phase that hit it
    for changes in (
        {"t1": math.inf, "mixed": MixedSpec(t_switch=200000.0, rho_split=0.25)},
        {"dt": math.nan},
        {"t1": 1e9, "mixed": MixedSpec(t_switch=200000.0, rho_split=0.25)},
    ):
        bad = cfg._replace(**changes)
        with pytest.raises(RangeError, match=f"t0=0.0, t1={bad.t1}, dt={bad.dt}"):
            run_mixed(bad)


def test_run_scenario_delegates_mixed():
    cfg = _mixed_cfg()
    assert run_scenario(cfg) == run_mixed(cfg)


# --- mitigation presets ------------------------------------------------------


def test_preset_table():
    presets = covid_mitigation_presets()
    assert [p.name for p in presets] == ["masks", "common_areas", "distancing"]
    by_name = {p.name: p for p in presets}
    assert (by_name["masks"].beta1, by_name["masks"].beta2) == (0.00808, 0.00558)
    assert (by_name["common_areas"].beta1, by_name["common_areas"].beta2) == (
        0.00675,
        0.00538,
    )
    assert (by_name["distancing"].beta1, by_name["distancing"].beta2) == (
        0.00700,
        0.00547,
    )


def test_preset_params_shared_rates():
    p = preset_params(covid_mitigation_presets()[0])
    assert (p.lam, p.gamma, p.kappa) == (0.65, 0.0001, 0.0002)
    assert (p.alpha1, p.alpha2) == (0.0001, 0.0)
    assert p.rho == 0.0  # one-way switching: the resting split degenerates
    assert p.N == 100.0


def test_mitigation_sweeps_shrink_the_peak():
    # lowering either rate can only soften the epidemic
    obs_i = observables_for(ModelKind.MA)["I"]

    def peak(beta1, beta2):
        p = validate_params(
            {
                "beta1": beta1,
                "beta2": beta2,
                "lambda": 0.65,
                "gamma": 0.005,
                "kappa": 0.0006,
                "rho": 0.75,
                "N": 100.0,
            },
            ModelKind.MA,
        )
        init = StateMA(S1=74.25, S2=24.75, Is=1.0, Ia=0.0, R=0.0)
        return peak_of(simulate(ModelKind.MA, p, init, 0.0, 30000.0, 2.0), obs_i)[1]

    b1_peaks = [peak(b1, 0.0009) for b1 in (0.0042, 0.0032, 0.0022)]
    assert b1_peaks[0] > b1_peaks[1] > b1_peaks[2]
    b2_peaks = [peak(0.0042, b2) for b2 in (0.0041, 0.0025, 0.0009)]
    assert b2_peaks[0] > b2_peaks[1] > b2_peaks[2]


def test_switching_relaxes_class_ratio():
    # strong switching pulls S1/S2 down toward alpha2/alpha1 while most of
    # the population is still susceptible
    p = validate_params(
        {
            "beta1": 0.0042,
            "beta2": 0.0009,
            "lambda": 0.65,
            "gamma": 0.0005,
            "kappa": 0.0002,
            "alpha1": 0.10,
            "alpha2": 0.010,
            "N": 100.0,
        },
        ModelKind.MB,
    )
    init = StateMB(S1=74.25, S2=24.75, A1=0.0, A2=0.0, Is=1.0, R=0.0)
    traj = simulate(ModelKind.MB, p, init, 0.0, 20000.0, 2.0)
    ratios = [s.S1 / s.S2 for s in traj.states]
    first_low = next(
        i for i, r in enumerate(ratios) if r <= 1.25 * p.alpha2 / p.alpha1
    )
    s = traj.states[first_low]
    assert s.S1 + s.S2 >= 0.65 * p.N
    assert min(ratios) < p.alpha2 / p.alpha1


# --- participation scan ------------------------------------------------------


def test_participation_scan_validations():
    masks = covid_mitigation_presets()[0]
    with pytest.raises(RangeError):
        participation_scan(masks, 0.0, [0.5])
    with pytest.raises(RangeError):
        participation_scan(masks, float("nan"), [0.5])
    with pytest.raises(RangeError, match="finite"):
        participation_scan(masks, float("inf"), [0.5])
    with pytest.raises(RangeError):
        participation_scan(masks, 80.0, [])
    with pytest.raises(RangeError):
        participation_scan(masks, 80.0, [0.0, 0.5])
    with pytest.raises(RangeError):
        participation_scan(masks, 80.0, [0.5, 0.2])


def test_participation_scan_extremes():
    masks = covid_mitigation_presets()[0]
    grid = [0.2, 0.5, 0.8]
    generous = participation_scan(masks, 200.0, grid)
    assert generous.minimal_compliant == 0.2  # capacity above N binds nowhere
    hopeless = participation_scan(masks, 0.5, grid)
    assert hopeless.minimal_compliant is None  # below the single seed


def test_participation_scan_peaks_fall_with_compliance():
    scan = participation_scan(covid_mitigation_presets()[0], 80.0, [0.2, 0.5, 0.8])
    assert scan.monotone
    assert scan.peak_I[0] > scan.peak_I[-1]
    assert scan.grid == (0.2, 0.5, 0.8)


@pytest.mark.parametrize("preset", covid_mitigation_presets(), ids=lambda p: p.name)
def test_participation_scan_matches_simulate_peaks(preset):
    # the scan keeps only a running peak; it must equal the peak of the
    # recorded run, bit for bit
    grid = [0.1, 0.4, 0.7, 0.95]
    scan = participation_scan(preset, 80.0, grid)
    p = preset_params(preset)
    obs_i = observables_for(ModelKind.MB)["I"]
    for q, peak in zip(grid, scan.peak_I):
        s2, s1 = split_share(p.N - 1.0, q)
        init = StateMB(S1=s1, S2=s2, A1=0.0, A2=0.0, Is=1.0, R=0.0)
        traj = simulate(ModelKind.MB, p, init, 0.0, SCAN_T1, SCAN_DT)
        assert peak == peak_of(traj, obs_i)[1]
