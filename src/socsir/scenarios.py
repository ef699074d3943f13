"""High-level experiments: configured runs, the mixed two-phase scenario,
mitigation presets, and the participation scan.

The mixed scenario chains a single-class run (everyone in class 1, rate
beta1) into a two-class run: at t_switch the susceptibles and asymptomatic
carriers are split rho_split : (1 - rho_split) between the classes and the
combined model takes over.  The split uses core.split_share, whose two
shares sum to the total exactly, so every aggregate (S total, asymptomatic
total, Is, R, N) is bit-identical across the switch.
"""

from __future__ import annotations

import os
import sys
from operator import itemgetter
from typing import NamedTuple, Sequence

from .core import (
    ModelKind,
    Params,
    State,
    StateMA,
    StateMB,
    _check_grid,
    _check_kind,
    _column,
    _finite,
    _layout_for,
    split_share,
    validate_params,
    with_rho_one,
)
from .errors import RangeError, ValidationError
from .integrator import (
    SwitchRecord,
    Trajectory,
    _first_max,
    check_times,
    integrate,
    simulate,
)
from .reproduction import checked_r0

INIT_RULE_DFE_PLUS_ONE = "dfe_plus_one_symptomatic"


class MixedSpec(NamedTuple):
    """Switch description for the mixed scenario."""

    t_switch: float
    rho_split: float
    split_rule: str = "proportional"


class ScenarioConfig(NamedTuple):
    """A fully resolved run description.

    init_rule remembers the symbolic initial condition ("dfe_plus_one_
    symptomatic") when one was used, so configs round-trip; init_state is
    always the concrete state.  mixed is present exactly for the composite
    single-then-two-class scenario, where model is SINGLE.
    """

    model: ModelKind
    params: Params
    init_state: State
    t0: float
    t1: float
    dt: float = 1.0
    record_every: int = 1
    init_rule: str | None = None
    mixed: MixedSpec | None = None
    outputs: tuple[str, ...] = ()


class RunSummary(NamedTuple):
    """Headline numbers of a run."""

    r0: float
    peak_I: tuple[float, float]
    peak_Is: tuple[float, float]
    final_R: float


class RunResult(NamedTuple):
    trajectory: Trajectory
    summary: RunSummary


def _seed_pool(p: Params) -> float:
    """N - 1, the susceptibles beside one seeded infective; RangeError if N < 1."""
    pool = p.N - 1.0
    if pool < 0:
        raise RangeError(f"N must be at least 1 to seed an infective, got {p.N}")
    return pool


def resolve_init(model: ModelKind, p: Params, rule: str) -> State:
    """Build the initial state named by a symbolic rule.

    "dfe_plus_one_symptomatic": the disease-free split of N - 1
    susceptibles (rho to class 1), plus a single symptomatic individual.
    Class 2 is an exact complement, so the state sums to N exactly.
    """
    state = _layout_for(model, p).state
    if rule != INIT_RULE_DFE_PLUS_ONE:
        raise RangeError(f"unknown init rule {rule!r}")
    values = dict.fromkeys(state._fields, 0.0)
    values["S1"], values["S2"] = split_share(_seed_pool(p), p.rho)
    values["Is"] = 1.0
    return state(**values)


def _split_state(pre: StateMB, rho_split: float) -> StateMB:
    """Proportional class split of a single-class state in two-class
    coordinates (its asymptomatics all in A1).

    Susceptibles and asymptomatics each split rho_split : (1 - rho_split);
    symptomatics and recovered carry over unchanged.  Complements are exact,
    so S1 + S2 reproduces the pre-switch susceptible total bit-for-bit (and
    likewise A1 + A2 the asymptomatic total).
    """
    s1, s2 = split_share(pre.S1 + pre.S2, rho_split)
    a1, a2 = split_share(pre.A1, rho_split)
    return StateMB(S1=s1, S2=s2, A1=a1, A2=a2, Is=pre.Is, R=pre.R)


def _check_mixed(spec: MixedSpec, t0: float, t1: float, init: State) -> None:
    """The mixed block's rules, which run_mixed and the config loader apply:
    t_switch inside (t0, t1), rho_split in (0, 1), the proportional split
    rule, and a single-class start (a five-compartment init with S2 = 0).
    RangeError for each, and for a t_switch or rho_split that is not a
    finite number (core._finite)."""
    if not t0 < _finite("t_switch", spec.t_switch) < t1:
        raise RangeError(f"t_switch must lie inside ({t0}, {t1}), got {spec.t_switch}")
    if not 0.0 < _finite("rho_split", spec.rho_split) < 1.0:
        raise RangeError(f"rho_split must lie in (0, 1), got {spec.rho_split}")
    if spec.split_rule != "proportional":
        raise RangeError(f"unknown split rule {spec.split_rule!r}")
    if not isinstance(init, StateMA) or init.S2 != 0.0:
        raise RangeError(
            "mixed runs start single-class: the initial state must be a "
            "five-compartment state with init.S2 = 0"
        )


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    """Integrate a configured scenario and summarize it.

    Configs with a mixed block are delegated to run_mixed.  The summary
    reports r0 (for MB, at the equilibrium class split implied by the
    switch rates), the peaks of total and symptomatic infectives, and the
    final recovered count.  A non-finite r0 raises NumericError, and a cfg
    that is not a ScenarioConfig RangeError.
    """
    _check_kind("cfg", cfg, ScenarioConfig)
    if cfg.mixed is not None:
        return run_mixed(cfg)
    traj = simulate(
        cfg.model,
        cfg.params,
        cfg.init_state,
        cfg.t0,
        cfg.t1,
        cfg.dt,
        cfg.record_every,
    )
    return RunResult(trajectory=traj, summary=_summarize(traj, cfg.params))


def _summarize(traj: Trajectory, p: Params) -> RunSummary:
    """Raises NumericError when R0 is not finite (see reproduction.checked_r0)."""
    model, times, records = traj.model, traj.times, traj._records
    return RunSummary(
        r0=checked_r0(p)[0],
        peak_I=_first_max(times, lambda: _column(model, records, "I")),
        peak_Is=_first_max(times, lambda: _column(model, records, "Is")),
        final_R=records[-1][-1],  # R is the last component of both layouts
    )


def run_mixed(cfg: ScenarioConfig) -> RunResult:
    """Run the single-class phase, split at t_switch, continue two-class.

    The returned trajectory is uniformly in two-class coordinates (the
    opening phase is recorded with class 2 empty), has model MB, and
    carries a SwitchRecord with the pre-switch and post-split states.  The
    record at t_switch itself is the post-split state.  The opening phase
    runs SINGLE on with_rho_one of the config's parameters.

    Raises ValidationError for a cfg without a mixed block, and RangeError
    for a cfg that is not a ScenarioConfig, a mixed block that is not a
    MixedSpec, and one that breaks _check_mixed's rules.
    """
    _check_kind("cfg", cfg, ScenarioConfig)
    if cfg.mixed is None:
        raise ValidationError(
            'the composite scenario needs a config with a "mixed" block'
        )
    spec = cfg.mixed
    _check_kind("mixed", spec, MixedSpec)
    check_times(cfg.t0, cfg.t1, cfg.dt, cfg.record_every)
    _check_mixed(spec, cfg.t0, cfg.t1, cfg.init_state)
    p = cfg.params
    init = cfg.init_state

    # The opening phase is recorded in two-class coordinates: its lone
    # susceptible and asymptomatic classes are class 1, class 2 stays
    # empty.  The single-class field never reads rho, so with_rho_one
    # changes no bit.  Its last record, at t_switch, is the pre-switch
    # state, which the split replaces.
    times: list[float] = []
    records: list[Sequence[float]] = []
    for t, (s1, s2, i_s, i_a, r) in integrate(
        ModelKind.SINGLE, with_rho_one(p), init, cfg.t0, spec.t_switch, cfg.dt,
        cfg.record_every,
    ):
        times.append(t)
        records.append((s1, s2, i_a, 0.0, i_s, r))
    times.pop()
    pre = StateMB._make(records.pop())
    post = _split_state(pre, spec.rho_split)
    for t, s in integrate(
        ModelKind.MB, p, post, spec.t_switch, cfg.t1, cfg.dt, cfg.record_every
    ):
        times.append(t)
        records.append(s)

    traj = Trajectory(
        model=ModelKind.MB,
        times=tuple(times),
        states=tuple(records),
        params_used=p,
        dt=cfg.dt,
        switch_record=SwitchRecord(
            t_switch=spec.t_switch, pre_state=pre, post_state=post
        ),
    )
    return RunResult(trajectory=traj, summary=_summarize(traj, p))


class MitigationPreset(NamedTuple):
    """Named mitigation behavior with its two class infection rates."""

    name: str
    beta1: float
    beta2: float


# Shared rates of the mitigation presets.  alpha2 = 0 (no switching back
# to the non-compliant class) violates the usual alpha1 > alpha2 > 0
# requirement and is admitted only through the explicit relaxation below;
# the resulting parameters are suitable for simulation, not for
# equilibrium analysis (rho degenerates to 0).
PRESET_SHARED: dict[str, float] = {
    "lambda": 0.65,
    "gamma": 0.0001,
    "kappa": 0.0002,
    "alpha1": 0.0001,
    "alpha2": 0.0,
}

_PRESETS = (
    MitigationPreset("masks", beta1=0.00808, beta2=0.00558),
    MitigationPreset("common_areas", beta1=0.00675, beta2=0.00538),
    MitigationPreset("distancing", beta1=0.00700, beta2=0.00547),
)


def covid_mitigation_presets() -> tuple[MitigationPreset, ...]:
    """The three named mitigation behaviors (class infection rates only)."""
    return _PRESETS


def preset_params(preset: MitigationPreset, n_total: float = 100.0) -> Params:
    """Full MB parameter vector for a preset (alpha2 = 0 relaxation)."""
    _check_kind("preset", preset, MitigationPreset)
    raw = dict(PRESET_SHARED)
    raw.update(beta1=preset.beta1, beta2=preset.beta2, N=n_total)
    return validate_params(raw, ModelKind.MB, allow_zero_alpha2=True)


class ParticipationScanResult(NamedTuple):
    """Outcome of scanning compliant-population fractions.

    minimal_compliant is the smallest scanned fraction whose peak infected
    load stayed within capacity, or None when no scanned fraction did.
    monotone records whether the peaks were non-increasing along the grid
    (a violation is surfaced as a warning flag, not an error).
    """

    preset: str
    capacity: float
    grid: tuple[float, ...]
    peak_I: tuple[float, ...]
    minimal_compliant: float | None
    monotone: bool


# Scan window defaults.  At the preset rates recovery (1/kappa = 5000) is
# far slower than spread (beta ~ 0.006), so over a long enough horizon
# every participation level ends with nearly the whole population infected
# at once and a capacity comparison degenerates.  What distinguishes the
# presets is how long they hold the infected load below capacity during
# the first wave; the window is the planning horizon for that comparison,
# placed where the slowest preset's compliant runs are still below their
# crest.  The step is far below the fastest dynamic timescale (the
# minimal-fraction results are identical for dt anywhere in [1, 5]).
SCAN_T1 = 1020.0
SCAN_DT = 2.0


def _scan_peaks(p: Params, qs: Sequence[float], t1: float, dt: float) -> list[float]:
    """Peak infected load of the MB run over [0, t1] for each fraction in qs."""
    pool = _seed_pool(p)
    peaks: list[float] = []
    for q in qs:
        s2, s1 = split_share(pool, q)
        init = StateMB(S1=s1, S2=s2, A1=0.0, A2=0.0, Is=1.0, R=0.0)
        # Only the running peak of I is kept, read off each record.  max
        # keeps the first of equal maxima, as in peak_of.
        run = integrate(ModelKind.MB, p, init, 0.0, t1, dt)
        peaks.append(max(_column(ModelKind.MB, map(itemgetter(1), run), "I")))
    return peaks


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return 1


def _other_threads_running() -> bool:
    # fork copies only the calling thread, so a lock another thread holds
    # stays held in the child forever.
    threading = sys.modules.get("threading")
    return threading is not None and threading.active_count() > 1


def _parallel_peaks(
    p: Params, grid: Sequence[float], t1: float, dt: float
) -> list[float]:
    """_scan_peaks over the grid, split into one contiguous chunk per usable CPU.

    The parent scans chunk 0 and forked children the rest.  Each child
    writes its chunk's peaks into its own slice of one shared anonymous
    mapping, as raw doubles, and exits 0 only after that.  A chunk whose
    child did not exit 0 (the fork failed, or the child raised or died) is
    rescanned in-process.  The scan is deterministic, so a failing chunk
    raises there exactly the serial scan's error, and taking the chunks in
    grid order makes it the first failing grid point's.
    """
    n = min(_usable_cpus(), len(grid))
    if n < 2 or not hasattr(os, "fork") or _other_threads_running():
        return _scan_peaks(p, grid, t1, dt)
    import mmap
    import signal

    cuts = [len(grid) * k // n for k in range(n + 1)]
    spans = list(zip(cuts[1:], cuts[2:]))
    live: dict[int, int] = {}  # chunk start -> pid, for children not yet reaped
    with mmap.mmap(-1, 8 * len(grid)) as shared, memoryview(shared).cast("d") as out:
        try:
            for a, b in spans:
                try:
                    pid = os.fork()
                except OSError:
                    continue
                if pid == 0:  # the child leaves only through os._exit
                    code = 1
                    try:
                        for i, peak in enumerate(_scan_peaks(p, grid[a:b], t1, dt), a):
                            out[i] = peak
                        code = 0
                    finally:
                        os._exit(code)
                live[a] = pid
            peaks = _scan_peaks(p, grid[: cuts[1]], t1, dt)
            for a, b in spans:
                ok = a in live and os.waitpid(live[a], 0)[1] == 0
                live.pop(a, None)
                peaks += out[a:b].tolist() if ok else _scan_peaks(p, grid[a:b], t1, dt)
            return peaks
        finally:
            for pid in live.values():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def participation_scan(
    preset: MitigationPreset,
    capacity: float,
    grid: Sequence[float],
    *,
    n_total: float = 100.0,
    t1: float = SCAN_T1,
    dt: float = SCAN_DT,
) -> ParticipationScanResult:
    """Find the smallest compliant fraction keeping the infected load within capacity.

    For each fraction q on the grid, N - 1 susceptibles are split with the
    compliant share q in class 2 (rate beta2) and the rest in class 1, one
    symptomatic individual is seeded, and the two-class model runs over the
    window [0, t1]; the largest simultaneous infected count (I = A + Is,
    everyone needing care at one time) is compared against capacity.

    The runs are independent.  On POSIX the grid is split into contiguous
    chunks, one per usable CPU: this process scans the first and forks up
    to (usable CPUs - 1) workers for the rest, which send back only their
    peaks.  A chunk whose worker does not deliver them is rescanned in
    this process.  The peaks are identical to a serial scan, bit for bit,
    and a failing run raises the serial scan's error, that of the first
    failing grid point.  Every argument is checked before any fork.
    """
    if _finite("capacity", capacity) <= 0:
        raise RangeError(f"capacity must be finite and positive, got {capacity}")
    grid = _check_grid(grid)
    if any(not 0.0 < q < 1.0 for q in grid):
        raise RangeError("grid fractions must lie strictly inside (0, 1)")

    p = preset_params(preset, n_total)
    _seed_pool(p)  # resolve_init's rule: the run seeds one infective out of N
    check_times(0.0, t1, dt)
    peaks = _parallel_peaks(p, grid, t1, dt)

    minimal = next(
        (q for q, peak in zip(grid, peaks) if peak <= capacity), None
    )
    slack = 1e-9 * n_total
    monotone = all(b <= a + slack for a, b in zip(peaks, peaks[1:]))
    return ParticipationScanResult(
        preset=preset.name,
        capacity=float(capacity),
        grid=grid,
        peak_I=tuple(peaks),
        minimal_compliant=minimal,
        monotone=monotone,
    )
