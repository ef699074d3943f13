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

import math
import os
import sys
from typing import BinaryIO, NamedTuple, Sequence

from .core import (
    ModelKind,
    Params,
    State,
    StateMA,
    StateMB,
    _column,
    _layout,
    split_share,
    validate_params,
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
from .ngm import checked_r0

__all__ = [
    "MixedSpec",
    "ScenarioConfig",
    "RunSummary",
    "RunResult",
    "MitigationPreset",
    "resolve_init",
    "run_scenario",
    "run_mixed",
    "covid_mitigation_presets",
    "preset_params",
    "participation_scan",
    "ParticipationScanResult",
]

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


def resolve_init(model: ModelKind, p: Params, rule: str) -> State:
    """Build the initial state named by a symbolic rule.

    "dfe_plus_one_symptomatic": the disease-free split of N - 1
    susceptibles (rho to class 1), plus a single symptomatic individual.
    Class 2 is an exact complement, so the state sums to N exactly.
    """
    if rule != INIT_RULE_DFE_PLUS_ONE:
        raise RangeError(f"unknown init rule {rule!r}")
    pool = p.N - 1.0
    if pool < 0:
        raise RangeError(f"N must be at least 1 to seed an infective, got {p.N}")
    state = _layout(model).state
    values = dict.fromkeys(state._fields, 0.0)
    values["S1"], values["S2"] = split_share(pool, p.rho)
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


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    """Integrate a configured scenario and summarize it.

    Configs with a mixed block are delegated to run_mixed.  The summary
    reports r0 (for MB, at the equilibrium class split implied by the
    switch rates), the peaks of total and symptomatic infectives, and the
    final recovered count.  A non-finite r0 raises NumericError.
    """
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
    """Raises NumericError when R0 is not finite (see ngm.checked_r0)."""
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
    record at t_switch itself is the post-split state.
    """
    if cfg.mixed is None:
        raise ValidationError("config has no mixed block")
    spec = cfg.mixed
    check_times(cfg.t0, cfg.t1, cfg.dt)
    if not cfg.t0 < spec.t_switch < cfg.t1:
        raise RangeError(
            f"t_switch must lie inside ({cfg.t0}, {cfg.t1}), got {spec.t_switch}"
        )
    if not 0.0 < spec.rho_split < 1.0:
        raise RangeError(f"rho_split must lie in (0, 1), got {spec.rho_split}")
    if spec.split_rule != "proportional":
        raise RangeError(f"unknown split rule {spec.split_rule!r}")

    p = cfg.params
    init = cfg.init_state
    if not isinstance(init, StateMA) or init.S2 != 0.0:
        raise ValidationError(
            "mixed runs start single-class: the initial state must be a "
            "five-compartment state with S2 = 0"
        )

    # The opening phase is recorded in two-class coordinates: its lone
    # susceptible and asymptomatic classes are class 1, class 2 stays
    # empty.  The single-class field never reads rho.  Its last record, at
    # t_switch, is the pre-switch state, which the split replaces.
    times: list[float] = []
    records: list[Sequence[float]] = []
    for t, (s1, s2, i_s, i_a, r) in integrate(
        ModelKind.SINGLE, p, init, cfg.t0, spec.t_switch, cfg.dt, cfg.record_every
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
    pool = p.N - 1.0
    peaks: list[float] = []
    for q in qs:
        s2, s1 = split_share(pool, q)
        init = StateMB(S1=s1, S2=s2, A1=0.0, A2=0.0, Is=1.0, R=0.0)
        # Only the running peak is kept, of I = (A1 + A2) + Is as StateMB.I
        # groups it, read off the raw components.  max keeps the first of
        # equal maxima, as in peak_of.
        run = integrate(ModelKind.MB, p, init, 0.0, t1, dt)
        peaks.append(max((s[2] + s[3]) + s[4] for _, s in run))
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


def _fork_scan(
    p: Params, qs: Sequence[float], t1: float, dt: float
) -> tuple[int, BinaryIO] | None:
    """Fork a child that scans qs and pipes back its peaks as raw doubles.

    The child exits 0 only after writing every peak.  Returns its pid and
    the pipe's read end, or None when the fork fails.
    """
    from array import array

    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:  # the child leaves only through os._exit
        code = 1
        try:
            os.close(r)
            with os.fdopen(w, "wb") as fh:
                fh.write(array("d", _scan_peaks(p, qs, t1, dt)).tobytes())
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def _parallel_peaks(
    p: Params, grid: Sequence[float], t1: float, dt: float
) -> list[float]:
    """_scan_peaks over the grid, split into one contiguous chunk per usable CPU.

    The parent scans chunk 0 and forked children the rest.  A chunk whose
    child did not exit 0 (the fork failed, or the child raised or died) is
    rescanned in-process.  The scan is deterministic, so a failing chunk
    raises there exactly the serial scan's error, and taking the chunks in
    grid order makes it the first failing grid point's.
    """
    n = min(_usable_cpus(), len(grid))
    if n < 2 or not hasattr(os, "fork") or _other_threads_running():
        return _scan_peaks(p, grid, t1, dt)
    import signal
    from array import array

    cuts = [len(grid) * k // n for k in range(n + 1)]
    chunks = [grid[a:b] for a, b in zip(cuts, cuts[1:])]
    live: dict[int, BinaryIO] = {}  # children not yet reaped
    try:
        children = []
        for qs in chunks[1:]:
            child = _fork_scan(p, qs, t1, dt)
            if child is not None:
                live[child[0]] = child[1]
            children.append(child)
        peaks = _scan_peaks(p, chunks[0], t1, dt)
        for qs, child in zip(chunks[1:], children):
            status = None
            if child is not None:
                pid, reader = child
                data = reader.read()
                reader.close()
                _, status = os.waitpid(pid, 0)
                del live[pid]
            if status == 0:
                peaks += array("d", data)
            else:
                peaks += _scan_peaks(p, qs, t1, dt)
        return peaks
    finally:
        for pid, reader in live.items():
            reader.close()
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
    if not 0 < capacity < math.inf:
        raise RangeError(f"capacity must be finite and positive, got {capacity}")
    if len(grid) == 0:
        raise RangeError("grid must be nonempty")
    if any(not 0.0 < q < 1.0 for q in grid):
        raise RangeError("grid fractions must lie strictly inside (0, 1)")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise RangeError("grid must be strictly increasing")

    p = preset_params(preset, n_total)
    # resolve_init's rule: the run seeds one infective out of N.
    if p.N < 1:
        raise RangeError(f"N must be at least 1 to seed an infective, got {p.N}")
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
        grid=tuple(float(q) for q in grid),
        peak_I=tuple(peaks),
        minimal_compliant=minimal,
        monotone=monotone,
    )
