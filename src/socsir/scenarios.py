"""High-level experiments: configured runs, the mixed two-phase scenario,
mitigation presets, and the participation scan.

The mixed scenario chains a single-class run (everyone in class 1, rate
beta1) into a two-class run: at t_switch the susceptibles and asymptomatic
carriers are split rho_split : (1 - rho_split) between the classes and the
combined model takes over.  The split uses exact complements, so every
aggregate (S total, asymptomatic total, Is, R, N) is bit-identical across
the switch.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import BinaryIO, Sequence

from .core import (
    ModelKind,
    Params,
    State,
    StateMA,
    StateMB,
    split_share,
    validate_params,
    with_rho_one,
)
from .errors import RangeError, ValidationError
from .integrator import (
    SwitchRecord,
    Trajectory,
    check_times,
    integrate,
    observables_for,
    peak_of,
    simulate,
)
from .ngm import r0

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


@dataclass(frozen=True)
class MixedSpec:
    """Switch description for the mixed scenario."""

    t_switch: float
    rho_split: float
    split_rule: str = "proportional"


@dataclass(frozen=True)
class ScenarioConfig:
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


@dataclass(frozen=True)
class RunSummary:
    """Headline numbers of a run."""

    r0: float
    peak_I: tuple[float, float]
    peak_Is: tuple[float, float]
    final_R: float


@dataclass(frozen=True)
class RunResult:
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
    s1, s2 = split_share(pool, p.rho)
    if model is ModelKind.MB:
        return StateMB(S1=s1, S2=s2, A1=0.0, A2=0.0, Is=1.0, R=0.0)
    return StateMA(S1=s1, S2=s2, Is=1.0, Ia=0.0, R=0.0)


def _embed_in_mb(s: StateMA) -> StateMB:
    """Represent a single-class state in two-class coordinates.

    The lone susceptible/asymptomatic class maps to class 1; class 2 is
    empty until the switch populates it.
    """
    return StateMB(S1=s.S1, S2=s.S2, A1=s.Ia, A2=0.0, Is=s.Is, R=s.R)


def _split_state(pre: StateMA, rho_split: float) -> StateMB:
    """Proportional class split of a single-class state.

    Susceptibles and asymptomatics each split rho_split : (1 - rho_split);
    symptomatics and recovered carry over unchanged.  Complements are exact,
    so S1 + S2 reproduces the pre-switch susceptible total bit-for-bit (and
    likewise A1 + A2 the asymptomatic total).
    """
    s1, s2 = split_share(pre.S1 + pre.S2, rho_split)
    a1, a2 = split_share(pre.Ia, rho_split)
    return StateMB(S1=s1, S2=s2, A1=a1, A2=a2, Is=pre.Is, R=pre.R)


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    """Integrate a configured scenario and summarize it.

    Configs with a mixed block are delegated to run_mixed.  The summary
    reports r0 (for MB, at the equilibrium class split implied by the
    switch rates), the peaks of total and symptomatic infectives, and the
    final recovered count.
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
    obs = observables_for(traj.model)
    return RunSummary(
        r0=r0(p.beta1, p.beta2, p.rho, p.kappa),
        peak_I=peak_of(traj, obs["I"]),
        peak_Is=peak_of(traj, obs["Is"]),
        final_R=traj.states[-1].R,
    )


def run_mixed(cfg: ScenarioConfig) -> RunResult:
    """Run the single-class phase, split at t_switch, continue two-class.

    The returned trajectory is uniformly in two-class coordinates (the
    opening phase embeds with class 2 empty), has model MB, and carries a
    SwitchRecord with the embedded pre-switch and post-split states.  The
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

    single = simulate(
        ModelKind.SINGLE,
        with_rho_one(p),
        init,
        cfg.t0,
        spec.t_switch,
        cfg.dt,
        cfg.record_every,
    )
    pre = single.states[-1]
    post = _split_state(pre, spec.rho_split)
    second = simulate(
        ModelKind.MB,
        p,
        post,
        spec.t_switch,
        cfg.t1,
        cfg.dt,
        cfg.record_every,
    )

    times = single.times[:-1] + second.times
    states = tuple(_embed_in_mb(s) for s in single.states[:-1]) + second.states
    traj = Trajectory(
        model=ModelKind.MB,
        times=times,
        states=states,
        params_used=p,
        dt=cfg.dt,
        switch_record=SwitchRecord(
            t_switch=spec.t_switch,
            pre_state=_embed_in_mb(pre),
            post_state=post,
        ),
    )
    return RunResult(trajectory=traj, summary=_summarize(traj, p))


@dataclass(frozen=True)
class MitigationPreset:
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


@dataclass(frozen=True)
class ParticipationScanResult:
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
        # Only the running peak is kept.  max keeps the first of equal
        # maxima, as peak_of's strict > does.
        run = integrate(ModelKind.MB, p, init, 0.0, t1, dt)
        peaks.append(max(state.I for _, state in run))
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
    """Fork a child that scans qs and pipes back its pickled outcome.

    The outcome is (True, peaks) or (False, exception).  Returns the
    child's pid and the pipe's read end, or None when the fork fails.
    """
    import pickle

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
            try:
                outcome = (True, _scan_peaks(p, qs, t1, dt))
            except Exception as exc:
                outcome = (False, exc)
            with os.fdopen(w, "wb") as fh:
                fh.write(pickle.dumps(outcome))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def _parallel_peaks(
    p: Params, grid: Sequence[float], t1: float, dt: float
) -> list[float]:
    """_scan_peaks over the grid, split into one contiguous chunk per usable CPU.

    The parent scans chunk 0 and forked children the rest; outcomes are
    taken in chunk order, so the first failing chunk's exception is the
    one the serial scan raises.  A chunk whose fork fails or whose child
    dies without an outcome is scanned in-process.
    """
    n = min(_usable_cpus(), len(grid))
    if n < 2 or not hasattr(os, "fork") or _other_threads_running():
        return _scan_peaks(p, grid, t1, dt)
    import pickle
    import signal

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
            outcome = None
            if child is not None:
                pid, reader = child
                data = reader.read()
                reader.close()
                _, status = os.waitpid(pid, 0)
                del live[pid]
                if status == 0:  # a full outcome was written
                    outcome = pickle.loads(data)
            if outcome is None:
                peaks += _scan_peaks(p, qs, t1, dt)
            elif outcome[0]:
                peaks += outcome[1]
            else:
                raise outcome[1]
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
    to (usable CPUs - 1) workers for the rest.  The peaks are identical to
    a serial scan, bit for bit, and a failing run raises the error of the
    first failing grid point, as the serial scan would.  Every argument is
    checked before any fork.
    """
    if not capacity > 0:
        raise RangeError(f"capacity must be positive, got {capacity}")
    if len(grid) == 0:
        raise RangeError("grid must be nonempty")
    if any(not 0.0 < q < 1.0 for q in grid):
        raise RangeError("grid fractions must lie strictly inside (0, 1)")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise RangeError("grid must be strictly increasing")

    p = preset_params(preset, n_total)
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
