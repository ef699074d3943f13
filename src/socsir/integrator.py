"""Fixed-step fourth-order Runge-Kutta integration with recording.

The solver is deliberately plain: classical RK4, constant dt (default 1
time unit), bit-for-bit deterministic.  The dynamics at the parameter
scales this package targets are nonstiff, so there is no adaptive stepping
and no implicit machinery.  A state that turns non-finite or meaningfully
negative raises instead of being clamped; clamping would silently break
conservation, while the error tells the caller to shrink dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterator, Sequence

from .core import ModelKind, Params, State, total_population
from .dynamics import vector_field
from .errors import (
    EmptyTrajectoryError,
    NegativeStateError,
    NonFiniteError,
    NumericError,
    RangeError,
)

__all__ = [
    "Observable",
    "SwitchRecord",
    "Trajectory",
    "step_rk4",
    "check_times",
    "integrate",
    "simulate",
    "peak_of",
    "observables_for",
]

# step_rk4's vector field maps (time, state-tuple) to a derivative tuple of
# the same length.  The model fields that integrate runs take the components
# positionally instead (see dynamics.vector_field) and ignore the time
# argument (autonomous systems).
VectorField = Callable[[float, Sequence[float]], Sequence[float]]

# Tolerance for "a compartment went negative": one part in 1e9 of the
# population is rounding noise; anything beyond signals dt is too large.
NEGATIVE_TOL = 1e-9


@dataclass(frozen=True)
class Observable:
    """A named scalar read off a state, e.g. total infectives."""

    name: str
    extract: Callable[[State], float]


def observables_for(model: ModelKind) -> dict[str, Observable]:
    """The standard observables of a model, keyed by name."""
    if model is ModelKind.MB:
        names: tuple[str, ...] = ("S1", "S2", "A1", "A2", "Is", "R")
    else:
        names = ("S1", "S2", "Ia", "Is", "R")
    obs = {name: Observable(name, attrgetter(name)) for name in (*names, "I")}
    obs["N"] = Observable("N", total_population)
    return obs


@dataclass(frozen=True)
class SwitchRecord:
    """What happened at a mid-run model switch."""

    t_switch: float
    pre_state: State
    post_state: State


@dataclass(frozen=True)
class Trajectory:
    """A recorded run: strictly increasing times and matching states.

    Times are uniformly spaced by ``dt * record_every`` except possibly the
    final partial step (and, for composite runs, the junction at
    ``switch_record.t_switch``).  Every recorded state keeps the total
    population within 1e-9 * N of the initial one.
    """

    model: ModelKind
    times: tuple[float, ...]
    states: tuple[State, ...]
    params_used: Params
    dt: float
    switch_record: SwitchRecord | None = field(default=None)

    def __len__(self) -> int:
        return len(self.times)


def _step(f, s: Sequence[float], t: float, dt: float) -> list[float]:
    """One classical RK4 step of the positional field f(t, *components).

    The result is checked once: NaN and inf propagate through +, * and /,
    so a non-finite stage always leaves a non-finite result, and the
    negativity floor needs computing only when a component is negative.
    """
    half = 0.5 * dt
    k1 = f(t, *s)
    k2 = f(t + half, *[x + half * k for x, k in zip(s, k1)])
    k3 = f(t + half, *[x + half * k for x, k in zip(s, k2)])
    k4 = f(t + dt, *[x + dt * k for x, k in zip(s, k3)])
    sixth = dt / 6.0
    new = [
        x + sixth * (a + 2.0 * (b + c) + d)
        for x, a, b, c, d in zip(s, k1, k2, k3, k4)
    ]
    if not all(map(math.isfinite, new)):
        raise NonFiniteError(f"non-finite value in step from t={t}", time=t)
    low = min(new)
    if low < 0:
        floor = -NEGATIVE_TOL * sum(map(abs, s))
        if low < floor:
            raise NegativeStateError(
                f"component {low} fell below {floor} in step from t={t}; "
                f"reduce dt",
                time=t,
            )
    return new


def step_rk4(f: VectorField, s: Sequence[float], t: float, dt: float):
    """Advance the state s at time t by one RK4 step of size dt.

    f(t, components) receives the stage components as a plain tuple.
    Deterministic: identical inputs give bit-identical outputs.  The result
    has the same type as s (named state tuples stay named state tuples).

    Raises RangeError if dt <= 0, NonFiniteError if the step produces
    NaN/inf, NegativeStateError if any component falls below -1e-9 times
    the state's magnitude.
    """
    if dt <= 0:
        raise RangeError(f"dt must be positive, got {dt}")
    new = _step(lambda t, *c: f(t, c), s, t, dt)
    cls = type(s)
    return cls._make(new) if hasattr(cls, "_make") else cls(new)


def check_times(t0: float, t1: float, dt: float) -> None:
    """Raise RangeError unless t0, t1 and dt are finite, dt > 0 and t1 > t0."""
    if not (math.isfinite(t0) and math.isfinite(t1) and math.isfinite(dt)):
        raise RangeError(
            f"t0, t1 and dt must be finite, got t0={t0}, t1={t1}, dt={dt}"
        )
    if dt <= 0:
        raise RangeError(f"dt must be positive, got {dt}")
    if t1 <= t0:
        raise RangeError(f"t1 must exceed t0, got t0={t0}, t1={t1}")


def integrate(
    model: ModelKind,
    p: Params,
    init: State,
    t0: float,
    t1: float,
    dt: float = 1.0,
    record_every: int = 1,
) -> Iterator[tuple[float, State]]:
    """Integrate the model from t0 to t1, yielding (t, state) at each record.

    The state is recorded at t0, then after every record_every-th step, and
    always at t1 (a final partial step covers any remainder of t1 - t0 that
    is not a whole multiple of dt).  Each recorded state is checked to keep
    the initial total population within 1e-9 * N before it is yielded.
    Step failures propagate with the failing time attached.

    Raises RangeError (see check_times, and record_every < 1) before the
    first step.
    """
    check_times(t0, t1, dt)
    if record_every < 1:
        raise RangeError(f"record_every must be >= 1, got {record_every}")

    f = vector_field(model, p)
    make = type(init)._make
    n_expected = total_population(init)
    tol = 1e-9 * abs(n_expected)

    t = float(t0)
    yield t, init
    s: Sequence[float] = init
    k = 0
    while t < t1:
        # Recompute the grid time from the step index so long runs do not
        # accumulate additive rounding.
        t_next = t0 + (k + 1) * dt
        step = dt
        if t_next >= t1:
            t_next = float(t1)
            step = t1 - t
        s = _step(f, s, t, step)
        k += 1
        t = t_next
        if k % record_every == 0 or t >= t1:
            state = make(s)
            drift = abs(total_population(state) - n_expected)
            if drift > tol:
                raise NumericError(
                    f"population drifted by {drift} at t={t}", time=t
                )
            yield t, state


def simulate(
    model: ModelKind,
    p: Params,
    init: State,
    t0: float,
    t1: float,
    dt: float = 1.0,
    record_every: int = 1,
) -> Trajectory:
    """Integrate the model from t0 to t1 and record the trajectory.

    Records and raises exactly as integrate does.
    """
    times: list[float] = []
    states: list[State] = []
    for t, s in integrate(model, p, init, t0, t1, dt, record_every):
        times.append(t)
        states.append(s)
    return Trajectory(
        model=model,
        times=tuple(times),
        states=tuple(states),
        params_used=p,
        dt=float(dt),
    )


def peak_of(traj: Trajectory, obs: Observable) -> tuple[float, float]:
    """Time and value of the first recorded maximum of an observable."""
    if len(traj) == 0:
        raise EmptyTrajectoryError("trajectory has no recorded states")
    best_t = traj.times[0]
    best_v = obs.extract(traj.states[0])
    for t, s in zip(traj.times, traj.states):
        v = obs.extract(s)
        if v > best_v:
            best_t, best_v = t, v
    return best_t, best_v
