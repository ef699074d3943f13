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
from math import inf
from operator import attrgetter, indexOf
from typing import Callable, Iterator, NamedTuple, Sequence

from .core import ModelKind, Params, State, _layout
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
    "MAX_STEPS",
    "step_rk4",
    "check_times",
    "integrate",
    "simulate",
    "peak_of",
    "observables_for",
]

# step_rk4's vector field maps (time, state-tuple) to a derivative tuple of
# the same length.  The model fields that integrate runs are autonomous and
# take the components positionally instead (see dynamics.vector_field).
VectorField = Callable[[float, Sequence[float]], Sequence[float]]

# Tolerance for "a compartment went negative": one part in 1e9 of the
# population is rounding noise; anything beyond signals dt is too large.
NEGATIVE_TOL = 1e-9

# Most RK4 steps one run may take, 50 times the longest run the tests and
# the benchmark make.  simulate stores up to one record per step, so without
# a cap a finite but huge window (t1 = 1e9, dt = 1) grows without bound.  A
# recorded MB run of 10**5 steps takes about 0.8 s and 30 MB (Python 3.11,
# 2-vCPU host), so the cap bounds one run near 8 s and 300 MB.  A CLI
# simulate of an MB run that also writes --csv and --svg peaked at 53 MB
# RSS in 2.0 s for 10**5 steps and at 130 MB in 6.1 s for 3 * 10**5, about
# 38 MB per 10**5 records; at the cap such a run would take about 20 s
# and 400 MB.
MAX_STEPS = 10**6


class Observable(NamedTuple):
    """A named scalar read off a state, e.g. total infectives."""

    name: str
    extract: Callable[[State], float]


def observables_for(model: ModelKind) -> dict[str, Observable]:
    """The standard observables of a model, keyed by name, in CSV order."""
    layout = _layout(model)
    obs = {name: Observable(name, attrgetter(name)) for name in layout.observables[:-1]}
    obs["N"] = Observable("N", layout.total)
    return obs


class SwitchRecord(NamedTuple):
    """What happened at a mid-run model switch."""

    t_switch: float
    pre_state: State
    post_state: State


class Trajectory:
    """A recorded run: strictly increasing times and matching states.

    Times are uniformly spaced by ``dt * record_every`` except possibly the
    final partial step (and, for composite runs, the junction at
    ``switch_record.t_switch``).  Every recorded state keeps the total
    population within 1e-9 * N of the initial one.

    An immutable value like the NamedTuple types, but a slotted class:
    len() is the record count, which a tuple's len() cannot be.
    """

    __slots__ = ("model", "times", "states", "params_used", "dt", "switch_record")
    __match_args__ = __slots__

    model: ModelKind
    times: tuple[float, ...]
    states: tuple[State, ...]
    params_used: Params
    dt: float
    switch_record: SwitchRecord | None

    def __init__(
        self,
        model: ModelKind,
        times: tuple[float, ...],
        states: tuple[State, ...],
        params_used: Params,
        dt: float,
        switch_record: SwitchRecord | None = None,
    ) -> None:
        values = (model, times, states, params_used, dt, switch_record)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __len__(self) -> int:
        return len(self.times)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Trajectory:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._values())
        )
        return f"Trajectory({fields})"

    def __reduce__(self):
        return Trajectory, self._values()

    def __setattr__(self, name: str, *_: object) -> None:
        raise AttributeError(f"Trajectory is immutable; cannot set or delete {name!r}")

    __delattr__ = __setattr__


def _checked_step(
    new: Sequence[float], s: Sequence[float], t: float
) -> Sequence[float]:
    """Check new, the result of one RK4 step from state s at time t.

    One check per step suffices: NaN and inf propagate through +, * and /,
    so a non-finite stage always leaves a non-finite result, and the
    negativity floor needs computing only when a component is negative.
    """
    if not all(map(math.isfinite, new)):
        raise NonFiniteError(f"non-finite value in step from t={t}", time=t)
    low = min(new)
    if low < 0:
        floor = -NEGATIVE_TOL * sum(map(abs, s))
        if low < floor:
            i = indexOf(new, low)
            raise NegativeStateError(
                f"component {i} fell to {low}, below {floor}, in step from "
                f"t={t}; reduce dt",
                time=t,
                compartment=i,
            )
    return new


def _step(f: VectorField, s: Sequence[float], t: float, dt: float) -> list[float]:
    """One classical RK4 step of the field f(t, components).

    f receives each stage's components as a plain tuple.  Works for any
    number of components; _step5 and _step6 are the same arithmetic
    written out per component.
    """
    half = 0.5 * dt
    k1 = f(t, tuple(s))
    # zip would drop the components past the shorter of s and k1.
    if len(k1) != len(s):
        raise RangeError(
            f"the field returned {len(k1)} components for a state of {len(s)}"
        )
    k2 = f(t + half, tuple([x + half * k for x, k in zip(s, k1)]))
    k3 = f(t + half, tuple([x + half * k for x, k in zip(s, k2)]))
    k4 = f(t + dt, tuple([x + dt * k for x, k in zip(s, k3)]))
    sixth = dt / 6.0
    new = [
        x + sixth * (a + 2.0 * (b + c) + d)
        for x, a, b, c, d in zip(s, k1, k2, k3, k4)
    ]
    return _checked_step(new, s, t)


# _step5 and _step6 unroll _step for the two state sizes integrate runs, on
# the positional fields f(*components), and return a tuple.  Each
# expression keeps _step's operands and their order, so the results are
# bit-identical; what they save is the per-stage list comprehensions and
# argument unpacking, about half the cost of a step.  A result whose every
# component lies in [0, inf) passes _checked_step untouched (NaN fails
# every comparison), so they test that first and call _checked_step only
# otherwise.  t only labels errors.


def _step5(f, s: Sequence[float], t: float, dt: float) -> tuple[float, ...]:
    """_step for five components."""
    half = 0.5 * dt
    x1, x2, x3, x4, x5 = s
    a1, a2, a3, a4, a5 = f(x1, x2, x3, x4, x5)
    b1, b2, b3, b4, b5 = f(
        x1 + half * a1, x2 + half * a2, x3 + half * a3,
        x4 + half * a4, x5 + half * a5,
    )
    c1, c2, c3, c4, c5 = f(
        x1 + half * b1, x2 + half * b2, x3 + half * b3,
        x4 + half * b4, x5 + half * b5,
    )
    d1, d2, d3, d4, d5 = f(
        x1 + dt * c1, x2 + dt * c2, x3 + dt * c3,
        x4 + dt * c4, x5 + dt * c5,
    )
    sixth = dt / 6.0
    n1 = x1 + sixth * (a1 + 2.0 * (b1 + c1) + d1)
    n2 = x2 + sixth * (a2 + 2.0 * (b2 + c2) + d2)
    n3 = x3 + sixth * (a3 + 2.0 * (b3 + c3) + d3)
    n4 = x4 + sixth * (a4 + 2.0 * (b4 + c4) + d4)
    n5 = x5 + sixth * (a5 + 2.0 * (b5 + c5) + d5)
    new = (n1, n2, n3, n4, n5)
    if (
        0.0 <= n1 < inf and 0.0 <= n2 < inf and 0.0 <= n3 < inf
        and 0.0 <= n4 < inf and 0.0 <= n5 < inf
    ):
        return new
    return _checked_step(new, s, t)


def _step6(f, s: Sequence[float], t: float, dt: float) -> tuple[float, ...]:
    """_step for six components."""
    half = 0.5 * dt
    x1, x2, x3, x4, x5, x6 = s
    a1, a2, a3, a4, a5, a6 = f(x1, x2, x3, x4, x5, x6)
    b1, b2, b3, b4, b5, b6 = f(
        x1 + half * a1, x2 + half * a2, x3 + half * a3,
        x4 + half * a4, x5 + half * a5, x6 + half * a6,
    )
    c1, c2, c3, c4, c5, c6 = f(
        x1 + half * b1, x2 + half * b2, x3 + half * b3,
        x4 + half * b4, x5 + half * b5, x6 + half * b6,
    )
    d1, d2, d3, d4, d5, d6 = f(
        x1 + dt * c1, x2 + dt * c2, x3 + dt * c3,
        x4 + dt * c4, x5 + dt * c5, x6 + dt * c6,
    )
    sixth = dt / 6.0
    n1 = x1 + sixth * (a1 + 2.0 * (b1 + c1) + d1)
    n2 = x2 + sixth * (a2 + 2.0 * (b2 + c2) + d2)
    n3 = x3 + sixth * (a3 + 2.0 * (b3 + c3) + d3)
    n4 = x4 + sixth * (a4 + 2.0 * (b4 + c4) + d4)
    n5 = x5 + sixth * (a5 + 2.0 * (b5 + c5) + d5)
    n6 = x6 + sixth * (a6 + 2.0 * (b6 + c6) + d6)
    new = (n1, n2, n3, n4, n5, n6)
    if (
        0.0 <= n1 < inf and 0.0 <= n2 < inf and 0.0 <= n3 < inf
        and 0.0 <= n4 < inf and 0.0 <= n5 < inf and 0.0 <= n6 < inf
    ):
        return new
    return _checked_step(new, s, t)


# integrate's kernel for each state size.
_KERNELS = {5: _step5, 6: _step6}


def step_rk4(f: VectorField, s: Sequence[float], t: float, dt: float):
    """Advance the state s at time t by one RK4 step of size dt.

    f(t, components) receives the stage components as a plain tuple.
    Deterministic: identical inputs give bit-identical outputs.  The result
    has the same type as s (named state tuples stay named state tuples).

    Raises RangeError if dt is not finite or dt <= 0 or if f's first stage
    has another length than s, NonFiniteError if the step produces
    NaN/inf, NegativeStateError if any component falls below -1e-9 times
    the state's magnitude.
    """
    if not math.isfinite(dt):
        raise RangeError(f"dt must be finite, got {dt}")
    if dt <= 0:
        raise RangeError(f"dt must be positive, got {dt}")
    new = _step(f, s, t, dt)
    cls = type(s)
    return cls._make(new) if hasattr(cls, "_make") else cls(new)


def check_times(t0: float, t1: float, dt: float) -> None:
    """Raise RangeError unless t0, t1 and dt are finite, dt > 0, t1 > t0
    and the window takes at most MAX_STEPS steps of dt."""
    if not (math.isfinite(t0) and math.isfinite(t1) and math.isfinite(dt)):
        raise RangeError(
            f"t0, t1 and dt must be finite, got t0={t0}, t1={t1}, dt={dt}"
        )
    if dt <= 0:
        raise RangeError(f"dt must be positive, got {dt}")
    if t1 <= t0:
        raise RangeError(f"t1 must exceed t0, got t0={t0}, t1={t1}")
    if (t1 - t0) / dt > MAX_STEPS:
        raise RangeError(
            f"t0={t0}, t1={t1}, dt={dt} needs more than {MAX_STEPS} steps; "
            f"shorten the window or raise dt"
        )


def integrate(
    model: ModelKind,
    p: Params,
    init: State,
    t0: float,
    t1: float,
    dt: float = 1.0,
    record_every: int = 1,
) -> Iterator[tuple[float, Sequence[float]]]:
    """Integrate the model from t0 to t1, yielding (t, components) per record.

    The state is recorded at t0, then after every record_every-th step, and
    always at t1 (a final partial step covers any remainder of t1 - t0 that
    is not a whole multiple of dt).  The first record is init itself; the
    later ones are plain tuples of the components in init's field order,
    which simulate turns into named states.  Each recorded state is checked
    to keep the initial total population within 1e-9 * N before it is
    yielded.  Step failures propagate with the failing time attached, and
    a NegativeStateError also names the compartment and numbers the step.

    Raises RangeError (see check_times, a model that is not a ModelKind,
    a record_every that is not an int >= 1, and an init whose length is not
    the model's state size) before the first step.
    """
    check_times(t0, t1, dt)
    if isinstance(record_every, bool) or not isinstance(record_every, int):
        raise RangeError(f"record_every must be an int, got {record_every!r}")
    if record_every < 1:
        raise RangeError(f"record_every must be >= 1, got {record_every}")
    state, total = _layout(model)[:2]
    size = len(state._fields)
    step = _KERNELS[size]
    if len(init) != size:
        raise RangeError(
            f"{model.name} takes {size} state components, got {len(init)}"
        )

    f = vector_field(model, p)
    n_expected = total(init)
    tol = 1e-9 * abs(n_expected)

    t = float(t0)
    yield t, init
    s: Sequence[float] = init
    k = 0
    try:
        while t < t1:
            # Recompute the grid time from the step index so long runs do
            # not accumulate additive rounding.
            t_next = t0 + (k + 1) * dt
            h = dt
            if t_next >= t1:
                t_next = float(t1)
                h = t1 - t
            s = step(f, s, t, h)
            k += 1
            t = t_next
            if k % record_every == 0 or t >= t1:
                drift = abs(total(s) - n_expected)
                if drift > tol:
                    raise NumericError(
                        f"population drifted by {drift} at t={t}", time=t
                    )
                yield t, s
    except NegativeStateError as exc:
        # The kernels know positions only; the layout names the compartment.
        name = state._fields[exc.compartment]
        raise NegativeStateError(
            f"{name}, step {k + 1}: {exc}", exc.time, name, k + 1
        ) from None


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

    Records and raises exactly as integrate does, and stores each record
    as the model's state type, so init may be a plain tuple of the
    components.
    """
    make = _layout(model).state._make
    times: list[float] = []
    states: list[State] = []
    for t, s in integrate(model, p, init, t0, t1, dt, record_every):
        times.append(t)
        states.append(make(s))
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
    extract, states = obs.extract, traj.states
    # max keeps the first of equal maxima (-0.0 before 0.0).  It returns
    # NaN only for a NaN first value, which indexOf cannot find.
    best = max(map(extract, states))
    if best != best:
        return traj.times[0], best
    return traj.times[indexOf(map(extract, states), best)], best
