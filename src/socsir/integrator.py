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
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .core import (
    ModelKind,
    Params,
    State,
    StateMA,
    StateMB,
    _layout,
    _switch_rates,
    to_float,
)
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
# the same length.  The model fields are autonomous and take the components
# positionally instead (dynamics.vector_field); integrate's kernels have
# them written in.
VectorField = Callable[[float, Sequence[float]], Sequence[float]]

# Tolerance for "a compartment went negative": one part in 1e9 of the
# population is rounding noise; anything beyond signals dt is too large.
NEGATIVE_TOL = 1e-9

# Most RK4 steps one run may take, 50 times the longest run the tests and
# the benchmark make.  simulate stores up to one record per step, so without
# a cap a finite but huge window (t1 = 1e9, dt = 1) grows without bound.  A
# recorded MB run of 10**5 steps takes about 0.35 s and 26 MB (Python 3.11,
# 2-vCPU host), so the cap bounds one run near 3.5 s and 260 MB.  A CLI
# simulate of an MB run that also writes --csv and a four-curve --svg
# peaked, by the child's own ru_maxrss from os.wait4, at 49 MB in 1.0 s
# for 10**5 steps and at 117 MB in 2.7 s for 3 * 10**5, about 34 MB per
# 10**5 records; at the cap such a run would take about 9 s and 360 MB.
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

    The records are kept as given: simulate and run_mixed pass the
    kernels' plain component tuples, which compare and hash as the named
    states do.  states builds the named states on first read and keeps
    them in place of the plain tuples.
    """

    __slots__ = ("model", "times", "_records", "params_used", "dt", "switch_record",
                 "_states")
    __match_args__ = ("model", "times", "states", "params_used", "dt", "switch_record")

    model: ModelKind
    times: tuple[float, ...]
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
        values = (model, times, states, params_used, dt, switch_record, None)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @property
    def states(self) -> tuple[State, ...]:
        """The records as the model's state type."""
        states = self._states
        if states is None:
            states = tuple(map(_layout(self.model).state._make, self._records))
            object.__setattr__(self, "_states", states)
            object.__setattr__(self, "_records", states)
        return states

    def _values(self) -> tuple:
        return (self.model, self.times, self._records, self.params_used, self.dt,
                self.switch_record)

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
            f"{name}={getattr(self, name)!r}" for name in self.__match_args__
        )
        return f"Trajectory({fields})"

    def __reduce__(self):
        return Trajectory, self._values()

    def __setattr__(self, name: str, *_: object) -> None:
        raise AttributeError(f"Trajectory is immutable; cannot set or delete {name!r}")

    __delattr__ = __setattr__


def _checked_step(
    new: Sequence[float],
    s: Sequence[float],
    t: float,
    step: int,
    names: Sequence[str] | None,
) -> Sequence[float]:
    """Check new, the result of RK4 step number step from state s at time t.

    One check per step suffices: NaN and inf propagate through +, * and /,
    so a non-finite stage always leaves a non-finite result, and the
    negativity floor needs computing only when a component is negative.
    An error names the component by names, or by its position when names
    is None, and numbers the step.
    """
    if all(map(math.isfinite, new)):
        low = min(new)
        if low >= 0:
            return new
        floor = -NEGATIVE_TOL * sum(map(abs, s))
        if low >= floor:
            return new
        i = indexOf(new, low)
        error = NegativeStateError
        why = f"fell to {low}, below {floor}, in step from t={t}; reduce dt"
    else:
        i = next(i for i, x in enumerate(new) if not math.isfinite(x))
        error, why = NonFiniteError, f"became {new[i]} in step from t={t}"
    name = i if names is None else names[i]
    where = f"step {step}" if names is None else f"{name}, step {step}"
    raise error(f"{where}: component {i} {why}", t, name, step)


def _drifted(drift: float, t: float, step: int) -> NumericError:
    """The error for a record whose total population drifted by drift."""
    return NumericError(
        f"step {step}: population drifted by {drift} at t={t}", t, step=step
    )


def _step(
    f: VectorField,
    s: Sequence[float],
    t: float,
    dt: float,
    step: int,
    names: Sequence[str] | None,
) -> list[float]:
    """One classical RK4 step of the field f(t, components).

    f receives each stage's components as a plain tuple.  Works for any
    number of components; _run5 and _run6 are the same arithmetic written
    out per component.  step and names label a failure (_checked_step).
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
    return _checked_step(new, s, t, step, names)


# _run5 and _run6 are integrate's whole-run kernels, one per state size.
# Each is _step on dynamics.vector_field, with the model's field written
# into the four stages: every expression keeps the operands and their order
# of _step and of dynamics._field_ma/_field_mb, so the results are
# bit-identical.  The stage inputs of R are left out, as neither field
# reads R.  The time grid is integrate's: step k ends at t0 + k*dt, except
# that a step that would reach t1 ends at t1 exactly.  A result whose
# every component lies in [0, inf) passes _checked_step untouched (NaN
# fails every comparison), so the kernels test that first and call
# _checked_step only otherwise.  Each record's total is grouped as
# core.total5/total6 group it and checked against n_expected before the
# record is yielded.


def _run5(p, s, t0, t1, dt, every, n_expected, tol):
    """integrate's run for five components (MA, SINGLE).

    The field written in is dynamics._field_ma, its reference.
    """
    beta1, beta2, lam, gamma, kappa, N = (
        p.beta1, p.beta2, p.lam, p.gamma, p.kappa, p.N
    )
    asym_share = 1.0 - lam
    leave_ia = gamma + kappa
    names = StateMA._fields
    t = t0
    yield t, s
    x1, x2, x3, x4, x5 = s
    h = dt
    half = 0.5 * h
    sixth = h / 6.0
    k = 0
    while t < t1:
        k += 1
        # The grid time comes from the step index so long runs do not
        # accumulate additive rounding.
        t_next = t0 + k * dt
        if t_next >= t1:
            t_next = float(t1)
            h = t1 - t
            half = 0.5 * h
            sixth = h / 6.0
        # Components in StateMA order: S1, S2, Is, Ia, R.
        i_a = x4 + x3
        f1 = beta1 * x1 / N
        f2 = beta2 * x2 / N
        inc = (f1 + f2) * i_a
        a1 = -f1 * i_a
        a2 = -f2 * i_a
        a3 = lam * inc + gamma * x4 - kappa * x3
        a4 = asym_share * inc - leave_ia * x4
        y1 = x1 + half * a1
        y2 = x2 + half * a2
        y3 = x3 + half * a3
        y4 = x4 + half * a4
        i_b = y4 + y3
        f1 = beta1 * y1 / N
        f2 = beta2 * y2 / N
        inc = (f1 + f2) * i_b
        b1 = -f1 * i_b
        b2 = -f2 * i_b
        b3 = lam * inc + gamma * y4 - kappa * y3
        b4 = asym_share * inc - leave_ia * y4
        y1 = x1 + half * b1
        y2 = x2 + half * b2
        y3 = x3 + half * b3
        y4 = x4 + half * b4
        i_c = y4 + y3
        f1 = beta1 * y1 / N
        f2 = beta2 * y2 / N
        inc = (f1 + f2) * i_c
        c1 = -f1 * i_c
        c2 = -f2 * i_c
        c3 = lam * inc + gamma * y4 - kappa * y3
        c4 = asym_share * inc - leave_ia * y4
        y1 = x1 + h * c1
        y2 = x2 + h * c2
        y3 = x3 + h * c3
        y4 = x4 + h * c4
        i_d = y4 + y3
        f1 = beta1 * y1 / N
        f2 = beta2 * y2 / N
        inc = (f1 + f2) * i_d
        n1 = x1 + sixth * (a1 + 2.0 * (b1 + c1) + -f1 * i_d)
        n2 = x2 + sixth * (a2 + 2.0 * (b2 + c2) + -f2 * i_d)
        n3 = x3 + sixth * (
            a3 + 2.0 * (b3 + c3) + (lam * inc + gamma * y4 - kappa * y3)
        )
        n4 = x4 + sixth * (
            a4 + 2.0 * (b4 + c4) + (asym_share * inc - leave_ia * y4)
        )
        n5 = x5 + sixth * (
            kappa * i_a + 2.0 * (kappa * i_b + kappa * i_c) + kappa * i_d
        )
        new = (n1, n2, n3, n4, n5)
        if not (
            0.0 <= n1 < inf and 0.0 <= n2 < inf and 0.0 <= n3 < inf
            and 0.0 <= n4 < inf and 0.0 <= n5 < inf
        ):
            _checked_step(new, (x1, x2, x3, x4, x5), t, k, names)
        x1, x2, x3, x4, x5 = new
        t = t_next
        if k % every == 0 or t >= t1:
            drift = abs(((x1 + x2) + x4) + x3 + x5 - n_expected)
            if drift > tol:
                raise _drifted(drift, t, k)
            yield t, new


def _run6(p, s, t0, t1, dt, every, n_expected, tol):
    """integrate's run for six components (MB).

    The field written in is dynamics._field_mb, its reference.
    """
    beta1, beta2, lam, gamma, kappa, alpha1, alpha2, N = (
        p.beta1, p.beta2, p.lam, p.gamma, p.kappa, p.alpha1, p.alpha2, p.N
    )
    sw1, sw2 = _switch_rates(p)
    asym_rate1 = (1.0 - lam) * beta1
    asym_rate2 = (1.0 - lam) * beta2
    leave_a = gamma + kappa
    names = StateMB._fields
    t = t0
    yield t, s
    x1, x2, x3, x4, x5, x6 = s
    h = dt
    half = 0.5 * h
    sixth = h / 6.0
    k = 0
    while t < t1:
        k += 1
        t_next = t0 + k * dt
        if t_next >= t1:
            t_next = float(t1)
            h = t1 - t
            half = 0.5 * h
            sixth = h / 6.0
        # Components in StateMB order: S1, S2, A1, A2, Is, R.
        asympt = x3 + x4
        i_a = asympt + x5
        s1n = x1 / N
        s2n = x2 / N
        sw_in = sw2 * x4
        sw_out = sw1 * x3
        a1 = alpha2 * x2 / N - (alpha1 + beta1 * i_a) * s1n
        a2 = alpha1 * x1 / N - (alpha2 + beta2 * i_a) * s2n
        a3 = asym_rate1 * i_a * s1n + sw_in - sw_out - leave_a * x3
        a4 = asym_rate2 * i_a * s2n + sw_out - sw_in - leave_a * x4
        a5 = lam * (beta1 * s1n + beta2 * s2n) * i_a + gamma * asympt - kappa * x5
        y1 = x1 + half * a1
        y2 = x2 + half * a2
        y3 = x3 + half * a3
        y4 = x4 + half * a4
        y5 = x5 + half * a5
        asympt = y3 + y4
        i_b = asympt + y5
        s1n = y1 / N
        s2n = y2 / N
        sw_in = sw2 * y4
        sw_out = sw1 * y3
        b1 = alpha2 * y2 / N - (alpha1 + beta1 * i_b) * s1n
        b2 = alpha1 * y1 / N - (alpha2 + beta2 * i_b) * s2n
        b3 = asym_rate1 * i_b * s1n + sw_in - sw_out - leave_a * y3
        b4 = asym_rate2 * i_b * s2n + sw_out - sw_in - leave_a * y4
        b5 = lam * (beta1 * s1n + beta2 * s2n) * i_b + gamma * asympt - kappa * y5
        y1 = x1 + half * b1
        y2 = x2 + half * b2
        y3 = x3 + half * b3
        y4 = x4 + half * b4
        y5 = x5 + half * b5
        asympt = y3 + y4
        i_c = asympt + y5
        s1n = y1 / N
        s2n = y2 / N
        sw_in = sw2 * y4
        sw_out = sw1 * y3
        c1 = alpha2 * y2 / N - (alpha1 + beta1 * i_c) * s1n
        c2 = alpha1 * y1 / N - (alpha2 + beta2 * i_c) * s2n
        c3 = asym_rate1 * i_c * s1n + sw_in - sw_out - leave_a * y3
        c4 = asym_rate2 * i_c * s2n + sw_out - sw_in - leave_a * y4
        c5 = lam * (beta1 * s1n + beta2 * s2n) * i_c + gamma * asympt - kappa * y5
        y1 = x1 + h * c1
        y2 = x2 + h * c2
        y3 = x3 + h * c3
        y4 = x4 + h * c4
        y5 = x5 + h * c5
        asympt = y3 + y4
        i_d = asympt + y5
        s1n = y1 / N
        s2n = y2 / N
        sw_in = sw2 * y4
        sw_out = sw1 * y3
        n1 = x1 + sixth * (
            a1 + 2.0 * (b1 + c1)
            + (alpha2 * y2 / N - (alpha1 + beta1 * i_d) * s1n)
        )
        n2 = x2 + sixth * (
            a2 + 2.0 * (b2 + c2)
            + (alpha1 * y1 / N - (alpha2 + beta2 * i_d) * s2n)
        )
        n3 = x3 + sixth * (
            a3 + 2.0 * (b3 + c3)
            + (asym_rate1 * i_d * s1n + sw_in - sw_out - leave_a * y3)
        )
        n4 = x4 + sixth * (
            a4 + 2.0 * (b4 + c4)
            + (asym_rate2 * i_d * s2n + sw_out - sw_in - leave_a * y4)
        )
        n5 = x5 + sixth * (
            a5 + 2.0 * (b5 + c5)
            + (lam * (beta1 * s1n + beta2 * s2n) * i_d + gamma * asympt
               - kappa * y5)
        )
        n6 = x6 + sixth * (
            kappa * i_a + 2.0 * (kappa * i_b + kappa * i_c) + kappa * i_d
        )
        new = (n1, n2, n3, n4, n5, n6)
        if not (
            0.0 <= n1 < inf and 0.0 <= n2 < inf and 0.0 <= n3 < inf
            and 0.0 <= n4 < inf and 0.0 <= n5 < inf and 0.0 <= n6 < inf
        ):
            _checked_step(new, (x1, x2, x3, x4, x5, x6), t, k, names)
        x1, x2, x3, x4, x5, x6 = new
        t = t_next
        if k % every == 0 or t >= t1:
            drift = abs(((x1 + x2) + (x3 + x4)) + x5 + x6 - n_expected)
            if drift > tol:
                raise _drifted(drift, t, k)
            yield t, new


def step_rk4(f: VectorField, s: Sequence[float], t: float, dt: float):
    """Advance the state s at time t by one RK4 step of size dt.

    f(t, components) receives the stage components as a plain tuple.
    Deterministic: identical inputs give bit-identical outputs.  The result
    has the same type as s (named state tuples stay named state tuples).

    Raises RangeError if dt is not finite or dt <= 0 or if f's first stage
    has another length than s, NonFiniteError if the step produces
    NaN/inf, NegativeStateError if any component falls below -1e-9 times
    the state's magnitude.  Either error is step 1 and names the component
    by the state type's field name, or by its position in a plain tuple.
    """
    if not math.isfinite(dt):
        raise RangeError(f"dt must be finite, got {dt}")
    if dt <= 0:
        raise RangeError(f"dt must be positive, got {dt}")
    cls = type(s)
    new = _step(f, s, t, dt, 1, getattr(cls, "_fields", None))
    return cls._make(new) if hasattr(cls, "_make") else cls(new)


def check_times(t0: float, t1: float, dt: float) -> None:
    """Raise RangeError unless t0, t1 and dt are finite, dt > 0, t1 > t0
    and the window takes at most MAX_STEPS steps of dt."""
    # to_float maps an int beyond the float range to +-inf, where
    # math.isfinite would raise OverflowError.
    if not (
        math.isfinite(to_float(t0))
        and math.isfinite(to_float(t1))
        and math.isfinite(to_float(dt))
    ):
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


def _check_init(names: Sequence[str], init: Sequence[float]) -> None:
    """Raise RangeError naming the first component of init that is not a
    finite number, or that lies below _checked_step's negativity floor."""
    for name, x in zip(names, init):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise RangeError(f"init {name} must be a number, got {x!r}")
        if not math.isfinite(to_float(x)):
            raise RangeError(f"init {name} must be finite, got {x!r}")
    floor = -NEGATIVE_TOL * sum(map(abs, init))
    for name, x in zip(names, init):
        if x < floor:
            raise RangeError(f"init {name} must be at least {floor}, got {x!r}")


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
    later ones are plain tuples of the components in init's field order.
    Each recorded state is checked to keep the initial total population
    within 1e-9 * N before it is yielded.  A failure raises a NumericError
    with its time and step number (from 1 at t0), and a step failure names
    its compartment.

    Raises RangeError (see check_times, a model that is not a ModelKind,
    a record_every that is not an int >= 1, an init whose length is not
    the model's state size, and an init component that is not a finite
    number at or above the negativity floor, -1e-9 times the sum of the
    magnitudes) at the call, before the first step.
    """
    check_times(t0, t1, dt)
    t0, dt = float(t0), float(dt)  # so every grid time t0 + k*dt is a float
    if isinstance(record_every, bool) or not isinstance(record_every, int):
        raise RangeError(f"record_every must be an int, got {record_every!r}")
    if record_every < 1:
        raise RangeError(f"record_every must be >= 1, got {record_every}")
    state, total = _layout(model)[:2]
    names = state._fields
    if len(init) != len(names):
        raise RangeError(
            f"{model.name} takes {len(names)} state components, got {len(init)}"
        )
    _check_init(names, init)
    n_expected = total(init)
    run = _run6 if len(names) == 6 else _run5
    return run(p, init, t0, t1, dt, record_every, n_expected, 1e-9 * abs(n_expected))


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

    Records and raises exactly as integrate does.  The trajectory keeps
    integrate's records; its states reads them as the model's state type,
    so init may be a plain tuple of the components.
    """
    times: list[float] = []
    records: list[Sequence[float]] = []
    for t, s in integrate(model, p, init, t0, t1, dt, record_every):
        times.append(t)
        records.append(s)
    records[0] = tuple(init)  # init may be a list
    return Trajectory(
        model=model,
        times=tuple(times),
        states=tuple(records),
        params_used=p,
        dt=float(dt),
    )


def _first_max(
    times: Sequence[float], values: Callable[[], Iterable[float]]
) -> tuple[float, float]:
    """Time and value of the first maximum of values(), which iterates the
    values that match times (it is called twice)."""
    # max keeps the first of equal maxima (-0.0 before 0.0).  It returns
    # NaN only for a NaN first value, which indexOf cannot find.
    best = max(values())
    if best != best:
        return times[0], best
    return times[indexOf(values(), best)], best


def peak_of(traj: Trajectory, obs: Observable) -> tuple[float, float]:
    """Time and value of the first recorded maximum of an observable."""
    if len(traj) == 0:
        raise EmptyTrajectoryError("trajectory has no recorded states")
    extract, states = obs.extract, traj.states
    return _first_max(traj.times, lambda: map(extract, states))
