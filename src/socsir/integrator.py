"""Fixed-step fourth-order Runge-Kutta integration with recording.

The solver is deliberately plain: classical RK4, constant dt (default 1
time unit), bit-for-bit deterministic.  The dynamics at the parameter
scales this package targets are nonstiff, so there is no adaptive stepping
and no implicit machinery.  A state that turns non-finite or meaningfully
negative raises instead of being clamped; clamping would silently break
conservation, while the error tells the caller to shrink dt.
"""

from __future__ import annotations

import functools
import math
import re
from math import inf
from operator import indexOf
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .core import (
    _LAYOUT, ModelKind, Params, State, _check_kind, _finite, _layout, _layout_for,
    _size, _state_names,
)
from .dynamics import _TEXTS, _define, _indent, _Text
from .errors import (
    EmptyTrajectoryError,
    NegativeStateError,
    NonFiniteError,
    NumericError,
    RangeError,
)

# step_rk4's vector field maps (time, state-tuple) to a derivative tuple of
# the same length; dynamics.vector_field's take the components instead.
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
    """The standard observables of a model, keyed by name, in CSV order.
    Each reads a state, named or a plain tuple, by position."""
    return {
        name: Observable(name, read)
        for name, read in _layout(model).observables.items()
    }


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

    Times or records that are not sequences, records that differ from the
    times in number, or from the model's state in size, raise RangeError.
    The records are kept as given: simulate and run_mixed pass the kernels'
    plain component tuples, which compare and hash as the named states do.
    states builds the named states on first read and keeps them in place of
    the plain tuples.
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
        size = len(_layout(model).state._fields)
        n_times, n_records = _size(times), _size(states)
        try:
            lengths = set(map(len, states))
        except TypeError:  # states, or a record in it, has no len()
            lengths = {None}
        if n_times != n_records or not lengths <= {size}:
            raise RangeError(
                f"{model.name} trajectories take one record of {size} components "
                f"per time, got {n_times} times and {n_records} records of "
                f"lengths {sorted(lengths)}"
            )
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


def _floor(s: Sequence[float]) -> float:
    """The negativity floor of s: -NEGATIVE_TOL times its magnitudes' sum."""
    return -NEGATIVE_TOL * sum(map(abs, s))


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
        floor = _floor(s)
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
    number of components; integrate's kernels (_kernel) are the same
    arithmetic written out per component.  step and names label a failure
    (_checked_step).
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


# integrate's whole-run kernel of a model is _step on its vector field,
# written out: _kernel puts the field's text (dynamics._Text) into the four
# RK4 stages of _KERNEL, the components renamed x1, x2, ... in the first
# stage and y1, y2, ... after it, and the derivatives a1, a2, ... in the
# first stage through d1, d2, ... in the fourth.  Every
# expression keeps the operands and their order of _step and of the field,
# so the records are bit-identical, and a component that no expression
# reads (R) gets no stage inputs.  A field text must not use the template's
# own names.  Step k ends at t0 + k*dt (no additive rounding over a long
# run), or at t1 exactly.  A result in [0, inf) passes _checked_step
# untouched (NaN fails every comparison), so only another result is sent
# there.  Each record's total, grouped as core.total5/total6 group it
# (_TOTAL, the kernel's text copy of them), is checked against n_expected
# before the record is yielded.
_KERNEL = """\
def run(p, s, t0, t1, dt, every, n_expected, tol):
{prelude}
    t = t0
    yield t, s
    {xs} = s
    h = dt
    half = 0.5 * h
    sixth = h / 6.0
    k = 0
    while t < t1:
        k += 1
        t_next = t0 + k * dt
        if t_next >= t1:
            t_next = t1
            h = t1 - t
            half = 0.5 * h
            sixth = h / 6.0
{steps}
        new = ({ns})
        if not ({fast}):
            _checked_step(new, ({xs}), t, k, names)
        {xs} = new
        t = t_next
        if k % every == 0 or t >= t1:
            drift = abs({total} - n_expected)
            if drift > tol:
                raise _drifted(drift, t, k)
            yield t, new
"""

_TOTAL = {5: "((x1 + x2) + x4) + x3 + x5", 6: "((x1 + x2) + (x3 + x4)) + x5 + x6"}


@functools.cache
def _kernel(text: _Text):
    """integrate's whole-run generator for a field text, built on its
    first use from the file <socsir kernel NAME>."""
    n = range(1, len(text.fields) + 1)
    words = set(re.findall(r"\w+", text.body))
    read = [i for i in n if text.fields[i - 1] in words]
    steps = []
    for letter, inputs, then in (
        ("a", "x", "half"), ("b", "y", "half"), ("c", "y", "h"), ("d", "y", None)
    ):
        rename = dict(zip(text.fields, (f"{inputs}{i}" for i in n)))
        rename.update(("d" + name, f"{letter}{i}") for i, name in zip(n, text.fields))
        steps.append(re.sub(r"\w+", lambda m: rename.get(m[0], m[0]), text.body))
        if then:
            steps.extend(f"y{i} = x{i} + {then} * {letter}{i}\n" for i in read)
    steps.extend(
        f"n{i} = x{i} + sixth * (a{i} + 2.0 * (b{i} + c{i}) + d{i})\n" for i in n
    )
    source = _KERNEL.format(
        prelude=_indent(text.prelude, " " * 4).rstrip("\n"),
        steps=_indent("".join(steps), " " * 8).rstrip("\n"),
        xs=", ".join(f"x{i}" for i in n),
        ns=", ".join(f"n{i}" for i in n),
        fast=" and ".join(f"0.0 <= n{i} < inf" for i in n),
        total=_TOTAL[len(n)],
    )
    return _define(
        f"<socsir kernel {text.name}>", source, inf=inf, _checked_step=_checked_step,
        _drifted=_drifted, names=text.fields,
    )["run"]


def step_rk4(f: VectorField, s: Sequence[float], t: float, dt: float):
    """Advance the state s at time t by one RK4 step of size dt.

    f(t, components) receives the stage components as a plain tuple.
    Deterministic: identical inputs give bit-identical outputs.  The result
    has the same type as s (named state tuples stay named state tuples).

    Raises RangeError if f is not callable, s is not a nonempty tuple or
    list of numbers, t is not a finite number, dt is not a finite number
    > 0 or f's first stage has another length than s.  Raises
    NonFiniteError for a NaN or inf component of s or if the step produces
    NaN/inf, NegativeStateError if any component falls below -1e-9 times
    the state's magnitude.  A failed step is step 1 and names the component
    by the state type's field name, or by its position in a plain tuple.
    """
    if not callable(f):
        raise RangeError(f"f must be callable, got {type(f).__name__}")
    if not isinstance(s, (tuple, list)) or not s:
        raise RangeError(f"s must be a nonempty tuple or list of numbers, got {s!r}")
    for x in s:
        _finite("state component", x, NonFiniteError)
    _finite("t", t)
    if _finite("dt", dt) <= 0:
        raise RangeError(f"dt must be positive, got {dt}")
    cls = type(s)
    new = _step(f, s, t, dt, 1, getattr(cls, "_fields", None))
    return cls._make(new) if hasattr(cls, "_make") else cls(new)


def check_times(t0: float, t1: float, dt: float) -> tuple[float, float, float]:
    """t0, t1 and dt as floats.  Raise RangeError unless each is a finite
    number (core._finite), dt > 0, t1 > t0 and the window takes at most
    MAX_STEPS steps of dt."""
    window = (t0, t1, dt)
    try:
        t0, t1, dt = map(_finite, ("t0", "t1", "dt"), window)
    except RangeError as exc:
        t0, t1, dt = window
        raise RangeError(f"{exc}; t0={t0}, t1={t1}, dt={dt}") from None
    if dt <= 0:
        raise RangeError(f"dt must be positive, got {dt}")
    if t1 <= t0:
        raise RangeError(f"t1 must exceed t0, got t0={t0}, t1={t1}")
    if (t1 - t0) / dt > MAX_STEPS:
        raise RangeError(
            f"t0={t0}, t1={t1}, dt={dt} needs more than {MAX_STEPS} steps; "
            f"shorten the window or raise dt"
        )
    return t0, t1, dt


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

    Raises RangeError (see check_times, a model and parameters that
    core._layout_for refuses, a record_every that is not an int >= 1, an
    init that core._state_names refuses, and an init component
    that is not a finite number at or above the negativity floor, -1e-9
    times the sum of the magnitudes) at the call, before the first step.
    """
    t0, t1, dt = check_times(t0, t1, dt)  # every grid time t0 + k*dt is a float
    if isinstance(record_every, bool) or not isinstance(record_every, int):
        raise RangeError(f"record_every must be an int, got {record_every!r}")
    if record_every < 1:
        raise RangeError(f"record_every must be >= 1, got {record_every}")
    names = _state_names(model, init, "init", RangeError)
    floor = _floor(init)  # _checked_step's negativity floor
    for name, x in zip(names, init):
        if x < floor:
            raise RangeError(f"init {name} must be at least {floor}, got {x!r}")
    layout = _layout_for(model, p)
    n_expected = layout.observables["N"](init)
    run = _kernel(_TEXTS[layout.state])
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
    """Time and value of the first recorded maximum of an observable.

    Raises RangeError for a traj that is not a Trajectory, and for an obs
    that is not an Observable (a name too: observables_for maps names to
    them), whose extract is not callable, or that is a standard observable
    of another model than traj's.
    """
    _check_kind("traj", traj, Trajectory)
    if not isinstance(obs, Observable):
        raise RangeError(f"obs must be an Observable, got {obs!r}")
    if not callable(obs.extract):
        raise RangeError(f"obs must be an Observable with a callable extract: {obs!r}")
    extract = obs.extract
    if extract not in _layout(traj.model).observables.values() and any(
        extract in layout.observables.values() for layout in _LAYOUT.values()
    ):
        raise RangeError(
            f"obs {obs.name!r} is another model's observable; take "
            f"observables_for(ModelKind.{traj.model.name})"
        )
    if len(traj) == 0:
        raise EmptyTrajectoryError("trajectory has no recorded states")
    states = traj.states
    return _first_max(traj.times, lambda: map(extract, states))
