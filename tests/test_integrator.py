"""Fixed-step RK4: accuracy on a known flow, grid discipline, guard rails."""

from __future__ import annotations

import math
import os
import pathlib
import random
import subprocess
import sys
import textwrap

import pytest

from socsir import integrator
from socsir.core import (
    ModelKind,
    StateMA,
    StateMB,
    total5,
    total6,
    total_population,
    validate_params,
)
from socsir.dynamics import vector_field
from socsir.errors import (
    EmptyTrajectoryError,
    NegativeStateError,
    NonFiniteError,
    NumericError,
    RangeError,
)
from socsir.integrator import (
    MAX_STEPS,
    Observable,
    Trajectory,
    _step,
    _step5,
    _step6,
    check_times,
    integrate,
    observables_for,
    peak_of,
    simulate,
    step_rk4,
)
from socsir.scenarios import INIT_RULE_DFE_PLUS_ONE, resolve_init
from tests._samplers import draw_raw_params

FIG_A = validate_params(
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
FIG_A_INIT = StateMA(S1=74.25, S2=24.75, Is=1.0, Ia=0.0, R=0.0)
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_step_rk4_exponential_decay():
    # y' = -y over h=0.1: classical RK4 reproduces the quartic Taylor
    # polynomial of exp(-h) exactly
    (y,) = step_rk4(lambda t, s: (-s[0],), (1.0,), 0.0, 0.1)
    h = 0.1
    poly = 1.0 - h + h * h / 2 - h**3 / 6 + h**4 / 24
    assert y == pytest.approx(poly, rel=1e-15)
    assert y == pytest.approx(math.exp(-h), abs=1e-7)


def test_step_rk4_preserves_state_type():
    out = step_rk4(
        lambda t, s: (0.0,) * 5, FIG_A_INIT, 0.0, 1.0
    )
    assert isinstance(out, StateMA)
    assert out == FIG_A_INIT


def test_step_rk4_rejects_bad_dt():
    with pytest.raises(RangeError):
        step_rk4(lambda t, s: (0.0,), (1.0,), 0.0, 0.0)


@pytest.mark.parametrize("dt", [math.nan, math.inf])
def test_step_rk4_rejects_non_finite_dt(dt):
    # nan passed the dt <= 0 test and both surfaced as a NonFiniteError
    with pytest.raises(RangeError, match="dt must be finite"):
        step_rk4(lambda t, s: (0.0,), (1.0,), 0.0, dt)


@pytest.mark.parametrize(
    "state",
    [(1.0, 2.0, 3.0), FIG_A_INIT, (1.0,)],
    ids=["plain-short", "named-short", "plain-long"],
)
def test_step_rk4_rejects_a_field_of_another_length(state):
    # a short field truncated a plain state silently, and a named state
    # failed in _make with a raw TypeError; a long one lost its extra parts
    k1 = (0.0,) if len(state) > 1 else (0.0, 0.0)
    with pytest.raises(RangeError, match="components for a state of"):
        step_rk4(lambda t, s: k1, state, 0.0, 1.0)


def test_step_rk4_raises_on_nonfinite():
    with pytest.raises(NonFiniteError) as exc:
        step_rk4(lambda t, s: (float("inf"),), (1.0,), 3.0, 1.0)
    assert exc.value.time == 3.0


def _generic_step(f, s, t, dt):
    # step_rk4 on a positional field, so all three kernels take one form
    return step_rk4(lambda t, c: f(*c), s, t, dt)


# (kernel, state size): the generic step behind step_rk4 and the two
# unrolled steps integrate runs
KERNELS = {
    "step_rk4": (_generic_step, 1),
    "_step5": (_step5, 5),
    "_step6": (_step6, 6),
}


@pytest.mark.parametrize("stage", [2, 3])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_step_rk4_raises_on_nonfinite_inner_stage(kernel, stage):
    # the kernels check only the result, so a stage that alone turns
    # non-finite must still surface there
    step, n = KERNELS[kernel]
    calls = []

    def f(*c):
        calls.append(c)
        return (math.inf,) + (0.0,) * (n - 1) if len(calls) == stage else (0.0,) * n

    with pytest.raises(NonFiniteError) as exc:
        step(f, (1.0,) * n, 4.0, 1.0)
    assert exc.value.time == 4.0


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_step_rk4_raises_on_negative_overshoot(kernel):
    step, n = KERNELS[kernel]
    with pytest.raises(NegativeStateError) as exc:
        step(lambda *c: (-3.0,) * n, (1.0,) * n, 2.0, 1.0)
    assert exc.value.time == 2.0


def _outcome(step, f, s, t, h):
    try:
        return [x.hex() for x in step(f, s, t, h)]
    except NumericError as exc:
        return type(exc), exc.time, str(exc)


# Result components around the unrolled steps' fast check, each as
# (start value, constant derivative, expected error class or None).  The
# other components start at 1.0 with derivative 0, which puts the
# negativity floor near -5e-9.
_EDGE_RESULTS = {
    "nan": (1.0, math.nan, NonFiniteError),
    "+inf": (1.0, math.inf, NonFiniteError),
    "-inf": (1.0, -math.inf, NonFiniteError),
    "-0.0": (-0.0, -0.0, None),
    "negative within the floor": (0.0, -1e-12, None),
    "negative below the floor": (0.0, -1.0, NegativeStateError),
    "largest finite": (sys.float_info.max, 0.0, None),
}


@pytest.mark.parametrize("edge", sorted(_EDGE_RESULTS))
@pytest.mark.parametrize("unrolled, n", [(_step5, 5), (_step6, 6)])
def test_fast_check_matches_generic_step_at_edges(unrolled, n, edge):
    # the fast check in _step5/_step6 must pass exactly the results that
    # _checked_step passes, and leave the others to raise as _step does
    start, rate, error = _EDGE_RESULTS[edge]
    for i in range(n):
        s = tuple(start if j == i else 1.0 for j in range(n))
        deriv = tuple(rate if j == i else 0.0 for j in range(n))

        def f(*c):
            return deriv

        got = _outcome(unrolled, f, s, 7.0, 1.0)
        assert got == _outcome(_step, lambda t, c: f(*c), s, 7.0, 1.0)
        if error is None:
            assert isinstance(got, list)
        else:
            assert got[:2] == (error, 7.0)


@pytest.mark.parametrize(
    "model, unrolled", [(ModelKind.MA, _step5), (ModelKind.MB, _step6)]
)
def test_unrolled_steps_match_generic_step_bit_for_bit(model, unrolled):
    # the unrolled steps must give exactly _step's bits or raise the same
    # error at the same time, on full steps and on a partial final step,
    # from states along sampler runs
    rng = random.Random(20221018)
    for _ in range(1000):
        p = validate_params(draw_raw_params(rng, model), model)
        f = vector_field(model, p)
        dt = rng.uniform(0.1, 5.0)
        states = []
        try:
            for t, s in integrate(
                model, p, resolve_init(model, p, INIT_RULE_DFE_PLUS_ONE),
                0.0, 40 * dt, dt,
            ):
                states.append((t, s))
        except NumericError:
            pass
        for t, s in states[:: rng.randint(5, 10)]:
            for h in (dt, dt * rng.random()):
                assert _outcome(unrolled, f, s, t, h) == _outcome(
                    _step, lambda t, c: f(*c), s, t, h
                )


@pytest.mark.parametrize(
    "total, state_type, named",
    [
        (total5, StateMA, lambda s: ((s.S1 + s.S2) + s.Ia) + s.Is + s.R),
        (total6, StateMB, lambda s: ((s.S1 + s.S2) + (s.A1 + s.A2)) + s.Is + s.R),
    ],
    ids=["total5-StateMA", "total6-StateMB"],
)
def test_raw_totals_match_total_population_bit_for_bit(total, state_type, named):
    # the positional groupings, and total_population on raw and named
    # states, against the grouping written with field names
    rng = random.Random(14)
    n = len(state_type._fields)
    for _ in range(2000):
        s = tuple(rng.uniform(0.0, 10.0 ** rng.randint(-3, 6)) for _ in range(n))
        state = state_type._make(s)
        want = named(state).hex()
        assert total(s).hex() == want
        assert total_population(s).hex() == want
        assert total_population(state).hex() == want


@pytest.mark.parametrize("record_every", [1, 5])
@pytest.mark.parametrize(
    "model, init",
    [
        (ModelKind.MA, FIG_A_INIT),
        (ModelKind.MB, StateMB(70.0, 29.0, 0.0, 0.0, 1.0, 0.0)),
    ],
)
def test_drift_check_stops_at_first_drifting_record(
    monkeypatch, model, init, record_every
):
    # a field that creates population at 3e-8 per unit time crosses the
    # 1e-9 * N = 1e-7 tolerance after the fourth step of dt = 1
    n = len(init)
    leak = tuple(3e-8 if j == 3 else 0.0 for j in range(n))
    monkeypatch.setattr(
        integrator, "vector_field", lambda model, p: lambda *c: leak
    )

    # reference: the generic step, named states and total_population
    n0 = total_population(init)
    s, k, first_bad = init, 0, None
    while first_bad is None:
        s = type(init)._make(_step(lambda t, c: leak, s, float(k), 1.0))
        k += 1
        if k % record_every == 0 and abs(total_population(s) - n0) > 1e-9 * n0:
            first_bad = float(k)
    assert first_bad == (4.0 if record_every == 1 else 5.0)

    times = []
    with pytest.raises(NumericError, match="population drifted") as exc:
        for t, _ in integrate(model, FIG_A, init, 0.0, 20.0, 1.0, record_every):
            times.append(t)
    assert exc.value.time == first_bad
    assert times == [float(k) for k in range(0, int(first_bad), record_every)]


@pytest.mark.parametrize(
    "model, init",
    [
        (ModelKind.MA, StateMB(70.0, 29.0, 0.0, 0.0, 1.0, 0.0)),
        (ModelKind.SINGLE, StateMB(70.0, 29.0, 0.0, 0.0, 1.0, 0.0)),
        (ModelKind.MB, FIG_A_INIT),
    ],
)
def test_integrate_rejects_a_state_of_the_wrong_length(model, init):
    # MA with an MB state used to escape as a raw TypeError from the field
    with pytest.raises(RangeError, match="state components"):
        simulate(model, FIG_A, init, 0.0, 5.0, 1.0)


def test_simulate_grid_times_are_exact():
    traj = simulate(ModelKind.MA, FIG_A, FIG_A_INIT, 0.0, 5.0, 0.5)
    assert traj.times == tuple(0.0 + k * 0.5 for k in range(11))


def test_simulate_partial_final_step():
    traj = simulate(ModelKind.MA, FIG_A, FIG_A_INIT, 0.0, 3.7, 1.0)
    assert traj.times == (0.0, 1.0, 2.0, 3.0, 3.7)


def test_simulate_record_every():
    traj = simulate(ModelKind.MA, FIG_A, FIG_A_INIT, 0.0, 10.0, 1.0, record_every=4)
    assert traj.times == (0.0, 4.0, 8.0, 10.0)


def test_simulate_validations():
    with pytest.raises(RangeError):
        simulate(ModelKind.MA, FIG_A, FIG_A_INIT, 5.0, 5.0, 1.0)
    with pytest.raises(RangeError):
        simulate(ModelKind.MA, FIG_A, FIG_A_INIT, 0.0, 5.0, 1.0, record_every=0)
    # 1.5 used to record at t = 0, 3, 6, ... and True was taken as 1
    for every in (1.5, True):
        with pytest.raises(RangeError, match="record_every must be an int"):
            simulate(ModelKind.MA, FIG_A, FIG_A_INIT, 0.0, 5.0, 1.0, record_every=every)


@pytest.mark.parametrize(
    "t0, t1, dt",
    [
        (math.nan, 5.0, 1.0),
        (0.0, math.nan, 1.0),
        (0.0, 5.0, math.nan),
        (0.0, 5.0, math.inf),
    ],
)
def test_simulate_rejects_non_finite_times(t0, t1, dt):
    # t0 = -inf and t1 = inf are covered through the CLI in a subprocess,
    # since a build without this check loops forever on them
    with pytest.raises(RangeError, match="finite"):
        simulate(ModelKind.MA, FIG_A, FIG_A_INIT, t0, t1, dt)


def test_check_times_caps_the_step_count():
    check_times(0.0, float(MAX_STEPS), 1.0)
    check_times(1.0, 1.0 + 2.0 * MAX_STEPS, 2.0)
    with pytest.raises(RangeError, match=f"more than {MAX_STEPS} steps"):
        check_times(0.0, MAX_STEPS + 0.5, 1.0)
    with pytest.raises(RangeError, match="steps"):
        check_times(-1e308, 1e308, 1.0)  # t1 - t0 overflows to inf


_BAD_TIME_RUN = textwrap.dedent(
    """
    import math
    from socsir import (ModelKind, RangeError, covid_mitigation_presets,
                        participation_scan, preset_params, resolve_init,
                        simulate)
    masks = covid_mitigation_presets()[0]
    p = preset_params(masks)
    init = resolve_init(ModelKind.MB, p, "dfe_plus_one_symptomatic")
    try:
        {call}
    except RangeError:
        raise SystemExit(0)
    raise SystemExit("no RangeError")
    """
)


@pytest.mark.parametrize(
    "call",
    [
        "simulate(ModelKind.MB, p, init, 0.0, 10.0, 0.0)",
        "simulate(ModelKind.MB, p, init, 0.0, 10.0, -1.0)",
        "simulate(ModelKind.MB, p, init, 0.0, math.inf, 1.0)",
        "participation_scan(masks, 80.0, [0.5], dt=0.0)",
        "participation_scan(masks, 80.0, [0.5], dt=-1.0)",
        "participation_scan(masks, 80.0, [0.5], t1=math.inf)",
        "simulate(ModelKind.MB, p, init, 0.0, 1e9, 1.0)",
        "participation_scan(masks, 80.0, [0.5], t1=1e9)",
    ],
)
def test_bad_times_raise_before_stepping(call):
    # a kernel without these checks loops forever, so each case runs in a
    # separate process with a timeout: a regression fails instead of hanging
    done = subprocess.run(
        [sys.executable, "-c", _BAD_TIME_RUN.format(call=call)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert done.returncode == 0, done.stderr


def test_simulate_conserves_population():
    traj = simulate(ModelKind.MA, FIG_A, FIG_A_INIT, 0.0, 2000.0, 2.0)
    from socsir.core import total_population

    n0 = total_population(traj.states[0])
    worst = max(abs(total_population(s) - n0) for s in traj.states)
    assert worst <= 1e-9 * n0


def test_simulate_is_deterministic():
    a = simulate(ModelKind.MA, FIG_A, FIG_A_INIT, 0.0, 100.0, 1.0)
    b = simulate(ModelKind.MA, FIG_A, FIG_A_INIT, 0.0, 100.0, 1.0)
    assert a.times == b.times
    assert a.states == b.states  # tuple equality is bitwise on floats


def test_simulate_states_stay_named():
    traj = simulate(ModelKind.MA, FIG_A, FIG_A_INIT, 0.0, 3.0, 1.0)
    assert all(isinstance(s, StateMA) for s in traj.states)


@pytest.mark.parametrize("model", [ModelKind.MA, ModelKind.MB])
def test_simulate_takes_its_record_type_from_the_model(model):
    # a plain tuple as init used to fail with a raw AttributeError, as
    # the record type was read off init
    p = validate_params(draw_raw_params(random.Random(19), model), model)
    named = resolve_init(model, p, INIT_RULE_DFE_PLUS_ONE)
    traj = simulate(model, p, tuple(named), 0.0, 10.0)
    assert traj == simulate(model, p, named, 0.0, 10.0)
    state_type = StateMB if model is ModelKind.MB else StateMA
    assert all(type(s) is state_type for s in traj.states)


def test_observables_cover_model_fields():
    ma = observables_for(ModelKind.MA)
    assert set(ma) == {"S1", "S2", "Ia", "Is", "R", "I", "N"}
    mb = observables_for(ModelKind.MB)
    assert set(mb) == {"S1", "S2", "A1", "A2", "Is", "R", "I", "N"}
    s = StateMA(S1=1.0, S2=2.0, Is=3.0, Ia=4.0, R=5.0)
    assert ma["Ia"].extract(s) == 4.0
    assert ma["I"].extract(s) == 7.0
    assert ma["N"].extract(s) == 15.0


def test_peak_of_returns_first_maximum():
    obs = observables_for(ModelKind.MA)
    cases = [
        ((0.0, 5.0, 5.0, 3.0), (1.0, 5.0)),
        ((1.0, 5.0, 3.0, 5.0), (1.0, 5.0)),  # a later equal maximum
        ((-1.0, -0.0, 0.0), (1.0, -0.0)),  # -0.0 == 0.0, and comes first
        ((7.0,), (0.0, 7.0)),
    ]
    for values, want in cases:
        # Ia = -0.0 makes I = Ia + Is the same bits as Is, -0.0 included
        states = [StateMA(S1=0.0, S2=0.0, Is=v, Ia=-0.0, R=0.0) for v in values]
        traj = Trajectory(
            model=ModelKind.MA,
            times=tuple(map(float, range(len(values)))),
            states=tuple(states),
            params_used=FIG_A,
            dt=1.0,
        )
        for ob in (Observable("Is", lambda s: s.Is), obs["Is"], obs["I"]):
            t, v = peak_of(traj, ob)
            assert (t, v) == want
            assert math.copysign(1.0, v) == math.copysign(1.0, want[1])
    # a NaN first value compares below nothing, so it stays the pick
    nan_first = Trajectory(
        model=ModelKind.MA,
        times=(0.0, 1.0),
        states=(
            StateMA(S1=0.0, S2=0.0, Is=math.nan, Ia=0.0, R=0.0),
            StateMA(S1=0.0, S2=0.0, Is=1.0, Ia=0.0, R=0.0),
        ),
        params_used=FIG_A,
        dt=1.0,
    )
    for ob in (obs["Is"], obs["I"]):
        t, v = peak_of(nan_first, ob)
        assert t == 0.0 and math.isnan(v)


def test_peak_of_empty_trajectory():
    empty = Trajectory(
        model=ModelKind.MA, times=(), states=(), params_used=FIG_A, dt=1.0
    )
    with pytest.raises(EmptyTrajectoryError):
        peak_of(empty, Observable("Is", lambda s: s.Is))
