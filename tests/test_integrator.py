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

from socsir.core import ModelKind, StateMA, validate_params
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


def test_step_rk4_raises_on_nonfinite():
    with pytest.raises(NonFiniteError) as exc:
        step_rk4(lambda t, s: (float("inf"),), (1.0,), 3.0, 1.0)
    assert exc.value.time == 3.0


def _generic_step(f, s, t, dt):
    # step_rk4 on a positional field, so all three kernels take one form
    return step_rk4(lambda t, c: f(t, *c), s, t, dt)


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

    def f(t, *c):
        calls.append(t)
        return (math.inf,) + (0.0,) * (n - 1) if len(calls) == stage else (0.0,) * n

    with pytest.raises(NonFiniteError) as exc:
        step(f, (1.0,) * n, 4.0, 1.0)
    assert exc.value.time == 4.0


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_step_rk4_raises_on_negative_overshoot(kernel):
    step, n = KERNELS[kernel]
    with pytest.raises(NegativeStateError) as exc:
        step(lambda t, *c: (-3.0,) * n, (1.0,) * n, 2.0, 1.0)
    assert exc.value.time == 2.0


def _outcome(step, f, s, t, h):
    try:
        return [x.hex() for x in step(f, s, t, h)]
    except NumericError as exc:
        return type(exc), exc.time


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
                    _step, f, s, t, h
                )


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
    states = [
        StateMA(S1=0.0, S2=0.0, Is=v, Ia=0.0, R=0.0) for v in (0.0, 5.0, 5.0, 3.0)
    ]
    traj = Trajectory(
        model=ModelKind.MA,
        times=(0.0, 1.0, 2.0, 3.0),
        states=tuple(states),
        params_used=FIG_A,
        dt=1.0,
    )
    t, v = peak_of(traj, Observable("Is", lambda s: s.Is))
    assert (t, v) == (1.0, 5.0)


def test_peak_of_empty_trajectory():
    empty = Trajectory(
        model=ModelKind.MA, times=(), states=(), params_used=FIG_A, dt=1.0
    )
    with pytest.raises(EmptyTrajectoryError):
        peak_of(empty, Observable("Is", lambda s: s.Is))
