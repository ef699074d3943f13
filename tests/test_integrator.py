"""Fixed-step RK4: accuracy on a known flow, grid discipline, guard rails."""

from __future__ import annotations

import math

import pytest

from socsir.core import ModelKind, StateMA, validate_params
from socsir.errors import (
    EmptyTrajectoryError,
    NegativeStateError,
    NonFiniteError,
    RangeError,
)
from socsir.integrator import (
    Observable,
    Trajectory,
    observables_for,
    peak_of,
    simulate,
    step_rk4,
)

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


def test_step_rk4_raises_on_negative_overshoot():
    with pytest.raises(NegativeStateError) as exc:
        step_rk4(lambda t, s: (-3.0,), (1.0,), 2.0, 1.0)
    assert exc.value.time == 2.0


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
