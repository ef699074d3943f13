"""CSV and SVG writers: exact layout, formatting, determinism."""

from __future__ import annotations

import re

import pytest

from socsir.core import ModelKind, StateMA, StateMB, validate_params
from socsir.errors import EmptyTrajectoryError, RangeError
from socsir.integrator import Trajectory, simulate
from socsir.output import _ticks, render_svg, write_csv
from socsir.scenarios import MixedSpec, ScenarioConfig, run_mixed

# The CSV headers: "t", then the layout's observables in CSV order.
HEADER_MA = "t,S1,S2,Ia,Is,R,I,N"
HEADER_MB = "t,S1,S2,A1,A2,Is,R,I,N"

MA_P = validate_params(
    {
        "beta1": 0.0042,
        "beta2": 0.0009,
        "lambda": 0.65,
        "gamma": 0.005,
        "kappa": 0.0006,
        "rho": 0.75,
        "N": 100.0,
    },
    ModelKind.MA,
)
MA_INIT = StateMA(S1=74.25, S2=24.75, Is=1.0, Ia=0.0, R=0.0)

MB_P = validate_params(
    {
        "beta1": 0.0042,
        "beta2": 0.0009,
        "lambda": 0.65,
        "gamma": 0.0005,
        "kappa": 0.0002,
        "alpha1": 0.1,
        "alpha2": 0.01,
        "N": 100.0,
    },
    ModelKind.MB,
)
MB_INIT = StateMB(S1=74.25, S2=24.75, A1=0.0, A2=0.0, Is=1.0, R=0.0)


def _traj_ma(t1=10.0, dt=1.0):
    return simulate(ModelKind.MA, MA_P, MA_INIT, 0.0, t1, dt)


def _traj_mb(t1=10.0, dt=1.0):
    return simulate(ModelKind.MB, MB_P, MB_INIT, 0.0, t1, dt)


# --- CSV ---------------------------------------------------------------------


def test_csv_headers():
    assert write_csv(_traj_ma()).splitlines()[0] == HEADER_MA
    assert write_csv(_traj_mb()).splitlines()[0] == HEADER_MB


def test_csv_shape_and_endings():
    text = write_csv(_traj_ma(t1=5.0))
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert "\r" not in text
    lines = text.splitlines()
    assert len(lines) == 1 + 6  # header + six records (t = 0..5)
    for line in lines:
        assert not line.endswith(",")
        assert len(line.split(",")) == len(HEADER_MA.split(","))


def test_csv_first_row_values():
    row = write_csv(_traj_ma()).splitlines()[1].split(",")
    assert row == ["0", "74.25", "24.75", "0", "1", "0", "1", "100"]


def test_csv_nine_significant_digits():
    text = write_csv(_traj_ma(t1=100.0))
    cell = text.splitlines()[-1].split(",")[1]  # S1 after 100 steps
    assert cell == f"{float(cell):.9g}"
    # 9 significant digits really are present, not fewer
    digits = cell.replace(".", "").replace("-", "").lstrip("0")
    assert len(digits) >= 8


def test_csv_infected_column_is_consistent():
    for text, ia_cols in ((write_csv(_traj_ma(t1=50.0)), ("Ia", "Is")),):
        header = text.splitlines()[0].split(",")
        for line in text.splitlines()[1:]:
            vals = dict(zip(header, map(float, line.split(","))))
            total_inf = sum(vals[c] for c in ia_cols)
            # each cell is independently rounded to 9 significant digits,
            # so the recomputed sum can drift a few parts in 1e9
            assert vals["I"] == pytest.approx(total_inf, rel=5e-8, abs=1e-12)
            assert vals["N"] == pytest.approx(100.0, rel=1e-9)


def test_csv_constant_trajectory_rows_identical():
    dfe = StateMA(S1=75.0, S2=25.0, Is=0.0, Ia=0.0, R=0.0)
    traj = simulate(ModelKind.MA, MA_P, dfe, 0.0, 3.0, 1.0)
    lines = write_csv(traj).splitlines()
    bodies = [line.split(",", 1)[1] for line in lines[1:]]
    assert len(set(bodies)) == 1


def test_csv_mixed_run_single_header():
    cfg = ScenarioConfig(
        model=ModelKind.SINGLE,
        params=validate_params(
            {
                "beta1": 0.0011,
                "beta2": 0.0001,
                "lambda": 0.65,
                "gamma": 0.0001,
                "kappa": 0.0002,
                "alpha1": 0.001,
                "alpha2": 0.0001,
                "N": 100.0,
            },
            ModelKind.MB,
        ),
        init_state=StateMA(S1=99.0, S2=0.0, Is=1.0, Ia=0.0, R=0.0),
        t0=0.0,
        t1=200.0,
        dt=1.0,
        mixed=MixedSpec(t_switch=100.0, rho_split=0.25),
    )
    text = write_csv(run_mixed(cfg).trajectory)
    lines = text.splitlines()
    assert lines[0] == HEADER_MB
    assert sum(1 for l in lines if l == HEADER_MB) == 1
    ts = [float(l.split(",", 1)[0]) for l in lines[1:]]
    assert ts == sorted(ts)
    assert len(set(ts)) == len(ts)


def test_csv_deterministic():
    assert write_csv(_traj_ma(t1=200.0)) == write_csv(_traj_ma(t1=200.0))


# --- SVG ---------------------------------------------------------------------


def test_svg_basic_structure():
    svg = render_svg(_traj_ma(), ["I", "R"])
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.endswith("\n")
    assert svg.count("<polyline") == 2
    assert ">I</text>" in svg and ">R</text>" in svg  # legend labels
    assert ">t</text>" in svg  # x axis label


def test_svg_element_vocabulary_is_small():
    svg = render_svg(_traj_mb(), ["S1", "S2", "I"])
    for fragment in ("<rect", "<circle", "<path", "<script", "<image"):
        assert fragment not in svg


def test_svg_two_point_trajectory():
    traj = simulate(ModelKind.MA, MA_P, MA_INIT, 0.0, 1.0, 1.0)
    svg = render_svg(traj, ["I"])
    start = svg.index('points="') + len('points="')
    pts = svg[start : svg.index('"', start)].split()
    assert len(pts) == 2
    for pt in pts:
        x, y = pt.split(",")
        float(x), float(y)  # well-formed pairs


def _points(svg):
    start = svg.index('points="') + len('points="')
    return svg[start : svg.index('"', start)].split()


def test_svg_single_record_trajectory():
    # a zero-width time span is widened to one unit, so the lone point sits
    # on the y axis instead of dividing by zero
    traj = Trajectory(
        model=ModelKind.MA, times=(3.0,), states=(MA_INIT,), params_used=MA_P, dt=1.0
    )
    svg = render_svg(traj, ["I"])
    assert _points(svg) == ["72.00,40.00"]  # I = 1 tops the [0, 1] y range
    assert "nan" not in svg and "inf" not in svg


def test_svg_constant_zero_series():
    # nobody infected: I stays 0, and the zero-height y span is widened to
    # one unit, so the curve lies flat on the x axis
    healthy = StateMA(S1=75.0, S2=25.0, Is=0.0, Ia=0.0, R=0.0)
    traj = simulate(ModelKind.MA, MA_P, healthy, 0.0, 4.0, 1.0)
    svg = render_svg(traj, ["I"])
    ys = {pt.split(",")[1] for pt in _points(svg)}
    assert ys == {"432.00"}
    assert "nan" not in svg and "inf" not in svg


def test_svg_coordinates_two_decimals():
    svg = render_svg(_traj_ma(t1=50.0), ["I"])
    start = svg.index('points="') + len('points="')
    first_pair = svg[start : svg.index('"', start)].split()[0]
    x, y = first_pair.split(",")
    assert len(x.split(".")[1]) == 2
    assert len(y.split(".")[1]) == 2


def test_svg_validations():
    traj = _traj_ma()
    with pytest.raises(RangeError):
        render_svg(traj, [])
    with pytest.raises(RangeError):
        render_svg(traj, ["I"], width=0.0)
    # non-finite sizes used to reach the markup as width="nan"
    for size in (float("nan"), float("inf")):
        with pytest.raises(RangeError, match="finite"):
            render_svg(traj, ["I"], width=size)
        with pytest.raises(RangeError, match="finite"):
            render_svg(traj, ["I"], height=size)
    with pytest.raises(RangeError):
        render_svg(traj, ["A1"])  # not an observable of this model
    empty = Trajectory(
        model=ModelKind.MA, times=(), states=(), params_used=MA_P, dt=1.0
    )
    with pytest.raises(EmptyTrajectoryError):
        render_svg(empty, ["I"])


def test_svg_deterministic():
    a = render_svg(_traj_mb(t1=100.0), ["S1", "S2", "Is", "I"])
    b = render_svg(_traj_mb(t1=100.0), ["S1", "S2", "Is", "I"])
    assert a == b


def test_svg_custom_dimensions():
    svg = render_svg(_traj_ma(), ["I"], width=400.0, height=300.0)
    assert 'width="400.00"' in svg and 'height="300.00"' in svg


def test_ticks_stop_at_the_axis_end():
    # the ticks ran 1e-9 * |hi| past the end, 500 of 506 of them here
    assert _ticks(1e12, 1e12 + 10) == [1e12 + 2.0 * k for k in range(6)]
    assert _ticks(-1e12 - 10, -1e12) == [-1e12 - 10 + 2.0 * k for k in range(6)]


def test_ticks_reject_a_step_that_does_not_move_a_tick():
    # the step 5 is below half an ulp (8) of 1e17, where v + step == v; the
    # span 16 is far below 1e-12 of the axis, too narrow to plot
    with pytest.raises(RangeError, match="the span 16.0 is below 1e-12 of max"):
        _ticks(1e17, 1e17 + 16)


def test_ticks_below_a_unit_step_stop_at_the_axis_end():
    # a step below 1 let the ticks run 1e-9 past the end: 56 ticks, 50 of
    # them beyond 1e-10
    ticks = _ticks(0.0, 1e-10)
    assert len(ticks) == 6
    assert ticks[0] == 0.0 and ticks[-1] == pytest.approx(1e-10, rel=1e-9)
    assert _ticks(0.0, 1e-12) == pytest.approx([2e-13 * k for k in range(6)])


@pytest.mark.parametrize(
    "lo, hi",
    [(0.0, 1e-300), (0.0, 9e-13), (1e17, 1e17 + 16), (1e6, 1e6 + 1e-7),
     (-1e12 - 0.5, -1e12)],
)
def test_ticks_reject_an_axis_too_narrow_to_plot(lo, hi):
    # one rule: a span below 1e-12 of max(|lo|, |hi|, 1); the last two
    # axes used to draw six ticks that all read the same
    with pytest.raises(RangeError, match="is below 1e-12 of max"):
        _ticks(lo, hi)


def test_adjacent_tick_labels_differ():
    # "%.6g" gave each of the six x ticks of a run at t = 1e12 the label
    # 1e+12; the labels now take their digits from the tick step
    traj = Trajectory(
        model=ModelKind.MA, times=(1e12, 1e12 + 10), states=(MA_INIT, MA_INIT),
        params_used=MA_P, dt=10.0,
    )
    svg = render_svg(traj, ["I"])
    x_labels = re.findall(r'font-size="11" text-anchor="middle">([^<]*)<', svg)
    assert x_labels == [str(10**12 + 2 * k) for k in range(6)]
    # an axis whose "%.6g" labels already differ keeps them
    y_labels = re.findall(r'font-size="11" text-anchor="end">([^<]*)<', svg)
    assert y_labels == ["0", "0.2", "0.4", "0.6", "0.8", "1"]
