"""Trajectory writers: CSV tables and standalone SVG line plots.

Both writers are deterministic: the same trajectory yields byte-identical
output.  Numbers in CSV carry 9 significant digits; SVG coordinates are
fixed to two decimals so float noise below plotting resolution cannot
leak into the bytes.

The SVG stays inside a small element vocabulary (polyline, line, text)
so the files diff cleanly and need no renderer support beyond SVG 1.1.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Sequence

from .core import ModelKind, total_population
from .errors import EmptyTrajectoryError, RangeError
from .integrator import Trajectory, observables_for

__all__ = [
    "write_csv",
    "render_svg",
    "CSV_HEADER_MA",
    "CSV_HEADER_MB",
    "DEFAULT_SVG_WIDTH",
    "DEFAULT_SVG_HEIGHT",
]

CSV_HEADER_MA = "t,S1,S2,Ia,Is,R,I,N"
CSV_HEADER_MB = "t,S1,S2,A1,A2,Is,R,I,N"

DEFAULT_SVG_WIDTH = 720.0
DEFAULT_SVG_HEIGHT = 480.0

# Margins leave room for tick labels (left/bottom) and the legend (top).
_MARGIN_LEFT = 72.0
_MARGIN_RIGHT = 24.0
_MARGIN_TOP = 40.0
_MARGIN_BOTTOM = 48.0

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


def _num(x: float) -> str:
    return f"{x:.9g}"


def write_csv(traj: Trajectory) -> str:
    """Render a trajectory as CSV text (LF line endings, 9 sig. digits).

    Two-class fixed-membership runs carry the Ia/Is split; switching-model
    runs (including mixed runs, whose pre-switch records embed Ia as A1)
    carry the A1/A2/Is split.
    """
    header = CSV_HEADER_MB if traj.model is ModelKind.MB else CSV_HEADER_MA
    # Every column between t and N is a state field or the I property.
    columns = attrgetter(*header.split(",")[1:-1])
    lines = [header]
    for t, s in zip(traj.times, traj.states):
        lines.append(
            ",".join(_num(v) for v in (t, *columns(s), total_population(s)))
        )
    return "\n".join(lines) + "\n"


def _nice_step(span: float, target: int) -> float:
    """Tick spacing from the 1-2-5 ladder giving about `target` intervals."""
    if span <= 0:
        return 1.0
    raw = span / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if mag * mult >= raw:
            return mag * mult
    return mag * 10.0  # pragma: no cover - ladder always hits by 10


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    step = _nice_step(hi - lo, target)
    first = math.ceil(lo / step - 1e-9) * step
    out = []
    v = first
    while v <= hi + 1e-9 * max(abs(hi), 1.0):
        out.append(0.0 if abs(v) < step * 1e-9 else v)
        v += step
    return out


def _tick_label(v: float) -> str:
    return f"{v:.6g}"


def render_svg(
    traj: Trajectory,
    observables: Sequence[str],
    *,
    width: float = DEFAULT_SVG_WIDTH,
    height: float = DEFAULT_SVG_HEIGHT,
) -> str:
    """Render observables of a trajectory as a standalone SVG line plot.

    One polyline per observable, linear axes with 1-2-5 ticks, and a
    legend naming each curve.  Deterministic for identical inputs.
    """
    if width <= 0 or height <= 0:
        raise RangeError(f"plot dimensions must be positive, got {width}x{height}")
    if not observables:
        raise RangeError("need at least one observable to plot")
    if len(traj) == 0:
        raise EmptyTrajectoryError("cannot plot an empty trajectory")

    known = observables_for(traj.model)
    for name in observables:
        if name not in known:
            raise RangeError(
                f"unknown observable {name!r} for model {traj.model.value!r}; "
                f"known: {sorted(known)}"
            )

    xs = list(traj.times)
    series = {
        name: [known[name].extract(s) for s in traj.states] for name in observables
    }

    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_lo = min(0.0, min(min(vals) for vals in series.values()))
    y_hi = max(max(vals) for vals in series.values())
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    px0, px1 = _MARGIN_LEFT, width - _MARGIN_RIGHT
    py0, py1 = height - _MARGIN_BOTTOM, _MARGIN_TOP  # y axis points up

    def sx(x: float) -> float:
        return px0 + (x - x_lo) / (x_hi - x_lo) * (px1 - px0)

    def sy(y: float) -> float:
        return py0 + (y - y_lo) / (y_hi - y_lo) * (py1 - py0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.2f}" height="{height:.2f}" '
        f'viewBox="0 0 {width:.2f} {height:.2f}">',
        # axes
        f'<line x1="{px0:.2f}" y1="{py0:.2f}" x2="{px1:.2f}" y2="{py0:.2f}" '
        f'stroke="#000000" stroke-width="1"/>',
        f'<line x1="{px0:.2f}" y1="{py0:.2f}" x2="{px0:.2f}" y2="{py1:.2f}" '
        f'stroke="#000000" stroke-width="1"/>',
    ]

    for v in _ticks(x_lo, x_hi):
        x = sx(v)
        parts.append(
            f'<line x1="{x:.2f}" y1="{py0:.2f}" x2="{x:.2f}" y2="{py0 + 5:.2f}" '
            f'stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{py0 + 18:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{_tick_label(v)}</text>'
        )
    for v in _ticks(y_lo, y_hi):
        y = sy(v)
        parts.append(
            f'<line x1="{px0 - 5:.2f}" y1="{y:.2f}" x2="{px0:.2f}" y2="{y:.2f}" '
            f'stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px0 - 8:.2f}" y="{y + 4:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{_tick_label(v)}</text>'
        )
    parts.append(
        f'<text x="{(px0 + px1) / 2:.2f}" y="{height - 12:.2f}" '
        f'font-family="sans-serif" font-size="12" text-anchor="middle">t</text>'
    )

    for idx, name in enumerate(observables):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, series[name])
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{pts}"/>'
        )

    # legend: swatch + label per curve, laid out along the top edge
    lx = px0
    for idx, name in enumerate(observables):
        color = _PALETTE[idx % len(_PALETTE)]
        parts.append(
            f'<line x1="{lx:.2f}" y1="{_MARGIN_TOP - 16:.2f}" '
            f'x2="{lx + 18:.2f}" y2="{_MARGIN_TOP - 16:.2f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 22:.2f}" y="{_MARGIN_TOP - 12:.2f}" '
            f'font-family="sans-serif" font-size="12">{name}</text>'
        )
        lx += 22 + 8 * max(len(name), 2) + 16

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
