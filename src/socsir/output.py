"""Trajectory writers: CSV tables and standalone SVG line plots.

Both writers are deterministic: the same trajectory yields byte-identical
output.  Numbers in CSV carry 9 significant digits; SVG coordinates are
fixed to two decimals so float noise below plotting resolution cannot
leak into the bytes.

The SVG stays inside a small element vocabulary (polyline, line, text)
so the files diff cleanly and need no renderer support beyond SVG 1.1.

csv_pieces and svg_pieces yield each document in bounded pieces, so a
caller can stream it to a file; write_csv and render_svg join them.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from .core import _check_kind, _column, _layout, _size
from .errors import EmptyTrajectoryError, RangeError
from .integrator import Trajectory

# Every plot is this size, in SVG user units.
_SVG_WIDTH = 720.0
_SVG_HEIGHT = 480.0

# Records per piece of a streamed document: a CSV piece holds at most this
# many rows and a polyline piece at most this many points.  A caller that
# writes the pieces one at a time holds one piece's strings, not the whole
# document's.
_PIECE_RECORDS = 1024

# An axis is too narrow to plot when its span is below this fraction of
# max(|lo|, |hi|, 1).  A span at least this wide holds about 4,500 floats
# or more, several per pixel, so its curves are not steps of float
# rounding; near 0 the floor of 1 takes a span below 1e-12 for rounding
# noise on the counts and times plotted.
_MIN_SPAN = 1e-12

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


def csv_pieces(traj: Trajectory) -> Iterator[str]:
    """The CSV text of a trajectory in pieces: the header line, then the
    rows in pieces of at most _PIECE_RECORDS records.  The pieces joined
    are write_csv's text.  RangeError for a traj that is not a Trajectory."""
    _check_kind("traj", traj, Trajectory)
    model, times, records = traj.model, traj.times, traj._records
    names = _layout(model).observables
    # "%.9g" % x is the same text as f"{x:.9g}".
    row = ",".join(["%.9g"] * (len(names) + 1)) + "\n"
    yield ",".join(("t", *names)) + "\n"
    for lo in range(0, len(times), _PIECE_RECORDS):
        piece = records[lo:lo + _PIECE_RECORDS]
        columns = [_column(model, piece, name) for name in names]
        yield "".join([
            row % values
            for values in zip(times[lo:lo + _PIECE_RECORDS], *columns)
        ])


def write_csv(traj: Trajectory) -> str:
    """Render a trajectory as CSV text (LF line endings, 9 sig. digits):
    t, then the model's observables."""
    return "".join(csv_pieces(traj))


def _nice_step(span: float) -> float:
    """Tick spacing from the 1-2-5 ladder giving about six intervals of a
    span > 0 (svg_pieces widens an empty range to 1)."""
    raw = span / 6
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0):
        if mag * mult >= raw:
            return mag * mult
    return mag * 10.0


def _ticks(lo: float, hi: float) -> list[float]:
    """The 1-2-5 ticks from lo to hi, up to 1e-9 of the tick step past hi.

    RangeError for an axis too narrow to plot, whose span hi - lo is below
    _MIN_SPAN times max(|lo|, |hi|, 1).  On any other axis a tick step
    moves every tick, so there are at most seven.
    """
    if hi - lo < _MIN_SPAN * max(abs(lo), abs(hi), 1.0):
        raise RangeError(
            f"cannot draw axis ticks from {lo} to {hi}: the span {hi - lo} is "
            f"below {_MIN_SPAN:g} of max(|{lo}|, |{hi}|, 1)"
        )
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step - 1e-9) * step
    end = hi + 1e-9 * step
    out = []
    v = first
    while v <= end:
        out.append(0.0 if abs(v) < step * 1e-9 else v)
        v += step
    return out


def _tick_labels(ticks: list[float]) -> list[str]:
    """The labels of an axis' ticks: "%.6g", or where that gives two
    adjacent ticks the same label, as many significant digits as the
    largest tick has down to the leading digit of the tick step."""
    labels = [f"{v:.6g}" for v in ticks]
    if any(a == b for a, b in zip(labels, labels[1:])):
        step = ticks[1] - ticks[0]
        top = max(map(abs, ticks))
        digits = math.floor(math.log10(top)) - math.floor(math.log10(step)) + 1
        labels = [f"{v:.{digits}g}" for v in ticks]
    return labels


def svg_pieces(traj: Trajectory, observables: Sequence[str]) -> Iterator[str]:
    """The SVG text of render_svg in pieces.

    A generator whose checks, axis ranges (which need every value) and
    ticks come before its first piece, so a rejected plot raises there.
    It yields the axes, then each polyline in pieces of at most
    _PIECE_RECORDS points, then the legend.  RangeError for a traj that is
    not a Trajectory and for observables that are not a nonempty sequence
    of the model's observable names.
    """
    _check_kind("traj", traj, Trajectory)
    size = _size(observables)
    if type(size) is not int:
        raise RangeError(f"observables must be a sequence of names, got {size}")
    if size == 0:
        raise RangeError("need at least one observable to plot")
    if len(traj) == 0:
        raise EmptyTrajectoryError("cannot plot an empty trajectory")

    known = _layout(traj.model).observables
    for name in observables:
        if type(name) is not str or name not in known:
            raise RangeError(
                f"unknown observable {name!r} for model {traj.model.value!r}; "
                f"known: {sorted(known)}"
            )

    model, xs, records = traj.model, traj.times, traj._records
    # Each series is read off the records for its range here and again
    # per piece below, so no list of a whole series is held.
    bounds = [
        (min(_column(model, records, name)), max(_column(model, records, name)))
        for name in observables
    ]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_lo = min(0.0, min(low for low, _ in bounds))
    y_hi = max(high for _, high in bounds)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    x_ticks, y_ticks = _ticks(x_lo, x_hi), _ticks(y_lo, y_hi)

    px0, px1 = _MARGIN_LEFT, _SVG_WIDTH - _MARGIN_RIGHT
    py0, py1 = _SVG_HEIGHT - _MARGIN_BOTTOM, _MARGIN_TOP  # y axis points up
    x_span, px_span = x_hi - x_lo, px1 - px0
    y_span, py_span = y_hi - y_lo, py1 - py0

    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_WIDTH:.2f}" height="{_SVG_HEIGHT:.2f}" '
        f'viewBox="0 0 {_SVG_WIDTH:.2f} {_SVG_HEIGHT:.2f}">\n'
        # axes
        f'<line x1="{px0:.2f}" y1="{py0:.2f}" x2="{px1:.2f}" y2="{py0:.2f}" '
        f'stroke="#000000" stroke-width="1"/>\n'
        f'<line x1="{px0:.2f}" y1="{py0:.2f}" x2="{px0:.2f}" y2="{py1:.2f}" '
        f'stroke="#000000" stroke-width="1"/>\n'
    )
    for v, label in zip(x_ticks, _tick_labels(x_ticks)):
        x = px0 + (v - x_lo) / x_span * px_span
        yield (
            f'<line x1="{x:.2f}" y1="{py0:.2f}" x2="{x:.2f}" y2="{py0 + 5:.2f}" '
            f'stroke="#000000" stroke-width="1"/>\n'
            f'<text x="{x:.2f}" y="{py0 + 18:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{label}</text>\n'
        )
    for v, label in zip(y_ticks, _tick_labels(y_ticks)):
        y = py0 + (v - y_lo) / y_span * py_span
        yield (
            f'<line x1="{px0 - 5:.2f}" y1="{y:.2f}" x2="{px0:.2f}" y2="{y:.2f}" '
            f'stroke="#000000" stroke-width="1"/>\n'
            f'<text x="{px0 - 8:.2f}" y="{y + 4:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{label}</text>\n'
        )
    yield (
        f'<text x="{(px0 + px1) / 2:.2f}" y="{_SVG_HEIGHT - 12:.2f}" '
        f'font-family="sans-serif" font-size="12" text-anchor="middle">t</text>\n'
    )

    # Every polyline has a point per record at the same x, so each x is
    # formatted once, into a template per piece that takes the piece's y
    # values: "%.2f,%%.2f" % x % y is "%.2f,%.2f" % (x, y).
    pieces = range(0, len(xs), _PIECE_RECORDS)
    templates = [
        " ".join(
            ["%.2f,%%.2f" % (px0 + (x - x_lo) / x_span * px_span)
             for x in xs[lo:lo + _PIECE_RECORDS]]
        )
        for lo in pieces
    ]
    for idx, name in enumerate(observables):
        color = _PALETTE[idx % len(_PALETTE)]
        yield f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="'
        sep = ""
        for lo, template in zip(pieces, templates):
            ys = _column(model, records[lo:lo + _PIECE_RECORDS], name)
            yield sep + template % tuple(
                [py0 + (y - y_lo) / y_span * py_span for y in ys]
            )
            sep = " "
        yield '"/>\n'

    # legend: swatch + label per curve, laid out along the top edge
    lx = px0
    for idx, name in enumerate(observables):
        color = _PALETTE[idx % len(_PALETTE)]
        yield (
            f'<line x1="{lx:.2f}" y1="{_MARGIN_TOP - 16:.2f}" '
            f'x2="{lx + 18:.2f}" y2="{_MARGIN_TOP - 16:.2f}" '
            f'stroke="{color}" stroke-width="2"/>\n'
            f'<text x="{lx + 22:.2f}" y="{_MARGIN_TOP - 12:.2f}" '
            f'font-family="sans-serif" font-size="12">{name}</text>\n'
        )
        lx += 22 + 8 * max(len(name), 2) + 16
    yield "</svg>\n"


def render_svg(traj: Trajectory, observables: Sequence[str]) -> str:
    """Render observables of a trajectory as a standalone 720 x 480 SVG
    line plot.

    One polyline per observable, linear axes with 1-2-5 ticks, and a
    legend naming each curve.  Deterministic for identical inputs.
    """
    return "".join(svg_pieces(traj, observables))
