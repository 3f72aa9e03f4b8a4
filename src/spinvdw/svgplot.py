"""Minimal self-contained SVG line plots.

Only what the CLI needs: axes, ticks, one polyline per series and a legend.
No external assets; the CSV files remain the data contract and these plots
are a convenience view of the same points.

A series with more than four points per pixel column of the plot area is
drawn at pixel resolution: of each run of consecutive points in one pixel
column only the first, the last, the lowest and the highest are drawn, in
their order (M4 aggregation; Jugel et al., PVLDB 7(10), 2014).  That draws
the same line at the plot's width.  Shorter series are drawn point for
point, and the CSV keeps every point.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

import numpy as np

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

_WIDTH = 760
_HEIGHT = 480
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 150
_MARGIN_TOP = 34
_MARGIN_BOTTOM = 48
_TICKS = 5


def line_plot(series, *, title="", x_label="", y_label="") -> str:
    """Render ``series`` (an iterable of (label, xs, ys)) as an SVG string.

    Raises ``ValueError`` when there is no series, when a series is empty,
    not one-dimensional or has unequal x and y lengths, when a value is NaN
    or infinite, and when the padded x or y range overflows.
    """
    series = [
        (str(label), np.asarray(xs, float), np.asarray(ys, float)) for label, xs, ys in series
    ]
    if not series or any(
        xs.ndim != 1 or xs.shape != ys.shape or not xs.size for _, xs, ys in series
    ):
        raise ValueError("every series needs equally many x and y values, at least one")
    if not all(np.isfinite(xs).all() and np.isfinite(ys).all() for _, xs, ys in series):
        raise ValueError("every x and y value must be finite")

    x_lo = float(min(xs.min() for _, xs, _ in series))
    x_hi = float(max(xs.max() for _, xs, _ in series))
    y_lo = float(min(ys.min() for _, _, ys in series))
    y_hi = float(max(ys.max() for _, _, ys in series))
    x_lo, x_hi = _pad_range(x_lo, x_hi)
    y_lo, y_hi = _pad_range(y_lo, y_hi)
    if not (math.isfinite(x_hi - x_lo) and math.isfinite(y_hi - y_lo)):
        raise ValueError("the x or y range is too wide to draw")

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def to_px(x, y):
        """Pixel coordinates of a point, or elementwise of arrays of points."""
        px = _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w
        py = _MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h
        return px, py

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{escape(title)}</text>'
        )

    # axes
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="#000000"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{_MARGIN_TOP}" x2="{x0}" y2="{y0}" stroke="#000000"/>'
    )
    for i in range(_TICKS):
        frac = i / (_TICKS - 1)
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        tx, _ = to_px(xv, y_lo)
        _, ty = to_px(x_lo, yv)
        parts.append(f'<line x1="{tx:.1f}" y1="{y0}" x2="{tx:.1f}" y2="{y0 + 5}" stroke="#000000"/>')
        parts.append(
            f'<text x="{tx:.1f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.4g}</text>'
        )
        parts.append(f'<line x1="{x0 - 5}" y1="{ty:.1f}" x2="{x0}" y2="{ty:.1f}" stroke="#000000"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{ty + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.4g}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{x0 + plot_w / 2:.1f}" y="{_HEIGHT - 8}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{escape(x_label)}</text>'
        )
    if y_label:
        cy = _MARGIN_TOP + plot_h / 2
        parts.append(
            f'<text x="16" y="{cy:.1f}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="12" transform="rotate(-90 16 {cy:.1f})">{escape(y_label)}</text>'
        )

    # one polyline per series, legend entries on the right
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        px, py = to_px(xs, ys)
        if px.size > 4 * plot_w:
            keep = _m4_indices(px, py)
            px, py = px[keep], py[keep]
        points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px.tolist(), py.tolist()))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{points}"/>')
        ly = _MARGIN_TOP + 14 + 16 * i
        lx = _MARGIN_LEFT + plot_w + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{lx + 24}" y="{ly}" font-family="sans-serif" font-size="11">{escape(label)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _pad_range(lo: float, hi: float) -> tuple[float, float]:
    if hi <= lo:
        pad = 0.5 if lo == 0 else abs(lo) * 0.05
        return lo - pad, lo + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _m4_indices(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Ascending indices of the first, last, lowest and highest point of each
    run of consecutive points that lie in one integer pixel column."""
    column = np.floor(px)
    starts = np.flatnonzero(np.concatenate(([True], column[1:] != column[:-1])))
    ends = np.append(starts[1:], px.size) - 1
    run = np.repeat(np.arange(starts.size), ends - starts + 1)
    # ordered by run, then by py, each run keeps its own index range
    order = np.lexsort((py, run))
    return np.unique(np.concatenate((starts, ends, order[starts], order[ends])))
