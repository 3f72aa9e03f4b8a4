from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinvdw.svgplot import line_plot

SVG_NS = "{http://www.w3.org/2000/svg}"


def polylines(svg_text: str):
    root = ET.fromstring(svg_text)
    return root.findall(f".//{SVG_NS}polyline")


def test_valid_xml_with_one_polyline_per_series():
    svg = line_plot(
        [("a", [0, 1, 2], [0.0, 0.5, 1.0]), ("b", [0, 1, 2], [1.0, 0.5, 0.0])],
        title="demo",
        x_label="x",
        y_label="y",
    )
    lines = polylines(svg)
    assert len(lines) == 2
    for line in lines:
        assert len(line.attrib["points"].split()) == 3


def test_text_is_escaped():
    svg = line_plot([("x<y", [0, 1], [0.0, 1.0])], title="a<b & c", x_label="p>q", y_label="&")
    assert ">a&lt;b &amp; c</text>" in svg
    assert ">x&lt;y</text>" in svg
    assert ">p&gt;q</text>" in svg
    assert ">&amp;</text>" in svg
    ET.fromstring(svg)


def test_point_counts_match_input():
    xs = list(range(100))
    ys = [x * 0.01 for x in xs]
    svg = line_plot([("series", xs, ys)])
    (line,) = polylines(svg)
    assert len(line.attrib["points"].split()) == len(xs)


def test_flat_series_is_padded_not_degenerate():
    svg = line_plot([("flat", [0, 1], [1.0, 1.0])])
    assert len(polylines(svg)) == 1


def test_label_escaping():
    svg = line_plot([("a<b&c", [0, 1], [0, 1])], title="x<y")
    ET.fromstring(svg)  # would raise on malformed markup


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        line_plot([])
    with pytest.raises(ValueError):
        line_plot([("bad", [0, 1], [0.0])])


# The plot area of the default 760 x 480 figure, and the longest series that
# is drawn point for point (four points per pixel column).
PLOT_W = 760 - 64 - 150
PLOT_H = 480 - 34 - 48
CAP = 4 * PLOT_W


def _pad(lo, hi):
    if hi <= lo:
        pad = 0.5 if lo == 0 else abs(lo) * 0.05
        return lo - pad, lo + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def reference_pixels(series):
    """Every point of every series in pixels, one point at a time in Python
    floats: the formula that draws a series of at most CAP points."""
    series = [(list(map(float, xs)), list(map(float, ys))) for xs, ys in series]
    x_lo, x_hi = _pad(min(min(xs) for xs, _ in series), max(max(xs) for xs, _ in series))
    y_lo, y_hi = _pad(min(min(ys) for _, ys in series), max(max(ys) for _, ys in series))
    return [
        [
            (64 + (x - x_lo) / (x_hi - x_lo) * PLOT_W, 34 + (y_hi - y) / (y_hi - y_lo) * PLOT_H)
            for x, y in zip(xs, ys)
        ]
        for xs, ys in series
    ]


def reference_m4(pixels):
    """Indices kept of a long series, one pixel-column run at a time: its
    first and last point, its first lowest-py and its last highest-py point."""
    kept = set()
    start = 0
    for i in range(1, len(pixels) + 1):
        if i < len(pixels) and math.floor(pixels[i][0]) == math.floor(pixels[start][0]):
            continue
        run_py = [py for _, py in pixels[start:i]]
        low = min(run_py)
        high = max(run_py)
        kept |= {
            start,
            i - 1,
            start + run_py.index(low),
            i - 1 - run_py[::-1].index(high),
        }
        start = i
    return sorted(kept)


def tokens(pixels):
    return [f"{px:.2f},{py:.2f}" for px, py in pixels]


@pytest.mark.parametrize("length", [1, 2, 3, 100, CAP - 1, CAP])
def test_short_series_drawn_point_for_point(length):
    rng = np.random.default_rng(length)
    xs = np.sort(rng.uniform(-3.0, 7.0, length))
    ys = np.cumsum(rng.normal(size=length))
    ints = list(range(length))
    svg = line_plot([("a", xs, ys), ("b", ints, ys[::-1].tolist())])
    expected = reference_pixels([(xs, ys), (ints, ys[::-1])])
    for line, pixels in zip(polylines(svg), expected):
        assert line.attrib["points"] == " ".join(tokens(pixels))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(CAP + 1, 4 * CAP),
    x_kind=st.sampled_from(["uniform grid", "sorted random", "shuffled"]),
    y_kind=st.sampled_from(["random walk", "coarse steps", "flat"]),
)
def test_long_series_keep_each_column_extremes_in_order(seed, length, x_kind, y_kind):
    rng = np.random.default_rng(seed)
    xs = {
        "uniform grid": np.linspace(0.0, 1.0, length),
        "sorted random": np.sort(rng.uniform(-1e3, 1e3, length)),
        "shuffled": rng.permutation(np.linspace(0.0, 1.0, length)),
    }[x_kind]
    ys = {
        "random walk": np.cumsum(rng.normal(size=length)),
        # many equal values: ties in a column keep the first lowest-py and
        # the last highest-py point
        "coarse steps": np.round(np.cumsum(rng.normal(size=length)) / 4.0),
        "flat": np.full(length, 0.25),
    }[y_kind]
    short = (np.linspace(0.0, 1.0, 50), np.linspace(-1.0, 1.0, 50))
    svg = line_plot([("long", xs, ys), ("short", *short)])
    long_line, short_line = polylines(svg)
    long_pixels, short_pixels = reference_pixels([(xs, ys), short])
    drawn = long_line.attrib["points"].split()
    every_point = tokens(long_pixels)
    assert drawn == [every_point[i] for i in reference_m4(long_pixels)]
    assert short_line.attrib["points"] == " ".join(tokens(short_pixels))
    if x_kind != "shuffled":  # monotone x: at most one run per pixel column
        assert len(drawn) <= 4 * (PLOT_W + 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_non_finite_values_rejected(axis, bad):
    values = [0.0, bad, 0.5]
    xs, ys = (values, [0, 1, 2]) if axis == "x" else ([0, 1, 2], values)
    with pytest.raises(ValueError, match="finite"):
        line_plot([("ok", [0, 1], [0, 1]), ("bad", xs, ys)])


def test_overflowing_range_rejected():
    with pytest.raises(ValueError, match="too wide"):
        line_plot([("wide", [-1.7e308, 1.7e308], [0.0, 1.0])])
