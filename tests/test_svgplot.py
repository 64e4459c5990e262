"""The SVG line chart against its per-point formatter, kept here as an oracle:
the array version writes the same bytes, and rejects a non-finite series."""

import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyncov.svgplot import line_chart

_WIDTH, _HEIGHT = 720, 420
_MARGIN = 56


def _scale_per_point(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def line_chart_per_point(xs, ys, title, y_label, path):
    """The chart as it was drawn one Python float at a time."""
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) != len(ys):
        raise ValueError("x and y series must have equal length")

    x0, x1 = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y0, y1 = (min(ys), max(ys)) if ys else (0.0, 1.0)
    if y0 == y1:
        y0, y1 = y0 - 0.5, y1 + 0.5

    px = _scale_per_point(xs, x0, x1, _MARGIN, _WIDTH - _MARGIN)
    py = _scale_per_point(ys, y0, y1, _HEIGHT - _MARGIN, _MARGIN)
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<text x="{_MARGIN}" y="{_HEIGHT - _MARGIN + 18}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{x0:g}</text>',
        f'<text x="{_WIDTH - _MARGIN}" y="{_HEIGHT - _MARGIN + 18}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="11">{x1:g}</text>',
        f'<text x="{_MARGIN - 6}" y="{_HEIGHT - _MARGIN + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{y0:.4g}</text>',
        f'<text x="{_MARGIN - 6}" y="{_MARGIN + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{y1:.4g}</text>',
        f'<text x="16" y="{_HEIGHT / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_HEIGHT / 2:.0f})">{y_label}</text>',
        f'<text x="{_WIDTH / 2:.0f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">slot</text>',
    ]
    if points:
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def chart_bytes(chart, xs, ys):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "chart.svg"
        chart(xs, ys, "running average utility", "nats per slot", path)
        return path.read_bytes()


def assert_same_chart(xs, ys):
    assert chart_bytes(line_chart, xs, ys) == chart_bytes(line_chart_per_point, xs, ys)


SCALES = [5e-324, 1e-310, 1e-12, 1e-6, 1.0, 1e6, 1e12, 1e300]


@st.composite
def series(draw):
    """(xs, ys): slot indices or scaled reals, against a series that is random,
    constant, of one point, empty, or full of signed zeros."""
    n = draw(st.sampled_from([0, 1, 2, 3, 17, 200]))
    kind = draw(st.sampled_from(["random", "constant", "zeros", "extremes"]))
    scale = draw(st.sampled_from(SCALES))
    offset = draw(st.sampled_from([0.0, 1.0, -1e300, 1e300])) if scale >= 1.0 else 0.0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        ys = offset + scale * rng.standard_normal(n)
    elif kind == "constant":
        ys = np.full(n, offset + scale * rng.standard_normal())
    elif kind == "zeros":
        ys = rng.choice([0.0, -0.0, scale, -scale], n)
    else:
        ys = rng.choice([-1e300, 1e300, -0.0, 0.0], n)
    if draw(st.booleans()):
        xs = range(n)
    else:
        xs = rng.choice([0.0, -0.0, scale, -scale], n) * rng.uniform(0.5, 2.0, n)
    return xs, ys


class TestLineChart:
    @given(series())
    def test_same_bytes_as_per_point_formatter(self, xy):
        xs, ys = xy
        assert_same_chart(xs, ys)
        assert_same_chart(xs, ys.tolist())

    @pytest.mark.parametrize(
        "ys",
        [
            [],
            [2.5],
            [-0.0],
            [0.0, -0.0],
            [-0.0, 0.0, 1.0],
            [1.0, 0.0, -0.0, 0.0],
            [3.0] * 50,
            [-1e300, 1e300],
            [1e12, -1e12, 5.0],
            [1e-12, 3e-12, -2e-12],
            [5e-324, 0.0, -5e-324],
        ],
        ids=lambda ys: str(ys[:3]),
    )
    def test_edge_series(self, ys):
        assert_same_chart(range(len(ys)), ys)
        assert_same_chart([-0.0] * len(ys), ys)

    def test_long_running_average(self):
        rng = np.random.default_rng(7)
        ys = np.cumsum(rng.exponential(size=5000)) / np.arange(1, 5001)
        assert_same_chart(range(5000), ys)

    def test_empty_pair_draws_axes_only(self, tmp_path):
        line_chart([], [], "t", "y", tmp_path / "c.svg")
        svg = (tmp_path / "c.svg").read_text()
        assert "polyline" not in svg and svg.endswith("</svg>\n")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_non_finite_series_rejected(self, tmp_path, axis, bad):
        good = [0.0, 1.0, 2.0]
        xs, ys = list(good), list(good)
        (xs if axis == "x" else ys)[1] = bad
        with pytest.raises(ValueError, match=f"{axis} series must be a finite"):
            line_chart(xs, ys, "t", "y", tmp_path / "c.svg")
        assert not (tmp_path / "c.svg").exists()

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_overflowing_span_rejected(self, tmp_path, axis):
        # max - min = 2e308 is not a float: the scale would write nan coordinates
        wide, narrow = [-1e308, 1e308], [0.0, 1.0]
        xs, ys = (wide, narrow) if axis == "x" else (narrow, wide)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"{axis} series spans more than the float range"):
                line_chart(xs, ys, "t", "y", tmp_path / "c.svg")
        assert not (tmp_path / "c.svg").exists()

    def test_unequal_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="equal length"):
            line_chart(range(3), [1.0, 2.0], "t", "y", tmp_path / "c.svg")
