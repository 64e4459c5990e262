"""Minimal self-contained SVG line charts (no external renderer).

Good enough for eyeballing running averages against slot index.
"""

from __future__ import annotations

from .matrixio import replace_file

_WIDTH, _HEIGHT = 720, 420
_MARGIN = 56


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def line_chart(xs, ys, title: str, y_label: str, path) -> None:
    """Write a single-series line chart to ``path``."""
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) != len(ys):
        raise ValueError("x and y series must have equal length")

    x0, x1 = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y0, y1 = (min(ys), max(ys)) if ys else (0.0, 1.0)
    if y0 == y1:
        y0, y1 = y0 - 0.5, y1 + 0.5

    px = _scale(xs, x0, x1, _MARGIN, _WIDTH - _MARGIN)
    py = _scale(ys, y0, y1, _HEIGHT - _MARGIN, _MARGIN)
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        # axes
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        # tick labels
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
    replace_file(path, "\n".join(parts) + "\n")
