"""Minimal self-contained SVG line charts (no external renderer).

Good enough for eyeballing running averages against slot index.
"""

from __future__ import annotations

import numpy as np

from .matrixio import replace_file

_WIDTH, _HEIGHT = 720, 420
_MARGIN = 56
_CHUNK = 512  # points scaled and formatted at a time


def _scale(values: np.ndarray, lo, hi, out_lo, out_hi) -> np.ndarray:
    span = hi - lo if hi > lo else 1.0
    return out_lo + (values - lo) / span * (out_hi - out_lo)


def line_chart(xs, ys, title: str, y_label: str, path) -> None:
    """Write a single-series line chart to ``path``; both series must be finite,
    and each one's max - min too.  The points are scaled, formatted and
    written ``_CHUNK`` at a time."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    for name, a in (("x", xs), ("y", ys)):
        if a.ndim != 1 or not np.isfinite(a).all():
            raise ValueError(f"{name} series must be a finite 1-D sequence")
    if len(xs) != len(ys):
        raise ValueError("x and y series must have equal length")

    # min and max as Python's pick them: the first of equal values (-0.0 or 0.0)
    x0, x1 = (float(xs[xs.argmin()]), float(xs[xs.argmax()])) if len(xs) else (0.0, 1.0)
    y0, y1 = (float(ys[ys.argmin()]), float(ys[ys.argmax()])) if len(ys) else (0.0, 1.0)
    if y0 == y1:
        y0, y1 = y0 - 0.5, y1 + 0.5
    for name, lo, hi in (("x", x0, x1), ("y", y0, y1)):
        if hi - lo == np.inf:  # Python floats: an overflowing span is inf, with no warning
            raise ValueError(f"{name} series spans more than the float range")

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

    def chunks():
        yield "\n".join(parts) + "\n"
        if len(xs):
            yield '<polyline points="'
            for start in range(0, len(xs), _CHUNK):
                px = _scale(xs[start : start + _CHUNK], x0, x1, _MARGIN, _WIDTH - _MARGIN)
                py = _scale(ys[start : start + _CHUNK], y0, y1, _HEIGHT - _MARGIN, _MARGIN)
                points = np.stack((px, py), 1).ravel().tolist()
                yield (" " if start else "") + " ".join(["%.2f,%.2f"] * len(px)) % tuple(points)
            yield '" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>\n'
        yield "</svg>\n"

    replace_file(path, chunks())
