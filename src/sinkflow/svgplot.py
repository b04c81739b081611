"""Minimal deterministic SVG line plot.

Hand-rolled on purpose: a fixed viewBox and fixed decimal formatting make
the output byte-stable for identical input, which the reproducibility
checks rely on.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import EmptyTable

WIDTH, HEIGHT = 640, 480
MARGIN = 56
COLOR = "#1f77b4"


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _ticks_linear(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * span:
        out.append(t)
        t += step
    return out


def emit_svg(table: Sequence[Sequence[float]], title: str, path) -> None:
    """Plot column 1 of ``table`` against column 0 as a titled polyline SVG;
    further columns are ignored.

    Raises :class:`EmptyTable` on an empty table.
    """
    rows = [list(map(float, r)) for r in table]
    if not rows:
        raise EmptyTable("cannot plot an empty table")
    xs = [r[0] for r in rows]
    ys = [r[1] for r in rows]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(v):
        return MARGIN + (v - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * MARGIN)

    def py(v):
        return HEIGHT - MARGIN - (v - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    for t in _ticks_linear(x_lo, x_hi):
        parts.append(
            f'<line x1="{_fmt(px(t))}" y1="{MARGIN}" x2="{_fmt(px(t))}" '
            f'y2="{HEIGHT - MARGIN}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{_fmt(px(t))}" y="{HEIGHT - MARGIN + 16}" font-size="10" '
            f'text-anchor="middle">{t:.3g}</text>'
        )
    for t in _ticks_linear(y_lo, y_hi):
        parts.append(
            f'<line x1="{MARGIN}" y1="{_fmt(py(t))}" x2="{WIDTH - MARGIN}" '
            f'y2="{_fmt(py(t))}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{MARGIN - 6}" y="{_fmt(py(t) + 3)}" font-size="10" '
            f'text-anchor="end">{t:.3g}</text>'
        )
    parts.append(
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="black"/>'
    )
    pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="{COLOR}" stroke-width="1.5"/>')
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="2.5" fill="{COLOR}"/>')
    parts.append(
        f'<text x="{_fmt(WIDTH / 2)}" y="{_fmt(MARGIN / 2)}" font-size="12" '
        f'text-anchor="middle">{title}</text>'
    )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
