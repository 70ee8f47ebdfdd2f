"""SVG and CSV export of pillowcase images.

The SVG shows the fundamental-domain rectangle [0, pi] x [0, 2pi] with
edge-identification glyphs (chevrons marking how the side and top edges
fold), the sampled arcs, witness points, and the marked points P and Q.
"""

from __future__ import annotations

import math

from .geometry import PillowcasePolyline, TWO_PI, canonicalize
from .solver import PillowcaseImage

__all__ = ["image_to_svg", "image_to_csv", "polylines_to_svg", "mark_points"]

_W = 320.0   # pixels for alpha in [0, pi]
_H = 640.0   # pixels for beta in [0, 2pi]
_MARGIN = 30.0
_SAMPLES_PER_SEGMENT = 8  # drawn points per polyline segment, so folds show as breaks


def _xy(alpha: float, beta: float) -> tuple[float, float]:
    x = _MARGIN + _W * alpha / math.pi
    y = _MARGIN + _H * (1.0 - beta / TWO_PI)
    return x, y


def _chevron(x, y, dx, dy, count) -> str:
    """Small arrow glyphs centered at (x, y) pointing along (dx, dy)."""
    n = math.hypot(dx, dy)
    ux, uy = dx / n, dy / n
    px, py = -uy, ux
    parts = []
    for i in range(count):
        cx = x + (i - (count - 1) / 2) * 7 * ux
        cy = y + (i - (count - 1) / 2) * 7 * uy
        parts.append(
            f'<path d="M {cx - 3 * ux + 4 * px:.1f} {cy - 3 * uy + 4 * py:.1f} '
            f'L {cx + 3 * ux:.1f} {cy + 3 * uy:.1f} '
            f'L {cx - 3 * ux - 4 * px:.1f} {cy - 3 * uy - 4 * py:.1f}" '
            f'fill="none" stroke="black" stroke-width="1.2"/>')
    return "".join(parts)


def _frame() -> list[str]:
    x0, y0 = _xy(0.0, TWO_PI)
    x1, y1 = _xy(math.pi, 0.0)
    parts = [
        f'<rect x="{x0:.1f}" y="{y0:.1f}" width="{x1 - x0:.1f}" '
        f'height="{y1 - y0:.1f}" fill="white" stroke="black" stroke-width="1.5"/>'
    ]
    # left and right edges fold in half: opposing chevrons above/below middle
    for alpha, count in ((0.0, 2), (math.pi, 3)):
        x, ytop = _xy(alpha, 1.5 * math.pi)
        _, ybot = _xy(alpha, 0.5 * math.pi)
        parts.append(_chevron(x, ytop, 0, 1, count))
        parts.append(_chevron(x, ybot, 0, -1, count))
    # top and bottom edges are identified straight across
    for beta in (0.0, TWO_PI):
        x, y = _xy(0.5 * math.pi, beta)
        parts.append(_chevron(x, y, -1, 0, 4))
    # marked points
    for (a, b), name in (((0.0, math.pi), "P"), ((math.pi, math.pi), "Q")):
        x, y = _xy(a, b)
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="black"/>')
        dx = -14 if a == 0.0 else 8
        parts.append(f'<text x="{x + dx:.1f}" y="{y + 4:.1f}" '
                     f'font-size="13">{name}</text>')
    # axis labels
    xl, yl = _xy(0.0, 0.0)
    xr, _ = _xy(math.pi, 0.0)
    parts.append(f'<text x="{xl - 6:.1f}" y="{yl + 16:.1f}" font-size="11">0</text>')
    parts.append(f'<text x="{xr - 6:.1f}" y="{yl + 16:.1f}" font-size="11">&#960;</text>')
    xt, yt = _xy(0.0, TWO_PI)
    parts.append(f'<text x="{xt - 22:.1f}" y="{yt + 4:.1f}" font-size="11">2&#960;</text>')
    return parts


def _fold_curve_paths(curve: PillowcasePolyline):
    """Sample a polyline and break it where it folds across the domain edges."""
    runs = []
    current = []
    prev = None
    for (x1, y1), (x2, y2) in curve.lifted_segments():
        for i in range(_SAMPLES_PER_SEGMENT + 1):
            t = i / _SAMPLES_PER_SEGMENT
            pt = canonicalize(x1 + t * (x2 - x1), y1 + t * (y2 - y1))
            xy = _xy(pt.alpha, pt.beta)
            if prev is not None and math.hypot(xy[0] - prev[0], xy[1] - prev[1]) > 40:
                if len(current) > 1:
                    runs.append(current)
                current = []
            current.append(xy)
            prev = xy
    if len(current) > 1:
        runs.append(current)
    return runs


def polylines_to_svg(curves, points=(), title: str = "") -> str:
    """Standalone SVG of curves (and optional points) in the fundamental domain."""
    width = 2 * _MARGIN + _W
    height = 2 * _MARGIN + _H
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">'
    ]
    parts.extend(_frame())
    palette = ("#1f4e9c", "#b22222", "#1a7a3c", "#8b5a00", "#5a2d81")
    for ci, curve in enumerate(curves):
        color = palette[ci % len(palette)]
        for run in _fold_curve_paths(curve):
            coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in run)
            parts.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="{color}" stroke-width="1.6"/>')
    for pt in points:
        x, y = _xy(pt.alpha, pt.beta)
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.6" fill="#333"/>')
    if title:
        parts.append(f'<text x="{_MARGIN:.0f}" y="{_MARGIN - 10:.0f}" '
                     f'font-size="13">{title}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def mark_points(svg: str, points) -> str:
    """Overlay ring markers on an existing pillowcase SVG."""
    extra = []
    for pt in points:
        x, y = _xy(pt.alpha, pt.beta)
        extra.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="5" fill="none" '
                     f'stroke="#d00" stroke-width="1.8"/>')
    if not extra:
        return svg
    return svg.replace("</svg>", "\n".join(extra) + "\n</svg>")


def image_to_svg(img: PillowcaseImage) -> str:
    """SVG of a sampled pillowcase image with its witness points, titled by its model."""
    return polylines_to_svg(img.arcs, [rec.point for rec in img.points],
                            title=img.model.name)


def image_to_csv(img: PillowcaseImage) -> str:
    """CSV dump: arcs (kind=arc) and witness points (kind=point, with gap)."""
    lines = ["kind,index,alpha,beta,gap"]
    for i, arc in enumerate(img.arcs):
        for v in arc.vertices:
            lines.append(f"arc,{i},{v.alpha!r},{v.beta!r},")
        if arc.closed:
            v = arc.vertices[0]
            lines.append(f"arc,{i},{v.alpha!r},{v.beta!r},")
    for i, rec in enumerate(img.points):
        lines.append(f"point,{i},{rec.point.alpha!r},{rec.point.beta!r},{rec.gap!r}")
    return "\n".join(lines) + "\n"
