"""Deterministic ASCII and SVG pictures of regions and grid graphs."""

from __future__ import annotations

from .errors import TooLargeError
from .grids import EmbeddedGraph
from .regions import Region

_SCALE = 20
# An ASCII picture draws its whole bounding box; a larger box raises TooLargeError.
ASCII_MAX_POSITIONS = 10**6


def ascii_cells(cells) -> str:
    """'#' at each cell or vertex, '.' elsewhere on the bounding grid, top row first."""
    cells = set(cells)
    if not cells:
        return ""
    xs = [i for i, _ in cells]
    ys = [j for _, j in cells]
    width, height = max(xs) - min(xs) + 1, max(ys) - min(ys) + 1
    if width * height > ASCII_MAX_POSITIONS:
        raise TooLargeError(f"ascii box {width} x {height} exceeds {ASCII_MAX_POSITIONS} positions")
    lines = []
    for j in range(max(ys), min(ys) - 1, -1):
        lines.append("".join("#" if (i, j) in cells else "." for i in range(min(xs), max(xs) + 1)))
    return "\n".join(lines)


def svg_region(region: Region) -> str:
    """Unit squares with a light outline, y axis pointing up."""
    cells = sorted(region.cells)
    if not cells:
        return '<svg xmlns="http://www.w3.org/2000/svg" width="0" height="0"/>'
    xs = [i for i, _ in cells]
    ys = [j for _, j in cells]
    x0, y1 = min(xs), max(ys)
    w = (max(xs) - x0 + 1) * _SCALE
    h = (y1 - min(ys) + 1) * _SCALE
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">']
    for i, j in cells:
        px = (i - x0) * _SCALE
        py = (y1 - j) * _SCALE
        parts.append(
            f'<rect x="{px}" y="{py}" width="{_SCALE}" height="{_SCALE}" '
            f'fill="#c9d6f2" stroke="#333"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def svg_graph(g: EmbeddedGraph) -> str:
    """Unit-spaced vertices as dots, edges as segments, y axis pointing up."""
    if not g.vertices:
        return '<svg xmlns="http://www.w3.org/2000/svg" width="0" height="0"/>'
    xs = [x for x, _ in g.vertices]
    ys = [y for _, y in g.vertices]
    x0, y1 = min(xs), max(ys)
    pad = _SCALE // 2
    w = (max(xs) - x0) * _SCALE + 2 * pad
    h = (y1 - min(ys)) * _SCALE + 2 * pad

    def pix(p):
        return ((p[0] - x0) * _SCALE + pad, (y1 - p[1]) * _SCALE + pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">']
    for p, q in g.edges:
        (ax, ay), (bx, by) = pix(p), pix(q)
        parts.append(f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" stroke="#333"/>')
    for p in g.vertices:
        px, py = pix(p)
        parts.append(f'<circle cx="{px}" cy="{py}" r="3" fill="#1a3d7c"/>')
    parts.append("</svg>")
    return "\n".join(parts)
