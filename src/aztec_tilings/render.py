"""Deterministic ASCII and SVG pictures of regions and grid graphs."""

from __future__ import annotations

from .errors import TooLargeError
from .grids import EmbeddedGraph, _coords
from .regions import Region

_SCALE = 20
# An ASCII picture draws its whole bounding box; a larger box raises TooLargeError.
ASCII_MAX_POSITIONS = 10**6


def _box(points) -> tuple[int, int, int, int]:
    """(least x, least y, greatest x, greatest y) over non-empty points."""
    xs, ys = _coords(points)
    return min(xs), min(ys), max(xs), max(ys)


def ascii_cells(cells) -> str:
    """'#' at each cell or vertex, '.' elsewhere on the bounding grid, top row first."""
    cells = set(cells)
    if not cells:
        return ""
    x0, y0, x1, y1 = _box(cells)
    width, height = x1 - x0 + 1, y1 - y0 + 1
    if width * height > ASCII_MAX_POSITIONS:
        raise TooLargeError(f"ascii box {width} x {height} exceeds {ASCII_MAX_POSITIONS} positions")
    return "\n".join("".join("#" if (i, j) in cells else "." for i in range(x0, x1 + 1))
                     for j in range(y1, y0 - 1, -1))


def _svg(points, inset: int, draw) -> str:
    """An SVG of the points' bounding box, one _SCALE square per position, y axis up; draw(pix)
    yields its elements, pix(p) being inset pixels right of and below p's square's top left."""
    if not points:
        return '<svg xmlns="http://www.w3.org/2000/svg" width="0" height="0"/>'
    x0, y0, x1, y1 = _box(points)

    def pix(p):
        return (p[0] - x0) * _SCALE + inset, (y1 - p[1]) * _SCALE + inset

    w, h = (x1 - x0 + 1) * _SCALE, (y1 - y0 + 1) * _SCALE
    return "\n".join([f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
                      *draw(pix), "</svg>"])


def svg_region(region: Region) -> str:
    """Unit squares with a light outline, y axis pointing up."""
    def squares(pix):
        for px, py in map(pix, sorted(region.cells)):
            yield (f'<rect x="{px}" y="{py}" width="{_SCALE}" height="{_SCALE}" '
                   f'fill="#c9d6f2" stroke="#333"/>')

    return _svg(region.cells, 0, squares)


def svg_graph(g: EmbeddedGraph) -> str:
    """Unit-spaced vertices as dots, edges as segments, y axis pointing up."""
    def segments_and_dots(pix):
        for p, q in g.edges:
            (ax, ay), (bx, by) = pix(p), pix(q)
            yield f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" stroke="#333"/>'
        for px, py in map(pix, g.vertices):
            yield f'<circle cx="{px}" cy="{py}" r="3" fill="#1a3d7c"/>'

    return _svg(g.vertices, _SCALE // 2, segments_and_dots)
