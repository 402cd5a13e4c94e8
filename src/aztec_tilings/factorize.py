"""Splitting a diagonally symmetric grid graph into two independent halves.

For a graph that maps onto itself under reflection across a diagonal
lattice line, deleting edges at the on-axis vertices in alternation
(below-side edges at the 1st, 3rd, ... vertex, above-side edges at the
rest) splits it into an upper part and a lower part whose matching
counts multiply:  M(G) = 2^w * M(G+) * M(G-), with 2w on-axis vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engines import count
from .errors import FactorizationError
from .grids import EmbeddedGraph, Point, induced_subgraph

SLOPE_UP = 1
SLOPE_DOWN = -1


@dataclass(frozen=True)
class DiagonalAxis:
    """A diagonal lattice symmetry line y = x + offset or y = -x + offset."""

    slope: int
    offset: int
    on_axis: tuple[Point, ...]

    @property
    def w(self) -> int:
        return len(self.on_axis) // 2


@dataclass(frozen=True)
class FactorizationResult:
    g_plus: EmbeddedGraph
    g_minus: EmbeddedGraph
    w: int


@dataclass(frozen=True)
class FactorizationReport:
    """All five quantities of the product identity, plus the verdict."""

    axis: DiagonalAxis
    w: int
    m_g: int
    m_plus: int
    m_minus: int

    @property
    def ok(self) -> bool:
        return self.m_g == (1 << self.w) * self.m_plus * self.m_minus


def _reflect(slope: int, offset: int, p: Point) -> Point:
    x, y = p
    if slope == SLOPE_UP:
        return (y - offset, x + offset)
    return (offset - y, offset - x)


def _diag_value(slope: int, p: Point) -> int:
    # on the axis iff this equals the offset
    return p[1] - p[0] if slope == SLOPE_UP else p[0] + p[1]


def _axis_if_valid(g: EmbeddedGraph, slope: int) -> DiagonalAxis | None:
    pts = set(g.vertices)
    vals = [_diag_value(slope, p) for p in g.vertices]
    total = min(vals) + max(vals)
    if total % 2:
        return None
    offset = total // 2
    if any(_reflect(slope, offset, p) not in pts for p in pts):
        return None
    pairs = set(g.edges)
    # A unit step's image under a slope +1 reflection keeps its smaller point
    # first; under a slope -1 reflection the two points swap.
    for p, q in pairs:
        a, b = _reflect(slope, offset, p), _reflect(slope, offset, q)
        if ((a, b) if slope == SLOPE_UP else (b, a)) not in pairs:
            return None
    on_axis = sorted(p for p in pts if _diag_value(slope, p) == offset)
    for a, b in zip(on_axis, on_axis[1:]):
        if b[0] != a[0] + 1:
            return None
    return DiagonalAxis(slope=slope, offset=offset, on_axis=tuple(on_axis))


def find_diagonal_axis(g: EmbeddedGraph) -> DiagonalAxis | None:
    """Smallest valid diagonal symmetry axis, slope +1 preferred, or None."""
    if not g.vertices:
        return None
    for slope in (SLOPE_UP, SLOPE_DOWN):
        axis = _axis_if_valid(g, slope)
        if axis is not None:
            return axis
    return None


def apply_factorization(g: EmbeddedGraph, axis: DiagonalAxis) -> FactorizationResult:
    """Cut g along the axis and return the upper and lower halves.

    A unit step changes the diagonal value by exactly 1, so no edge joins
    the two sides and no two on-axis vertices are adjacent.  The cut
    therefore leaves G+ as g induced on the upper side plus the 1st, 3rd,
    ... on-axis vertex, and G- as g induced on the rest.
    """
    check = _axis_if_valid(g, axis.slope)
    if check is None or check != axis:
        raise FactorizationError("axis is not a valid symmetry axis for this graph")
    plus_pts = {p for p in g.vertices if _diag_value(axis.slope, p) > axis.offset}
    plus_pts.update(axis.on_axis[::2])
    return FactorizationResult(
        g_plus=induced_subgraph(g, plus_pts),
        g_minus=induced_subgraph(g, set(g.vertices) - plus_pts),
        w=axis.w,
    )


def verify_factorization(g: EmbeddedGraph) -> FactorizationReport:
    """Count the whole and both halves independently and check the identity."""
    axis = find_diagonal_axis(g)
    if axis is None:
        raise FactorizationError("graph has no diagonal symmetry axis")
    result = apply_factorization(g, axis)
    return FactorizationReport(
        axis=axis,
        w=result.w,
        m_g=count(g),
        m_plus=count(result.g_plus),
        m_minus=count(result.g_minus),
    )
