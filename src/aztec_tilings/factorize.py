"""Splitting a diagonally symmetric grid graph into two independent halves.

Any reflection across a diagonal lattice line that maps the graph onto itself
is an axis; its on-axis vertices may skip steps along the line.  Deleting edges
at those vertices in alternation, in x order (below-side edges at the 1st, 3rd,
... vertex, above-side edges at the rest), splits the graph into an upper and a
lower part whose matching counts multiply (Ciucu's factorization theorem):
M(G) = 2^w * M(G+) * M(G-), with 2w on-axis vertices (2w + 1 makes both sides 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import add, sub

from .errors import FactorizationError
from .grids import EmbeddedGraph, Point, _coords, _maps_onto, induced_subgraph

SLOPE_UP = 1
SLOPE_DOWN = -1


@dataclass(frozen=True)
class DiagonalAxis:
    """A diagonal lattice symmetry line y = x + offset or y = -x + offset.

    found_on is the graph on which find_diagonal_axis proved this axis, or None
    for an axis made any other way (by hand or by dataclasses.replace).  It is
    not part of == or repr.
    """

    slope: int
    offset: int
    on_axis: tuple[Point, ...]
    found_on: EmbeddedGraph | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def w(self) -> int:
        return len(self.on_axis) // 2


@dataclass(frozen=True)
class FactorizationResult:
    g_plus: EmbeddedGraph
    g_minus: EmbeddedGraph
    w: int


def _axis_if_valid(g: EmbeddedGraph, slope: int) -> DiagonalAxis | None:
    # The reflection in y = x + c is the swap (x, y) -> (y - c, x + c), and the one in x + y = c
    # is (x, y) -> (c - y, c - x).  Mapping g onto itself, either one maps the leftmost column
    # onto the lowest row, which fixes c.  No slope but +1 or -1, and no empty graph, has an axis.
    if slope not in (SLOPE_UP, SLOPE_DOWN) or not g.vertices or not _maps_onto(g, g, [(True, slope, slope)]):
        return None
    xs, ys = _coords(g.vertices)
    c = min(ys) - xs[0] if slope == SLOPE_UP else min(ys) + xs[-1]
    diagonal = map(sub, ys, xs) if slope == SLOPE_UP else map(add, xs, ys)
    on_axis = tuple(compress(g.vertices, map(c.__eq__, diagonal)))
    axis = DiagonalAxis(slope=slope, offset=c, on_axis=on_axis)
    object.__setattr__(axis, "found_on", g)
    return axis


def find_diagonal_axis(g: EmbeddedGraph) -> DiagonalAxis | None:
    """A diagonal symmetry axis, slope +1 preferred, or None.

    Each slope has at most one candidate: the reflection maps the leftmost
    column onto the lowest row, so its offset is fixed by the vertices.
    """
    return _axis_if_valid(g, SLOPE_UP) or _axis_if_valid(g, SLOPE_DOWN)


def apply_factorization(g: EmbeddedGraph, axis: DiagonalAxis) -> FactorizationResult:
    """Cut g along the axis and return the upper and lower halves.

    A unit step changes the diagonal value by exactly 1, so no edge joins
    the two sides and no two on-axis vertices are adjacent.  The cut
    therefore leaves G+ as g induced on the upper side plus the 1st, 3rd,
    ... on-axis vertex, and G- as g induced on the rest.

    The axis is checked against g unless find_diagonal_axis found it on this
    very graph object, which is immutable, so the check would repeat its proof.
    An axis made by hand, by dataclasses.replace or on another graph object,
    even an equal one, is checked in full.
    """
    if axis.found_on is not g and _axis_if_valid(g, axis.slope) != axis:
        raise FactorizationError("axis is not a valid symmetry axis for this graph")
    c, slope = axis.offset, axis.slope
    plus_pts = {p for p in g.vertices if p[1] - slope * p[0] > c}
    plus_pts.update(axis.on_axis[::2])
    return FactorizationResult(
        g_plus=induced_subgraph(g, plus_pts),
        g_minus=induced_subgraph(g, set(g.vertices) - plus_pts),
        w=axis.w,
    )

