"""Embedded unit-grid graphs: construction, reduction, and canonical forms.

Vertices live at integer plane points and every edge joins two points at
L1 distance exactly 1, so a graph is fully described by its vertex list
and an explicit edge set (edges may be a strict subset of the adjacent
pairs, e.g. in a graph read from JSON).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import itemgetter, lt
from typing import Iterable, Optional, TYPE_CHECKING

if TYPE_CHECKING:
    from .regions import Region

Point = tuple[int, int]
PointPair = tuple[Point, Point]

# The 8 symmetries of the square lattice, as maps on (x, y).
LATTICE_SYMMETRIES = (
    lambda x, y: (x, y),
    lambda x, y: (-y, x),
    lambda x, y: (-x, -y),
    lambda x, y: (y, -x),
    lambda x, y: (-x, y),
    lambda x, y: (x, -y),
    lambda x, y: (y, x),
    lambda x, y: (-y, -x),
)

# An edge (p, q) steps from its smaller point p to q by one of these.
_UNIT_STEPS = {(1, 0), (0, 1)}


@dataclass(frozen=True)
class EmbeddedGraph:
    """Immutable grid graph: sorted vertex points plus sorted unit-step point pairs."""

    vertices: tuple[Point, ...]
    edges: tuple[PointPair, ...]

    def __post_init__(self) -> None:
        vs, es = self.vertices, self.edges
        if not all(map(lt, vs, vs[1:])):
            raise ValueError("vertices must be sorted and distinct")
        if not all(map(lt, es, es[1:])):
            raise ValueError("edges must be sorted and distinct")
        points = set(vs)
        if (points.issuperset(map(itemgetter(0), es)) and points.issuperset(map(itemgetter(1), es))
                and {(q[0] - p[0], q[1] - p[1]) for p, q in es} <= _UNIT_STEPS):
            return
        # Some edge is bad: find the first one to name it.
        for p, q in es:
            if p not in points or q not in points:
                raise ValueError(f"edge endpoint {p}-{q} is not a vertex")
            if (q[0] - p[0], q[1] - p[1]) not in _UNIT_STEPS:
                raise ValueError(f"edge {p}-{q} is not a unit step from its smaller point")

    @classmethod
    def from_points(
        cls,
        points: Iterable[Point],
        pairs: Optional[Iterable[PointPair]] = None,
    ) -> "EmbeddedGraph":
        """Build a graph from points; with pairs=None, connect all unit neighbors.

        A coordinate that is not an int (a float or a bool) raises ValueError.
        """
        point_set = set()
        for x, y in points:
            if type(x) is not int or type(y) is not int:
                raise ValueError(f"point ({x!r}, {y!r}) has a non-integer coordinate")
            point_set.add((x, y))
        vs = tuple(sorted(point_set))
        # Edges hold the vertex tuples themselves, so they allocate no points of their own.
        vertex = {p: p for p in vs}.get
        if pairs is None:
            es = [(p, q) for p in vs
                  for q in (vertex((p[0], p[1] + 1)), vertex((p[0] + 1, p[1])))
                  if q is not None]
        else:
            es = set()
            for a, b in pairs:
                p, q = vertex(tuple(a)), vertex(tuple(b))
                if p is None or q is None:
                    raise ValueError(f"edge endpoint {a}-{b} is not a vertex")
                es.add((p, q) if p < q else (q, p))
        # Unit-neighbor edges come out sorted: p ascends, and (x, y+1) < (x+1, y).
        return cls(vertices=vs, edges=tuple(es) if pairs is None else tuple(sorted(es)))

    def __len__(self) -> int:
        return len(self.vertices)

    def point_pairs(self) -> list[PointPair]:
        """Edges as a list of point pairs."""
        return list(self.edges)

    def adjacency(self) -> dict[Point, set[Point]]:
        """Point-keyed neighbor sets, keys in vertex order."""
        adj: dict[Point, set[Point]] = {p: set() for p in self.vertices}
        for p, q in self.edges:
            adj[p].add(q)
            adj[q].add(p)
        return adj

    def to_json_dict(self) -> dict:
        """Vertices as [x, y] lists, edges as [i, j] positions in that list."""
        index = {p: i for i, p in enumerate(self.vertices)}
        return {
            "vertices": [list(p) for p in self.vertices],
            "edges": [[index[p], index[q]] for p, q in self.edges],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "EmbeddedGraph":
        vs = json_int_pairs(data["vertices"], "vertex")
        edges = json_int_pairs(data["edges"], "edge")
        if not all(0 <= i < len(vs) for e in edges for i in e):
            raise ValueError(f"an edge indexes outside 0..{len(vs) - 1}")
        return cls.from_points(vs, [(vs[u], vs[v]) for u, v in edges])


def json_int_pairs(items: list, what: str) -> list[tuple[int, int]]:
    """Distinct JSON [a, b] lists of ints as tuples; ValueError otherwise, bools included."""
    if not all(type(p) is list and len(p) == 2 and all(type(c) is int for c in p) for p in items):
        raise ValueError(f"each {what} must be a list of two integers")
    pairs = [tuple(p) for p in items]
    if len(set(pairs)) != len(pairs):
        raise ValueError(f"duplicate {what}")
    return pairs


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of forced-edge elimination.

    If infeasible is False the residual graph has the same number of
    perfect matchings as the input; if True the input has none.
    """

    reduced: EmbeddedGraph
    forced_pairs: tuple[PointPair, ...]
    infeasible: bool


def dual_graph(region: "Region") -> EmbeddedGraph:
    """Graph with one vertex per cell and edges between side-sharing cells."""
    return EmbeddedGraph.from_points(region.cells)


def reduce_forced(g: EmbeddedGraph) -> ReductionReport:
    """Strip degree-1 forcings to a fixed point; flag isolated vertices.

    A degree-1 vertex forces its unique edge into every perfect matching,
    so both endpoints can be dropped without changing the count.  A
    degree-0 vertex can never be matched, so the count is zero.  The
    smallest pendant vertex is forced first, and reduction stops as soon
    as a vertex is left isolated.
    """
    adj = g.adjacency()
    forced: list[PointPair] = []
    infeasible = any(not ns for ns in adj.values())
    # Degrees only fall, and reaching 0 ends the loop, so every queued
    # vertex still in adj has degree exactly 1.
    pendants = [p for p, ns in adj.items() if len(ns) == 1]
    heapq.heapify(pendants)
    while pendants and not infeasible:
        pendant = heapq.heappop(pendants)
        if pendant not in adj:
            continue
        (partner,) = adj.pop(pendant)
        forced.append((pendant, partner))
        for q in adj.pop(partner) - {pendant}:
            ns = adj[q]
            ns.discard(partner)
            if not ns:
                infeasible = True
            elif len(ns) == 1:
                heapq.heappush(pendants, q)
    return ReductionReport(induced_subgraph(g, set(adj)), tuple(forced), infeasible)


def induced_subgraph(g: EmbeddedGraph, keep: set[Point]) -> EmbeddedGraph:
    """The vertices of g in keep with every edge of g between two of them."""
    return EmbeddedGraph(
        vertices=tuple(p for p in g.vertices if p in keep),
        edges=tuple(e for e in g.edges if e[0] in keep and e[1] in keep),
    )


def normalize(g: EmbeddedGraph) -> EmbeddedGraph:
    """Canonical representative under the 8 lattice symmetries and translation."""
    if not g.vertices:
        return g
    best = None
    for sym in LATTICE_SYMMETRIES:
        moved = [sym(x, y) for x, y in g.vertices]
        ox = min(x for x, _ in moved)
        oy = min(y for _, y in moved)
        shifted = {p: (q[0] - ox, q[1] - oy) for p, q in zip(g.vertices, moved)}
        vs = tuple(sorted(shifted.values()))
        es = []
        for p, q in g.edges:
            a, b = shifted[p], shifted[q]
            es.append((a, b) if a < b else (b, a))
        key = (vs, tuple(sorted(es)))
        if best is None or key < best:
            best = key
    return EmbeddedGraph(vertices=best[0], edges=best[1])


def isomorphic_embedded(g1: EmbeddedGraph, g2: EmbeddedGraph) -> bool:
    """True iff some lattice symmetry plus translation maps g1 exactly onto g2.

    The map is injective, so with equal vertex and edge counts, sending every
    vertex and edge of g1 into g2 makes it a bijection: normalize(g1) == normalize(g2).
    """
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False
    if not g1.vertices:
        return True
    points, pairs = set(g2.vertices), set(g2.edges)
    # Vertices are sorted, so x runs from the first point to the last.
    lo = (g1.vertices[0][0], min(y for _, y in g1.vertices))
    hi = (g1.vertices[-1][0], max(y for _, y in g1.vertices))
    corner = (g2.vertices[0][0], min(y for _, y in g2.vertices))
    for sym in LATTICE_SYMMETRIES:
        # A symmetry maps g1's bounding box to the box spanned by its moved corners.
        a, b = sym(*lo), sym(*hi)
        dx, dy = corner[0] - min(a[0], b[0]), corner[1] - min(a[1], b[1])
        placed = {}
        for point in g1.vertices:
            u, v = sym(*point)
            p = (u + dx, v + dy)
            if p not in points:
                break
            placed[point] = p
        else:
            if all((placed[p], placed[q]) in pairs or (placed[q], placed[p]) in pairs
                   for p, q in g1.edges):
                return True
    return False


def connected_components(g: EmbeddedGraph) -> list[set[Point]]:
    """Components as point sets, ordered by their smallest point."""
    adj = g.adjacency()
    seen: set[Point] = set()
    comps = []
    for start in g.vertices:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            p = stack.pop()
            for q in adj[p]:
                if q not in seen:
                    seen.add(q)
                    comp.add(q)
                    stack.append(q)
        comps.append(comp)
    return comps
