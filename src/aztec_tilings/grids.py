"""Embedded unit-grid graphs: construction, reduction, and canonical forms.

Vertices live at integer plane points and every edge joins two points at
L1 distance exactly 1, so a graph is fully described by its vertex list
and an explicit edge set (edges may be a strict subset of the adjacent
pairs, e.g. in a graph read from JSON).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
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


@dataclass(frozen=True)
class EmbeddedGraph:
    """Immutable grid graph: sorted vertex points plus sorted index-pair edges."""

    vertices: tuple[Point, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if list(self.vertices) != sorted(set(self.vertices)):
            raise ValueError("vertices must be sorted and distinct")
        n = len(self.vertices)
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < v < n):
                raise ValueError(f"bad edge indices ({u}, {v})")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            (x1, y1), (x2, y2) = self.vertices[u], self.vertices[v]
            if abs(x1 - x2) + abs(y1 - y2) != 1:
                raise ValueError(f"edge ({u}, {v}) is not a unit step")
        if list(self.edges) != sorted(self.edges):
            raise ValueError("edges must be sorted")

    @classmethod
    def from_points(
        cls,
        points: Iterable[Point],
        pairs: Optional[Iterable[PointPair]] = None,
    ) -> "EmbeddedGraph":
        """Build a graph from points; with pairs=None, connect all unit neighbors."""
        vs = tuple(sorted(set((int(x), int(y)) for x, y in points)))
        index = {p: i for i, p in enumerate(vs)}
        if pairs is None:
            pset = set(vs)
            es = set()
            for (x, y) in vs:
                for dx, dy in ((1, 0), (0, 1)):
                    q = (x + dx, y + dy)
                    if q in pset:
                        es.add((index[(x, y)], index[q]))
        else:
            es = set()
            for p, q in pairs:
                p = (int(p[0]), int(p[1]))
                q = (int(q[0]), int(q[1]))
                if p not in index or q not in index:
                    raise ValueError(f"edge endpoint {p}-{q} is not a vertex")
                i, j = index[p], index[q]
                es.add((min(i, j), max(i, j)))
        return cls(vertices=vs, edges=tuple(sorted(es)))

    def __len__(self) -> int:
        return len(self.vertices)

    def point_pairs(self) -> list[PointPair]:
        """Edges as point pairs."""
        return [(self.vertices[u], self.vertices[v]) for u, v in self.edges]

    def edge_set(self) -> set[PointPair]:
        """Edges as a set of point pairs, each with its smaller point first.

        Vertices are sorted and every edge has u < v, so point_pairs() is
        already in this form.  Not cached: a graph held for a long run
        would otherwise keep its set alive.
        """
        return set(self.point_pairs())

    def adjacency(self) -> dict[Point, set[Point]]:
        """Point-keyed neighbor sets, keys in vertex order."""
        adj: dict[Point, set[Point]] = {p: set() for p in self.vertices}
        for p, q in self.point_pairs():
            adj[p].add(q)
            adj[q].add(p)
        return adj

    def to_json_dict(self) -> dict:
        return {
            "vertices": [list(p) for p in self.vertices],
            "edges": [list(e) for e in self.edges],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "EmbeddedGraph":
        vs = [tuple(p) for p in data["vertices"]]
        for u, v in data["edges"]:
            if not (0 <= u < len(vs) and 0 <= v < len(vs)):
                raise ValueError(f"edge ({u}, {v}) indexes outside 0..{len(vs) - 1}")
        pairs = [(vs[u], vs[v]) for u, v in data["edges"]]
        return cls.from_points(vs, pairs)


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
    """The points in keep with every edge of g between two of them."""
    pairs = [(p, q) for p, q in g.point_pairs() if p in keep and q in keep]
    return EmbeddedGraph.from_points(keep, pairs)


def bipartite_imbalance(g: EmbeddedGraph) -> int:
    """#vertices with even x+y minus #vertices with odd x+y."""
    bal = 0
    for x, y in g.vertices:
        bal += 1 if (x + y) % 2 == 0 else -1
    return bal


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
        index = {p: i for i, p in enumerate(vs)}
        es = []
        for p, q in g.point_pairs():
            i, j = index[shifted[p]], index[shifted[q]]
            es.append((min(i, j), max(i, j)))
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
    points, pairs = set(g2.vertices), g2.edge_set()
    # Vertices are sorted, so x runs from the first point to the last.
    lo = (g1.vertices[0][0], min(y for _, y in g1.vertices))
    hi = (g1.vertices[-1][0], max(y for _, y in g1.vertices))
    corner = (g2.vertices[0][0], min(y for _, y in g2.vertices))
    for sym in LATTICE_SYMMETRIES:
        # A symmetry maps g1's bounding box to the box spanned by its moved corners.
        a, b = sym(*lo), sym(*hi)
        dx, dy = corner[0] - min(a[0], b[0]), corner[1] - min(a[1], b[1])
        placed = []
        for x, y in g1.vertices:
            u, v = sym(x, y)
            p = (u + dx, v + dy)
            if p not in points:
                break
            placed.append(p)
        else:
            if all((placed[i], placed[j]) in pairs or (placed[j], placed[i]) in pairs
                   for i, j in g1.edges):
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
