"""Embedded unit-grid graphs: construction, reduction, and canonical forms.

Vertices live at integer plane points and every edge joins two points at
L1 distance exactly 1, so a graph is fully described by its vertex list
and an explicit edge set (edges may be a strict subset of the adjacent
pairs, e.g. after a symmetry cut).
"""

from __future__ import annotations

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


def unit_neighbors(p: Point) -> tuple[Point, ...]:
    """The four lattice points at L1 distance 1 from p."""
    x, y = p
    return ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))


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

    def adjacency(self) -> dict[Point, list[Point]]:
        """Point-keyed adjacency lists, neighbor lists sorted."""
        adj: dict[Point, list[Point]] = {p: [] for p in self.vertices}
        for p, q in self.point_pairs():
            adj[p].append(q)
            adj[q].append(p)
        for p in adj:
            adj[p].sort()
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
    degree-0 vertex can never be matched, so the count is zero.
    """
    adj = {p: set(ns) for p, ns in g.adjacency().items()}
    forced: list[PointPair] = []
    while True:
        lonely = None
        pendant = None
        for p in sorted(adj):
            d = len(adj[p])
            if d == 0:
                lonely = p
                break
            if d == 1 and pendant is None:
                pendant = p
        if lonely is not None:
            return ReductionReport(_subgraph(g, set(adj)), tuple(forced), True)
        if pendant is None:
            return ReductionReport(_subgraph(g, set(adj)), tuple(forced), False)
        partner = next(iter(adj[pendant]))
        forced.append((pendant, partner))
        for gone in (pendant, partner):
            for q in adj[gone]:
                adj[q].discard(gone)
        for q in adj[pendant] - {partner}:
            adj[q].discard(pendant)
        del adj[pendant]
        del adj[partner]


def _subgraph(g: EmbeddedGraph, keep: set[Point]) -> EmbeddedGraph:
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
    """True iff some lattice symmetry plus translation maps g1 exactly onto g2."""
    return normalize(g1) == normalize(g2)


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
