"""Embedded unit-grid graphs: construction, reduction, and canonical forms.

Vertices live at integer plane points and every edge joins two points at
L1 distance exactly 1, so a graph is fully described by its vertex list
and an explicit edge set (edges may be a strict subset of the adjacent
pairs, e.g. in a graph read from JSON).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import chain
from operator import add, itemgetter, lt
from typing import Iterable, Iterator, Optional, TYPE_CHECKING

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

# LATTICE_SYMMETRIES as (swap, sx, sy): (x, y) -> (sx*x, sy*y), x and y exchanged first
# if swap.  A map sending (1, 0) to (0, b) and (0, 1) to (c, 0) is (x, y) -> (c*y, b*x).
_SIGN_SWAP = tuple((True, s(0, 1)[0], s(1, 0)[1]) if s(1, 0)[0] == 0 else (False, s(1, 0)[0], s(0, 1)[1])
                   for s in LATTICE_SYMMETRIES)


def _unit_step(edge: PointPair) -> PointPair:
    """edge (p, q), once checked to step from p to q by (1, 0) or (0, 1)."""
    p, q = edge
    if (q[0] - p[0], q[1] - p[1]) not in {(1, 0), (0, 1)}:
        raise ValueError(f"edge {p}-{q} is not a unit step from its smaller point")
    return edge


def _int_points(points: Iterable[Point]) -> Iterator[Point]:
    """Each point as an (x, y) tuple, checked before any is merged with an equal one:
    a coordinate that is not an int (a float or a bool) raises ValueError."""
    for x, y in points:
        if type(x) is not int or type(y) is not int:
            raise ValueError(f"point ({x!r}, {y!r}) has a non-integer coordinate")
        yield x, y


@dataclass(frozen=True)
class EmbeddedGraph:
    """Immutable grid graph: sorted vertex points plus sorted unit-step point pairs.

    full True records that every two vertices at distance 1 are joined by an
    edge, as proved by the construction that built the graph.  False means
    "not known": the constructor, a pairs list and JSON input leave it False
    even when no unit pair is missing.  It is not part of ==, hash or repr.
    """

    vertices: tuple[Point, ...]
    edges: tuple[PointPair, ...]
    full: bool = field(default=False, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        vs, es = self.vertices, self.edges
        if type(vs) is not tuple or type(es) is not tuple:
            raise ValueError("vertices and edges must be tuples")
        if {*map(type, vs), *map(type, es), *map(type, chain.from_iterable(es))} - {tuple}:
            raise ValueError("every vertex, edge and edge endpoint must be a tuple")
        for _ in _int_points(chain(vs, chain.from_iterable(es))):
            pass  # _int_points raises at the first point, vertices first, that is not two ints
        points = set(vs)
        if not all(map(lt, vs, vs[1:])):
            raise ValueError("vertices must be sorted and distinct")
        if not all(map(lt, es, es[1:])):
            raise ValueError("edges must be sorted and distinct")
        for p, q in es:
            if p not in points or q not in points:
                raise ValueError(f"edge endpoint {p}-{q} is not a vertex")
            _unit_step((p, q))

    @classmethod
    def _trusted(cls, vertices: tuple[Point, ...], edges: tuple[PointPair, ...],
                 full: bool) -> "EmbeddedGraph":
        """Skip __post_init__'s checks: each caller says why its graph is valid as built,
        and why it joins every unit pair if it passes full=True."""
        g = object.__new__(cls)
        g.__dict__.update(vertices=vertices, edges=edges, full=full)
        return g

    @classmethod
    def _from_columns(cls, runs: Iterable[tuple[int, int, int]]) -> "EmbeddedGraph":
        """The graph joining every unit pair of the points (x, y), lo <= y < hi, of int
        runs (x, lo, hi), one per column, given with x strictly ascending.

        Valid and full as built: columns come with x ascending, each run ascending
        in y, so the points are sorted and distinct.  The unit pairs at p = (x, y)
        are its up neighbour (x, y+1), there iff y+1 < hi, and its right neighbour
        (x+1, y), there iff the next run is column x+1 and holds y.  Each is emitted
        as (p, q) holding the vertex tuples: p ascends, and (x, y+1) < (x+1, y).
        """
        vs, es = [], []
        cols = [(x, lo, [(x, y) for y in range(lo, hi)]) for x, lo, hi in runs if lo < hi]
        for (x, lo, col), (nx, nlo, nxt) in zip(cols, cols[1:] + [(None, 0, [])]):
            # col[k]'s up neighbour is col[k+1] and its right one rights[k]; None past either end.
            rights = [None] * (nlo - lo) + nxt[max(lo - nlo, 0):] if nx == x + 1 else []
            vs += col
            es += filter(itemgetter(1), chain.from_iterable(
                zip(zip(col, col[1:] + [None]), zip(col, rights + [None] * len(col)))))
        return cls._trusted(tuple(vs), tuple(es), full=True)

    @classmethod
    def from_points(
        cls,
        points: Iterable[Point],
        pairs: Optional[Iterable[PointPair]] = None,
    ) -> "EmbeddedGraph":
        """Build a graph from points; with pairs=None, connect all unit neighbors.

        A coordinate that is not an int (a float or a bool) raises ValueError.
        """
        vs = tuple(sorted(set(_int_points(points))))
        # Edges hold the vertex tuples themselves, so they allocate no points of their own.
        vertex = {p: p for p in vs}.get
        if pairs is None:
            # Distinct int points, sorted, joined by unit steps that come out sorted:
            # p ascends, and (x, y+1) < (x+1, y).  So the graph is valid as built, and
            # full: each unit pair is a point and its up or right neighbour.
            return cls._trusted(vs, tuple(
                (p, q) for p in vs
                for q in (vertex((p[0], p[1] + 1)), vertex((p[0] + 1, p[1])))
                if q is not None), full=True)
        es = set()
        for a, b in pairs:
            p, q = vertex(tuple(a)), vertex(tuple(b))
            if p is None or q is None:
                raise ValueError(f"edge endpoint {a}-{b} is not a vertex")
            es.add((p, q) if p < q else (q, p))
        # Distinct int points, sorted; edges of two vertex tuples, smaller point first, sorted,
        # distinct, each a unit step.  So the graph is valid as built; nothing proves it full.
        return cls._trusted(vs, tuple(map(_unit_step, sorted(es))), full=False)

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
        vs = json_int_pairs(data, "vertices", "vertex")
        edges = json_int_pairs(data, "edges", "edge")
        if not all(0 <= i < len(vs) for e in edges for i in e):
            raise ValueError(f"an edge indexes outside 0..{len(vs) - 1}")
        return cls.from_points(vs, [(vs[u], vs[v]) for u, v in edges])


def json_int_pairs(data: dict, key: str, what: str) -> list[tuple[int, int]]:
    """data[key]'s distinct JSON [a, b] lists of ints as tuples; ValueError otherwise, bools
    included, and when data is not a JSON object holding key."""
    if type(data) is not dict or key not in data:
        raise ValueError(f"a region or graph must be a JSON object with the field {key!r}")
    items = data[key]
    if type(items) is not list:
        raise ValueError(f"{what} list must be a JSON list, not {type(items).__name__}")
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
    """Graph with one vertex per cell and edges between side-sharing cells,
    built from the column runs of a builder's region, through from_points otherwise."""
    if region._runs is not None:
        return EmbeddedGraph._from_columns(region._runs)
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
    # Order-preserving filters of a valid graph, keeping only edges whose ends are kept.
    # A unit pair of kept vertices is a unit pair of g, so a full g gives a full result.
    return EmbeddedGraph._trusted(
        vertices=tuple(p for p in g.vertices if p in keep),
        edges=tuple(e for e in g.edges if e[0] in keep and e[1] in keep),
        full=g.full,
    )


def _coords(points: tuple[Point, ...]) -> tuple[list[int], list[int]]:
    return list(map(itemgetter(0), points)), list(map(itemgetter(1), points))


def _affine(coords: Iterable[int], sign: int, low: int):
    """The map c -> sign*c + shift whose least value on coords is low, as one C-level callable."""
    return (low - min(coords)).__add__ if sign > 0 else (low + max(coords)).__sub__


def _joins_all_unit_pairs(g: EmbeddedGraph, xs: list[int], ys: list[int]) -> bool:
    """True iff g has an edge between every two of its vertices at distance 1."""
    # Key (x, y) as x*w + y, w wider than the span of y: the neighbours (x, y+1) and
    # (x+1, y) are keyed +1 and +w, and int keys hash for free where tuples would not.
    w = max(ys) - min(ys) + 2
    keys = list(map(add, map(w.__mul__, xs), ys))
    has = set(keys).__contains__
    return len(g.edges) == sum(map(has, map((1).__add__, keys))) + sum(map(has, map(w.__add__, keys)))


def normalize(g: EmbeddedGraph) -> EmbeddedGraph:
    """Canonical representative under the 8 lattice symmetries and translation."""
    if not g.vertices:
        return g
    coords = _coords(g.vertices)
    best = None
    for swap, sx, sy in _SIGN_SWAP:
        us, vs = coords[::-1] if swap else coords
        shifted = dict(zip(g.vertices, zip(map(_affine(us, sx, 0), us), map(_affine(vs, sy, 0), vs))))
        points = tuple(sorted(shifted.values()))
        es = []
        for p, q in g.edges:
            a, b = shifted[p], shifted[q]
            es.append((a, b) if a < b else (b, a))
        key = (points, tuple(sorted(es)))
        if best is None or key < best:
            best = key
    # A symmetry and a shift keep points distinct and unit steps unit steps, and
    # both tuples are sorted with each edge's smaller point first.  They map the unit
    # pairs of g one to one onto those of the result, so a full g gives a full result.
    return EmbeddedGraph._trusted(*best, full=g.full)


def _maps_onto(g1: EmbeddedGraph, g2: EmbeddedGraph,
               symmetries: Iterable[tuple[bool, int, int]]) -> bool:
    """Whether some (swap, sx, sy) maps g1 onto g2 when shifted so that their bounding
    boxes meet; the graphs have equal vertex and edge counts."""
    xs, ys = _coords(g1.vertices)
    axes = (xs, (xs[0], xs[-1])), (ys, (min(ys), max(ys)))  # each axis and its ends; xs is sorted
    lows = g2.vertices[0][0], (axes[1][1][0] if g2 is g1 else min(map(itemgetter(1), g2.vertices)))
    points, full = set(g2.vertices), None
    for swap, sx, sy in symmetries:
        (us, u_ends), (vs, v_ends) = axes[::-1] if swap else axes
        u, v = _affine(u_ends, sx, lows[0]), _affine(v_ends, sy, lows[1])
        # Stops at the first vertex sent off g2: on Python 3.10, set.issuperset builds a set first.
        if not all(map(points.__contains__, zip(map(u, us), map(v, vs)))):
            continue
        if full is None:
            full = g1.full or g2.full or _joins_all_unit_pairs(g1, xs, ys)
        if full:
            return True
        placed, pairs = dict(zip(g1.vertices, zip(map(u, us), map(v, vs)))), set(g2.edges)
        if all((placed[p], placed[q]) in pairs or (placed[q], placed[p]) in pairs for p, q in g1.edges):
            return True
    return False


def isomorphic_embedded(g1: EmbeddedGraph, g2: EmbeddedGraph) -> bool:
    """True iff some lattice symmetry plus translation maps g1 exactly onto g2.

    The answer is normalize(g1) == normalize(g2).  Such a map lines up the bounding
    boxes, so each symmetry has one shift to try, and is rejected at the first vertex
    of g1 it sends off g2.  It is injective, so with equal vertex counts, sending each
    vertex of g1 into g2 makes it a bijection.  Its edges then need no check if either
    graph joins every two unit neighbours.  If g1 does, the map carries its edges onto
    all such pairs of g2, which has as many edges and so no others.  If g2 does, the
    map carries each edge of g1, a unit pair, onto a unit pair of g2, which is an edge;
    with as many edges on both sides, they correspond one to one.  A graph's full flag
    proves this without a count; otherwise g1's unit pairs are counted once, and if
    some is missing each edge is checked.
    """
    return (len(g1.vertices) == len(g2.vertices) and len(g1.edges) == len(g2.edges)
            and (not g1.vertices or _maps_onto(g1, g2, _SIGN_SWAP)))
