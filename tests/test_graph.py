from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aztec_tilings.engines import count_brute
from aztec_tilings.factorize import apply_factorization, find_diagonal_axis
from aztec_tilings.grids import (
    EmbeddedGraph,
    dual_graph,
    induced_subgraph,
    isomorphic_embedded,
    normalize,
    reduce_forced,
)
from aztec_tilings.regions import (
    KLEIN_ABUT,
    PINWHEEL,
    QUARTER_KINDS,
    Region,
    build_aztec_diamond,
    build_quartered,
)

from lattice import moved, placed

cells_5x5 = st.frozensets(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=25
)


def square_at(x, y):
    return EmbeddedGraph.from_points([(x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)])


def test_dual_of_order_1_diamond_is_a_4_cycle():
    g = dual_graph(build_aztec_diamond(1))
    assert len(g) == 4 and len(g.edges) == 4
    assert count_brute(g) == 2


def test_dual_of_pinwheel_3_has_one_matching():
    g = dual_graph(build_quartered(3, PINWHEEL))
    assert len(g) == 6
    assert count_brute(g) == 1


def test_dual_of_empty_region():
    g = dual_graph(Region(cells=frozenset()))
    assert len(g) == 0
    assert count_brute(g) == 1


def test_graph_validation():
    with pytest.raises(ValueError, match="unit step"):
        EmbeddedGraph(vertices=((0, 0), (2, 0)), edges=(((0, 0), (2, 0)),))
    with pytest.raises(ValueError):
        EmbeddedGraph(vertices=((0, 0), (0, 0)), edges=())
    with pytest.raises(ValueError):
        EmbeddedGraph.from_points([(0, 0)], [((0, 0), (1, 0))])
    with pytest.raises(ValueError):
        EmbeddedGraph.from_json_dict({"vertices": [[0, 0], [0, 1]], "edges": [[0, 5]]})
    # a negative index must not wrap around to the last vertex
    with pytest.raises(ValueError):
        EmbeddedGraph.from_json_dict(
            {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]], "edges": [[-1, 0], [0, 1]]}
        )


@pytest.mark.parametrize(
    "points,pairs",
    [
        ([(0, 0), (1.9, 0)], None),  # once truncated to the edge (0, 0)-(1, 0)
        ([(0, 0), (1.0, 0)], None),
        ([(0, 0), (0, True)], None),
        ([(0, 0), (1.9, 0)], [((0, 0), (1, 0))]),
    ],
)
def test_from_points_rejects_non_integer_coordinates(points, pairs):
    with pytest.raises(ValueError, match="non-integer"):
        EmbeddedGraph.from_points(points, pairs)


SQUARE_POINTS = ((0, 0), (0, 1), (1, 0), (1, 1))


@pytest.mark.parametrize(
    "edges,message",
    [
        ((((0, 0), (1, 0)), ((0, 0), (0, 1))), "edges must be sorted and distinct"),
        ((((0, 0), (0, 1)), ((0, 0), (0, 1))), "edges must be sorted and distinct"),
        ((((0, 0), (0, 1)), ((1, 1), (1, 2))), "not a vertex"),
        ((((0, 1), (0, 0)),), "smaller point"),
    ],
    ids=["unsorted", "duplicate", "endpoint_not_a_vertex", "larger_point_first"],
)
def test_graph_rejects_each_bad_edge_list(edges, message):
    with pytest.raises(ValueError, match=message):
        EmbeddedGraph(vertices=SQUARE_POINTS, edges=edges)


def test_from_points_puts_the_vertex_tuples_into_the_edges():
    for g in (square_at(0, 0), EmbeddedGraph.from_points(SQUARE_POINTS, [((1, 1), (0, 1))])):
        ids = {id(p) for p in g.vertices}
        assert g.edges and all(id(p) in ids for e in g.edges for p in e)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_from_points_checks_a_pairs_list_once_as_the_constructor_would(data):
    # Points in a 5x5 box, some repeated.  Pairs among them: unit pairs either way round,
    # some repeated, and in about half the lists any two points (a point with itself too).
    points = data.draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                                min_size=1, max_size=25))
    units = EmbeddedGraph.from_points(points).edges
    kinds = [st.sampled_from(units + tuple(e[::-1] for e in units))] if units else []
    if data.draw(st.booleans()) or not units:
        kinds.append(st.tuples(st.sampled_from(points), st.sampled_from(points)))
    pairs = data.draw(st.lists(st.one_of(kinds), max_size=30))
    vertices = tuple(sorted(set(points)))
    edges = tuple(sorted({(p, q) if p < q else (q, p) for p, q in pairs}))
    if all(abs(p[0] - q[0]) + abs(p[1] - q[1]) == 1 for p, q in pairs):
        g = EmbeddedGraph.from_points(points, pairs)
        assert (g.vertices, g.edges) == (vertices, edges)
        assert g == EmbeddedGraph(vertices=g.vertices, edges=g.edges) and not g.full
        ids = {id(p) for p in g.vertices}
        assert all(id(p) in ids for e in g.edges for p in e)
        assert EmbeddedGraph.from_json_dict(g.to_json_dict()) == g
        return
    with pytest.raises(ValueError) as oracle:
        EmbeddedGraph(vertices=vertices, edges=edges)
    with pytest.raises(ValueError) as raised:
        EmbeddedGraph.from_points(points, pairs)
    assert str(raised.value) == str(oracle.value)
    assert str(raised.value).endswith("is not a unit step from its smaller point")


def test_graph_json_round_trip():
    g = dual_graph(build_quartered(5, KLEIN_ABUT))
    data = g.to_json_dict()
    assert data["vertices"] == sorted(data["vertices"])
    assert data["edges"] == sorted(data["edges"])
    assert EmbeddedGraph.from_json_dict(data) == g


def test_reduce_forced_collapses_a_path():
    path = EmbeddedGraph.from_points([(0, 0), (0, 1), (0, 2), (0, 3)])
    report = reduce_forced(path)
    assert not report.infeasible
    assert len(report.reduced) == 0
    assert len(report.forced_pairs) == 2
    assert count_brute(path) == 1


def test_reduce_forced_flags_isolated_vertex():
    g = EmbeddedGraph.from_points([(0, 0), (5, 5)])
    assert reduce_forced(g).infeasible


def test_reduce_forced_reaches_the_smaller_quarter():
    big = dual_graph(build_quartered(8, KLEIN_ABUT))
    small = dual_graph(build_quartered(6, KLEIN_ABUT))
    report = reduce_forced(big)
    assert not report.infeasible
    assert isomorphic_embedded(report.reduced, small)


@settings(max_examples=200, deadline=None)
@given(cells_5x5)
def test_reduce_forced_preserves_matching_count(cells):
    g = EmbeddedGraph.from_points(cells)
    report = reduce_forced(g)
    if report.infeasible:
        assert count_brute(g) == 0
    else:
        assert count_brute(g) == count_brute(report.reduced)


def rescan_reduce_forced(g):
    """Reference: rescan every vertex in sorted order after each forcing."""
    adj = {p: set() for p in g.vertices}
    for p, q in g.point_pairs():
        adj[p].add(q)
        adj[q].add(p)
    forced = []
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
        if lonely is not None or pendant is None:
            keep = set(adj)
            pairs = [(p, q) for p, q in g.point_pairs() if p in keep and q in keep]
            return EmbeddedGraph.from_points(keep, pairs), tuple(forced), lonely is not None
        partner = next(iter(adj[pendant]))
        forced.append((pendant, partner))
        for gone in (pendant, partner):
            for q in adj[gone]:
                adj[q].discard(gone)
        del adj[pendant]
        del adj[partner]


@st.composite
def thinned_grid_graphs(draw):
    """Rectangles with a few cells and a random share of edges dropped.

    Dense enough that many pendants are forced in a row; the larger drop
    rates leave some vertices isolated from the start or midway.
    """
    w, h = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cells = {(x, y) for x in range(w) for y in range(h)}
    holes = draw(st.frozensets(st.sampled_from(sorted(cells)), max_size=6))
    g = EmbeddedGraph.from_points(cells - holes)
    drop = draw(st.sampled_from((0.0, 0.05, 0.15, 0.3)))
    rng = draw(st.randoms(use_true_random=False))
    return EmbeddedGraph.from_points(
        g.vertices, [pq for pq in g.point_pairs() if rng.random() >= drop]
    )


@settings(max_examples=300, deadline=None)
@given(thinned_grid_graphs())
def test_reduce_forced_matches_the_rescan_reference(g):
    report = reduce_forced(g)
    assert (report.reduced, report.forced_pairs, report.infeasible) == rescan_reduce_forced(g)


def bipartite_imbalance(g):
    return sum(1 if (x + y) % 2 == 0 else -1 for x, y in g.vertices)


def test_imbalance_values():
    assert bipartite_imbalance(dual_graph(build_quartered(9, PINWHEEL))) in (1, -1)
    for n in range(1, 9):
        assert bipartite_imbalance(dual_graph(build_aztec_diamond(n))) == 0
    r6 = dual_graph(build_quartered(6, PINWHEEL))
    assert bipartite_imbalance(r6) != 0
    assert count_brute(r6) == 0


@pytest.mark.parametrize("kind", QUARTER_KINDS)
@pytest.mark.parametrize("n", range(1, 11))
def test_imbalance_forces_zero_count(kind, n):
    g = dual_graph(build_quartered(n, kind))
    if bipartite_imbalance(g) != 0:
        from aztec_tilings.engines import count_profile_dp

        assert count_profile_dp(g) == 0


def test_isomorphic_translated_square():
    assert isomorphic_embedded(square_at(0, 0), square_at(5, 7))


def test_isomorphic_rotated_path():
    horiz = EmbeddedGraph.from_points([(0, 0), (1, 0), (2, 0)])
    vert = EmbeddedGraph.from_points([(4, 4), (4, 5), (4, 6)])
    assert isomorphic_embedded(horiz, vert)


def test_not_isomorphic_different_quarters():
    a = dual_graph(build_quartered(4, PINWHEEL))
    b = dual_graph(build_quartered(4, "klein_nonabut"))
    assert not isomorphic_embedded(a, b)


@settings(max_examples=150, deadline=None)
@given(cells_5x5, st.integers(0, 7), st.integers(-9, 9), st.integers(-9, 9))
def test_normalize_constant_on_symmetry_orbit(cells, k, dx, dy):
    g = EmbeddedGraph.from_points(cells)
    h = EmbeddedGraph.from_points(map(moved(k, dx, dy), cells))
    assert normalize(h) == normalize(g)
    assert normalize(normalize(g)) == normalize(g)


BOARD_5x5 = frozenset((x, y) for x in range(5) for y in range(5))


@st.composite
def graph_pairs(draw):
    """(g, h, expected): expected is None where the pair may go either way.

    The "moved" and "edges" pairs keep both counts equal, so only the
    vertex and edge checks can tell them apart.
    """
    cells = draw(cells_5x5)
    g = EmbeddedGraph.from_points(cells)
    kind = draw(st.sampled_from(("placed", "moved", "edges", "mirror", "empty")))
    if kind == "placed":
        k, dx, dy = draw(st.integers(0, 7)), draw(st.integers(-9, 9)), draw(st.integers(-9, 9))
        return g, placed(g, k, dx, dy), True
    if kind == "moved":
        # one cell moved to a free square of the board, the edge count kept
        moves = [
            h for h in (EmbeddedGraph.from_points(cells - {c} | {f})
                        for c in sorted(cells) for f in sorted(BOARD_5x5 - cells))
            if len(h.edges) == len(g.edges)
        ]
        return g, draw(st.sampled_from(moves)) if moves else g, None
    if kind == "edges":
        # the same points, each graph missing a different one of their unit steps
        pairs = g.point_pairs()
        if len(pairs) < 2:
            return g, g, True
        i, j = draw(st.lists(st.integers(0, len(pairs) - 1), min_size=2, max_size=2, unique=True))
        return (EmbeddedGraph.from_points(g.vertices, pairs[:i] + pairs[i + 1:]),
                EmbeddedGraph.from_points(g.vertices, pairs[:j] + pairs[j + 1:]), None)
    if kind == "mirror":
        return g, EmbeddedGraph.from_points((-x, y) for x, y in cells), True
    empty = EmbeddedGraph.from_points([])
    return empty, g, not g.vertices


@settings(max_examples=400, deadline=None)
@given(graph_pairs())
def test_isomorphic_embedded_matches_canonical_forms(pair):
    g, h, expected = pair
    got = isomorphic_embedded(g, h)
    assert got == (normalize(g) == normalize(h))
    assert got == isomorphic_embedded(h, g)
    if expected is not None:
        assert got == expected


def test_chiral_shape_is_isomorphic_to_its_mirror_image():
    # an S tetromino with a tail: no rotation and translation maps it onto its mirror image
    def at_origin(points):
        ox, oy = min(x for x, _ in points), min(y for _, y in points)
        return {(x - ox, y - oy) for x, y in points}

    cells = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (2, 3)]
    mirror = EmbeddedGraph.from_points((-x, y) for x, y in cells)
    for k in range(4):
        assert at_origin(list(map(moved(k), cells))) != at_origin(mirror.vertices)
    assert isomorphic_embedded(EmbeddedGraph.from_points(cells), mirror)


@settings(max_examples=300, deadline=None)
@given(thinned_grid_graphs(), st.randoms(use_true_random=False))
def test_point_pair_edges_match_the_index_pair_construction(g, rng):
    keep = {p for p in g.vertices if rng.random() < 0.7}
    pairs = [(p, q) for p, q in g.point_pairs() if p in keep and q in keep]
    assert induced_subgraph(g, keep) == EmbeddedGraph.from_points(keep, pairs)
    data = g.to_json_dict()
    assert EmbeddedGraph.from_json_dict(data) == g
    index = {p: i for i, p in enumerate(g.vertices)}
    assert data["edges"] == sorted([index[p], index[q]] for p, q in g.edges)
    assert all(i < j for i, j in data["edges"])


def revalidated(g):
    """g rebuilt through the validating constructor, which raises if g breaks an invariant."""
    return EmbeddedGraph(vertices=g.vertices, edges=g.edges)


@settings(max_examples=200, deadline=None)
@given(cells_5x5, st.integers(-9, 9), st.integers(-9, 9), thinned_grid_graphs(),
       st.randoms(use_true_random=False))
def test_graphs_built_unvalidated_pass_the_validator(cells, dx, dy, thinned, rng):
    full = dual_graph(Region(cells=frozenset((x + dx, y + dy) for x, y in cells)))
    for g in (full, thinned):
        keep = {p for p in g.vertices if rng.random() < 0.7}
        for built in (g, reduce_forced(g).reduced, induced_subgraph(g, keep), normalize(g)):
            assert revalidated(built) == built


@pytest.mark.parametrize("kind", QUARTER_KINDS)
def test_quarters_built_unvalidated_pass_the_validator(kind):
    for n in range(1, 33):
        g = dual_graph(build_quartered(n, kind))
        assert revalidated(g) == g
        reduced = reduce_forced(g).reduced
        assert revalidated(reduced) == reduced


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: EmbeddedGraph.from_points([(0, 0), (1.0, 0)]),
         "point (1.0, 0) has a non-integer coordinate"),
        (lambda: dual_graph(Region(cells=frozenset({(0, 0), (0, 1.5)}))),
         "point (0, 1.5) has a non-integer coordinate"),
        (lambda: EmbeddedGraph.from_points(SQUARE_POINTS, [((0, 0), (0, 2))]),
         "edge endpoint (0, 0)-(0, 2) is not a vertex"),
        (lambda: EmbeddedGraph.from_points([(0, 0), (1, 1)], [((1, 1), (0, 0))]),
         "edge (0, 0)-(1, 1) is not a unit step from its smaller point"),
        (lambda: EmbeddedGraph(vertices=((0, 1), (0, 0)), edges=()),
         "vertices must be sorted and distinct"),
        (lambda: EmbeddedGraph(vertices=SQUARE_POINTS, edges=(((0, 0), (0, 2)),)),
         "edge endpoint (0, 0)-(0, 2) is not a vertex"),
        # of several bad edges, the first in edge order is the one named
        (lambda: EmbeddedGraph(vertices=SQUARE_POINTS,
                               edges=(((0, 0), (1, 1)), ((0, 1), (0, 2)))),
         "edge (0, 0)-(1, 1) is not a unit step from its smaller point"),
        (lambda: EmbeddedGraph(vertices=SQUARE_POINTS,
                               edges=(((0, 0), (0, 2)), ((0, 1), (1, 0)))),
         "edge endpoint (0, 0)-(0, 2) is not a vertex"),
        # The constructor applies the rule of from_points and JSON input.  The float graph's
        # two points are one apart, so it once counted 0 matchings where count_brute counted 1.
        (lambda: EmbeddedGraph(vertices=((0.5, 0), (1.5, 0)), edges=(((0.5, 0), (1.5, 0)),)),
         "point (0.5, 0) has a non-integer coordinate"),
        (lambda: EmbeddedGraph(vertices=((0, 0), (True, 0)), edges=()),
         "point (True, 0) has a non-integer coordinate"),
        # (1.0, 0) equals the vertex (1, 0), so it once passed and stayed in edges and repr
        (lambda: EmbeddedGraph(vertices=((0, 0), (1, 0)), edges=(((0, 0), (1.0, 0)),)),
         "point (1.0, 0) has a non-integer coordinate"),
        (lambda: EmbeddedGraph(vertices=((0, 0), (1, 0)), edges=(((0, False), (1, 0)),)),
         "point (0, False) has a non-integer coordinate"),
        (lambda: EmbeddedGraph(vertices=list(SQUARE_POINTS), edges=()),
         "vertices and edges must be tuples"),
        (lambda: EmbeddedGraph(vertices=SQUARE_POINTS, edges=[((0, 0), (0, 1))]),
         "vertices and edges must be tuples"),
        # a list point or edge once passed and left a graph that cannot be hashed
        (lambda: EmbeddedGraph(vertices=((0, 0), (0, 1)), edges=(([0, 0], [0, 1]),)),
         "every vertex, edge and edge endpoint must be a tuple"),
        (lambda: EmbeddedGraph(vertices=((0, 0), (0, 1)), edges=([(0, 0), (0, 1)],)),
         "every vertex, edge and edge endpoint must be a tuple"),
        (lambda: EmbeddedGraph(vertices=([0, 0], [0, 1]), edges=()),
         "every vertex, edge and edge endpoint must be a tuple"),
        (lambda: EmbeddedGraph(vertices=((0, 0), (0, 1)), edges=(((0, 0), None),)),
         "every vertex, edge and edge endpoint must be a tuple"),
        # a pair endpoint that is not a vertex is refused before the pair is ordered
        (lambda: EmbeddedGraph.from_points([(0, 0), (0, 1)], [((0, 0), (0, None))]),
         "edge endpoint (0, 0)-(0, None) is not a vertex"),
        (lambda: EmbeddedGraph.from_points([(0, 0), (0, 1)], [((0, 0), "ab")]),
         "edge endpoint (0, 0)-ab is not a vertex"),
    ],
    ids=["float_point", "float_cell", "pair_endpoint", "pair_not_a_step", "unsorted", "bad_edge",
         "first_of_two_not_a_step", "first_of_two_not_a_vertex", "constructor_float_points",
         "constructor_bool_coordinate", "constructor_float_endpoint", "constructor_bool_endpoint",
         "constructor_vertex_list", "constructor_edge_list", "constructor_list_endpoints",
         "constructor_list_edge", "constructor_list_vertex", "constructor_none_endpoint", "pair_none_endpoint",
         "pair_string_endpoint"],
)
def test_outside_input_is_still_validated_with_the_same_message(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message


@settings(max_examples=300, deadline=None)
@given(thinned_grid_graphs(), st.integers(0, 7), st.integers(-9, 9), st.integers(-9, 9),
       st.randoms(use_true_random=False))
def test_isomorphic_embedded_on_edge_subsets(g, k, dx, dy, rng):
    h = placed(g, k, dx, dy)
    assert isomorphic_embedded(g, h) and isomorphic_embedded(h, g)
    # the placed points with one edge traded for a unit pair it lacks, and with fewer edges
    missing = sorted(set(EmbeddedGraph.from_points(h.vertices).edges) - set(h.edges))
    others = [EmbeddedGraph.from_points(h.vertices, [e for e in h.edges if rng.random() < 0.8])]
    if missing and h.edges:
        dropped = rng.randrange(len(h.edges))
        others.append(EmbeddedGraph.from_points(
            h.vertices, h.edges[:dropped] + h.edges[dropped + 1:] + (rng.choice(missing),)))
    for other in others:
        assert isomorphic_embedded(g, other) == (normalize(g) == normalize(other))
        assert isomorphic_embedded(other, g) == isomorphic_embedded(g, other)


def test_not_isomorphic_with_one_edge_moved():
    # the 3x3 grid without a corner edge, and without an edge at its centre
    grid = EmbeddedGraph.from_points((x, y) for x in range(3) for y in range(3))
    corner, centre = ((0, 0), (1, 0)), ((1, 1), (2, 1))
    a, b = (EmbeddedGraph.from_points(grid.vertices, [e for e in grid.edges if e != cut])
            for cut in (corner, centre))
    assert a.vertices == b.vertices and len(a.edges) == len(b.edges)
    assert not isomorphic_embedded(a, b) and not isomorphic_embedded(b, a)


def test_not_isomorphic_with_equal_row_and_column_counts():
    # two cells swapped across a 2x2 switch: every row and column keeps its count
    a = EmbeddedGraph.from_points([(0, 0), (0, 2), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)])
    b = EmbeddedGraph.from_points([(0, 0), (0, 1), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2)])
    for i in (0, 1):
        assert Counter(p[i] for p in a.vertices) == Counter(p[i] for p in b.vertices)
    assert len(a.edges) == len(b.edges)
    assert normalize(a) != normalize(b)
    assert not isomorphic_embedded(a, b) and not isomorphic_embedded(b, a)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 7), st.integers(-9, 9), st.integers(-9, 9))
def test_isomorphic_embedded_on_full_graphs_with_one_point_moved(data, k, dx, dy):
    # equal vertex and edge counts, often unequal row or column counts: each symmetry
    # is decided by where it sends the vertices, and both graphs are marked full
    points = data.draw(st.frozensets(st.sampled_from(sorted(BOARD_5x5)), min_size=1, max_size=24))
    old = data.draw(st.sampled_from(sorted(points)))
    new = data.draw(st.sampled_from(sorted(BOARD_5x5 - points)))
    a = EmbeddedGraph.from_points(points)
    b = EmbeddedGraph.from_points(map(moved(k, dx, dy), points - {old} | {new}))
    assume(len(a.edges) == len(b.edges))
    assert a.full and b.full
    assert isomorphic_embedded(a, b) == (normalize(a) == normalize(b))
    assert isomorphic_embedded(b, a) == (normalize(a) == normalize(b))


def joins_every_unit_pair(g):
    return set(g.edges) == set(EmbeddedGraph.from_points(g.vertices).edges)


@settings(max_examples=200, deadline=None)
@given(cells_5x5, thinned_grid_graphs(), st.integers(0, 7), st.integers(-9, 9), st.integers(-9, 9),
       st.randoms(use_true_random=False))
def test_every_graph_marked_full_joins_every_unit_pair(cells, thinned, k, dx, dy, rng):
    # mirrored in y = x and then placed, so that the dual graph has a diagonal axis
    mirrored = cells | {(y, x) for x, y in cells}
    dual = dual_graph(Region(cells=frozenset(map(moved(k, dx, dy), mirrored))))
    sources = [dual, EmbeddedGraph.from_points(thinned.vertices), thinned, placed(thinned, k, dx, dy)]
    assert [g.full for g in sources] == [True, True, False, False]
    built = []
    for g in sources:
        keep = {p for p in g.vertices if rng.random() < 0.7}
        derived = [induced_subgraph(g, keep), normalize(g), reduce_forced(g).reduced]
        axis = find_diagonal_axis(g)
        if axis is not None:
            halves = apply_factorization(g, axis)
            derived += [halves.g_plus, halves.g_minus]
        # a derived graph is marked full exactly when its source is
        assert all(h.full == g.full for h in derived)
        built += derived
    for g in sources + built:
        if g.full:
            assert joins_every_unit_pair(g)
    # a full graph on one side and one with edges missing on the other
    for g, h in ((sources[1], sources[3]), (normalize(sources[1]), thinned)):
        same = normalize(g) == normalize(h)
        assert isomorphic_embedded(g, h) == same and isomorphic_embedded(h, g) == same


def test_outside_input_is_never_marked_full():
    grid = EmbeddedGraph.from_points((x, y) for x in range(3) for y in range(4))
    assert grid.full and joins_every_unit_pair(grid)
    for g in (EmbeddedGraph.from_points(grid.vertices, grid.edges),
              EmbeddedGraph(vertices=grid.vertices, edges=grid.edges),
              EmbeddedGraph.from_json_dict(grid.to_json_dict())):
        # every unit pair is present, yet nothing proved it
        assert g == grid and not g.full
        assert not normalize(g).full and not induced_subgraph(g, set(g.vertices)).full
        assert not reduce_forced(g).reduced.full


def test_full_is_not_part_of_equality_hash_or_repr():
    grid = EmbeddedGraph.from_points((x, y) for x in range(3) for y in range(3))
    same = EmbeddedGraph.from_points(grid.vertices, grid.edges)
    assert grid.full and not same.full
    assert grid == same and hash(grid) == hash(same) and len({grid, same}) == 1
    assert repr(grid) == repr(same) and "full" not in repr(grid)
