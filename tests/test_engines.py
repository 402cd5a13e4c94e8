import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aztec_tilings import engines as eng
from aztec_tilings.engines import (
    BRUTE_VERTEX_LIMIT,
    _abs_det,
    _bareiss,
    _dissection_order,
    count,
    count_brute,
    count_fkt,
    count_profile_dp,
    fkt_supported,
)
from aztec_tilings.errors import CountMismatchError, TooLargeError
from aztec_tilings.formulas import aztec_diamond_value, theorem1_value
from aztec_tilings.grids import EmbeddedGraph, dual_graph
from aztec_tilings.regions import (
    KLEIN_ABUT,
    KLEIN_NONABUT,
    PINWHEEL,
    build_aztec_diamond,
    build_holey_ar,
    build_quartered,
)

from lattice import moved

cells_6x6 = st.frozensets(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=36
)
GRID_6x6 = frozenset((i, j) for i in range(6) for j in range(6))

FOUR_CYCLE = EmbeddedGraph.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
EMPTY = EmbeddedGraph.from_points([])

# 46 vertices and two holes: past BRUTE_VERTEX_LIMIT, so fkt and the sweep recheck each
# other, and two faces larger than a unit square
TWO_HOLES = EmbeddedGraph.from_points(
    [(i, j) for i in range(6) for j in range(8) if (i, j) not in ((1, 1), (3, 4))]
)


def test_brute_examples():
    assert count_brute(FOUR_CYCLE) == 2
    assert count_brute(dual_graph(build_quartered(4, PINWHEEL))) == 2
    assert count_brute(dual_graph(build_quartered(4, KLEIN_NONABUT))) == 6


def test_brute_size_guard():
    grid_6x7 = EmbeddedGraph.from_points([(i, j) for i in range(6) for j in range(7)])
    with pytest.raises(TooLargeError):
        count_brute(grid_6x7)


def test_profile_dp_examples():
    assert count_profile_dp(dual_graph(build_aztec_diamond(4))) == 1024
    assert count_profile_dp(dual_graph(build_quartered(8, PINWHEEL))) == 80
    assert count_profile_dp(build_holey_ar(3, 5, (1, 3, 5))) == 512


def test_profile_dp_degenerate_cases():
    assert count_profile_dp(EMPTY) == 1
    assert count_profile_dp(EmbeddedGraph.from_points([(3, 3)])) == 0
    # adjacent vertices with the connecting edge withheld cannot be matched
    no_edge = EmbeddedGraph(vertices=((0, 0), (1, 0)), edges=())
    assert count_profile_dp(no_edge) == 0
    assert count_brute(no_edge) == 0


def test_profile_dp_state_budget(monkeypatch):
    g = dual_graph(build_aztec_diamond(8))  # its sweep peaks at 8502 live states
    monkeypatch.setattr(eng, "PROFILE_STATE_LIMIT", 1000)
    with pytest.raises(TooLargeError):
        eng.count_profile_dp(g)


def test_fkt_examples():
    assert count_fkt(FOUR_CYCLE) == 2
    assert count_fkt(dual_graph(build_aztec_diamond(3))) == 64
    assert count_fkt(dual_graph(build_quartered(7, PINWHEEL))) == 20


def _ring(lo, hi):
    # boundary cells of the square [lo, hi) x [lo, hi)
    return [(i, j) for i in range(lo, hi) for j in range(lo, hi)
            if i in (lo, hi - 1) or j in (lo, hi - 1)]


def test_fkt_counts_a_ring():
    ring = EmbeddedGraph.from_points(_ring(0, 3))
    assert not fkt_supported(ring)
    assert count_fkt(ring) == count_brute(ring) == 2


def _euler_supported(g):
    # The Euler count by a component walk: E - V + C bounded faces, all unit squares.
    adj, seen, components = g.adjacency(), set(), 0
    for start in g.vertices:
        if start not in seen:
            components += 1
            seen.add(start)
            stack = [start]
            while stack:
                fresh = adj[stack.pop()] - seen
                seen |= fresh
                stack += fresh
    edges = set(g.edges)
    squares = sum(all(e in edges for e in (((x, y), (x + 1, y)), ((x, y), (x, y + 1)),
                                             ((x + 1, y), (x + 1, y + 1)), ((x, y + 1), (x + 1, y + 1))))
                  for x, y in g.vertices)
    return len(g.edges) - len(g.vertices) + components == squares


@pytest.mark.parametrize("points, supported", [
    (FOUR_CYCLE.vertices + ((5, 5),), True),  # an isolated vertex beside a 4-cycle
    (FOUR_CYCLE.vertices + ((3, 0), (4, 0), (3, 1), (4, 1)), True),  # two disjoint 4-cycles
    (_ring(0, 3) + [(9, 9)], False),  # a ring's 8-edge face, plus an isolated vertex
    ((), True),
])
def test_fkt_supported_counts_faces_per_component(points, supported):
    g = EmbeddedGraph.from_points(points)
    assert fkt_supported(g) == _euler_supported(g) == supported


@st.composite
def thinned_grids(draw):
    w, h = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    cells = sorted((x, y) for x in range(w) for y in range(h))
    g = EmbeddedGraph.from_points(set(cells) - draw(st.frozensets(st.sampled_from(cells))))
    drop = draw(st.sampled_from((0.0, 0.1, 0.3)))
    rng = draw(st.randoms(use_true_random=False))
    return EmbeddedGraph.from_points(g.vertices, [e for e in g.edges if rng.random() >= drop])


@settings(max_examples=300, deadline=None)
@given(thinned_grids())
def test_fkt_supported_matches_the_euler_count(g):
    assert fkt_supported(g) == _euler_supported(g)


@pytest.mark.parametrize("centre", [[], [(3, 3)]])
def test_fkt_counts_nested_rings(centre):
    # a 3x3 ring inside the bounded face of a 7x7 ring, with no edge between them
    g = EmbeddedGraph.from_points(_ring(0, 7) + _ring(2, 5) + centre)
    assert count_fkt(g) == count_profile_dp(g) == count_brute(g) == (0 if centre else 4)


def _no_order(points):
    raise AssertionError("_dissection_order called")


def test_empty_graph_has_one_matching(monkeypatch):
    # the empty graph is one band with no points, so no order is built
    monkeypatch.setattr(eng, "_dissection_order", _no_order)
    assert count_fkt(EMPTY) == 1
    assert count(EMPTY) == 1


def test_fkt_imbalanced_returns_zero(monkeypatch):
    # an unbalanced graph is answered before the dissection order is built
    monkeypatch.setattr(eng, "_dissection_order", _no_order)
    path = EmbeddedGraph.from_points([(0, 0), (1, 0), (2, 0)])
    assert count_fkt(path) == 0
    diamond = dual_graph(build_aztec_diamond(6))
    assert count_fkt(EmbeddedGraph.from_points(diamond.vertices[1:])) == 0


@pytest.fixture
def tail_sizes(monkeypatch):
    """The order of each matrix that `_abs_det` hands on to its Bareiss tail."""
    sizes = []
    bareiss = eng._bareiss

    def recording(rows, holders, columns):
        sizes.append(len(columns))
        return bareiss(rows, holders, columns)

    monkeypatch.setattr(eng, "_bareiss", recording)
    return sizes


@pytest.mark.parametrize("n", [*range(1, 13), 16, 24, 48])
def test_fkt_matches_diamond_formula(n, tail_sizes):
    # every column but n finds a +-1 pivot, so Bareiss runs on an order-n tail
    assert count_fkt(dual_graph(build_aztec_diamond(n))) == aztec_diamond_value(n)
    assert tail_sizes == [n]


@pytest.mark.parametrize(
    "kind, n, tail",
    [(PINWHEEL, 64, 20), (KLEIN_ABUT, 64, 16), (KLEIN_NONABUT, 64, 16),
     (PINWHEEL, 96, 27), (KLEIN_ABUT, 96, 24), (KLEIN_NONABUT, 96, 24)],
)
def test_fkt_matches_quarter_formula_past_the_sweep(kind, n, tail, tail_sizes):
    # the tail orders pin the unit phase's pivot sequence ("lowest row with a +-1 entry")
    assert count_fkt(dual_graph(build_quartered(n, kind))) == theorem1_value(kind, n)
    assert tail_sizes == [tail]


def test_fkt_balanced_without_perfect_matching_returns_zero():
    # 4 even and 4 odd points, but the even (0, 0) and (2, 0) both need the odd (1, 0)
    pairs = [((0, 0), (1, 0)), ((1, 0), (2, 0)), ((1, 0), (1, 1)), ((1, 1), (2, 1)),
             ((1, 1), (1, 2)), ((2, 1), (2, 2)), ((1, 2), (2, 2)), ((2, 2), (3, 2))]
    g = EmbeddedGraph.from_points({p for pq in pairs for p in pq}, pairs)
    assert fkt_supported(g)
    assert count_brute(g) == 0
    assert count_fkt(g) == 0
    two_paths = EmbeddedGraph.from_points([(0, 0), (1, 0), (2, 0), (5, 0), (6, 0), (7, 0)])
    assert count_fkt(two_paths) == 0


def test_fkt_pivots_on_a_later_row():
    # The first odd point (0, 1) is adjacent only to the second even point (0, 2),
    # so column 0 of the matrix has no entry in row 0.
    dominoes = EmbeddedGraph.from_points(
        [(0, 0), (1, 0), (0, 1), (0, 2)], [((0, 0), (1, 0)), ((0, 1), (0, 2))]
    )
    assert count_fkt(dominoes) == 1
    with_square = EmbeddedGraph.from_points(
        [(0, 0), (1, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)],
        [((0, 0), (1, 0)), ((0, 1), (0, 2)), ((1, 1), (1, 2)), ((1, 1), (2, 1)),
         ((1, 2), (2, 2)), ((2, 1), (2, 2))],
    )
    assert count_fkt(with_square) == count_brute(with_square) == 2


def _leibniz_det(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        term = math.prod(m[i][perm[i]] for i in range(n))
        if term:
            inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            total += -term if inversions % 2 else term
    return total


def _sparse(m):
    return [{j: v for j, v in enumerate(r) if v} for r in m]


def test_abs_det_matches_leibniz_on_sparse_matrices(tail_sizes):
    # zero leading entries force later pivot rows; small entries make cancellations.  A
    # duplicated or summed row makes the matrix singular: some update cancels to zero, and a
    # column can empty mid-elimination after rows went stale under a pivot other than 1.
    # Mixed entries split the work: the unit phase clears some columns, the tail the rest.
    assert _abs_det([]) == 1
    rng = random.Random(90125)
    singular = split = 0
    for _ in range(400):
        n = rng.randint(1, 7)
        m = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            a, b = rng.sample(range(n), 2)
            c = rng.choice([i for i in range(n) if i != a])
            m[a] = list(m[b]) if b == c else [x + y for x, y in zip(m[b], m[c])]
        det = _leibniz_det(m)
        singular += det == 0
        tail_sizes.clear()
        assert _abs_det(_sparse(m)) == abs(det)
        split += bool(tail_sizes) and 0 < tail_sizes[0] < n
    assert singular > 100
    assert split > 100


def test_abs_det_without_unit_entries_runs_only_the_tail(tail_sizes):
    # No entry is +-1, so no column has a unit pivot and the whole matrix waits for Bareiss,
    # unless a copied row left a column with no entry at all, which is det 0 at once.
    rng = random.Random(4711)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = [[rng.choice((0, 0, 2, -2, 3, -4)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            m[i][i] = rng.choice((2, -3, 4))
        if n > 1 and rng.random() < 0.3:
            a, b = rng.sample(range(n), 2)
            m[a] = list(m[b])
        tail_sizes.clear()
        assert _abs_det(_sparse(m)) == abs(_leibniz_det(m))
        assert tail_sizes == ([n] if all(any(col) for col in zip(*m)) else [])


def test_abs_det_unit_phase_clears_unit_triangular_products(tail_sizes):
    # L*U with +-1 diagonals: each Schur complement is again such a product, so every column
    # in turn finds a +-1 pivot and the tail is empty, while the updates fill in and cancel.
    rng = random.Random(2718)
    for _ in range(200):
        n = rng.randint(1, 7)
        low = [[rng.choice((1, -1)) if i == j else rng.choice((0, 0, 1, -1, 2)) if i > j else 0
                for j in range(n)] for i in range(n)]
        up = [[rng.choice((1, -1)) if i == j else rng.choice((0, 0, 1, -1, 2)) if i < j else 0
               for j in range(n)] for i in range(n)]
        m = [[sum(low[i][t] * up[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        tail_sizes.clear()
        assert _abs_det(_sparse(m)) == abs(_leibniz_det(m)) == 1
        assert tail_sizes == [0]


def test_abs_det_column_emptied_by_the_unit_phase_is_zero(tail_sizes):
    # Rows 0 and 1 agree in columns 0 and 1, so clearing column 0 with row 0 cancels row 1's
    # entry in column 1, and column 1 is left with no holder before the tail can run.
    m = [[1, 1, 0], [1, 1, 2], [0, 0, 1]]
    assert _leibniz_det(m) == 0
    assert _abs_det(_sparse(m)) == 0
    assert tail_sizes == []


@pytest.mark.parametrize(
    "m, k, i",
    [
        ([[2, -1, 2], [3, 0, 0], [3, -1, 0]], 1, 2),
        ([[-2, 3, 2, 0], [1, 0, 0, 0], [0, 2, 3, 0], [3, 1, -2, 3]], 1, 3),
        ([[3, 2, 0, 0], [3, 0, 1, 0], [1, 2, 2, 0], [1, 1, 1, 0]], 1, 2),
    ],
)
def test_bareiss_raises_on_a_non_exact_division(m, k, i):
    # Row i left out of holders[k] misses column k's update, so its entries and stamp go
    # stale and a later division on it leaves a remainder.  The cases first trip, in turn,
    # the checks on rescaling a pivot row, on updating a row and on filling one in.
    rows = _sparse(m)
    holders = [{r for r, row in enumerate(rows) if j in row} for j in range(len(m))]
    holders[k].discard(i)
    with pytest.raises(CountMismatchError, match="non-exact division"):
        _bareiss(rows, holders, list(range(len(m))))


# The unit squares inside [0, 4] x [0, 4] but some left out, extra unit steps that may
# hang off them, and points deleted with their edges, which opens faces larger than a square.
missing_squares = st.frozensets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=16)
extra_steps = st.frozensets(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.booleans()), max_size=6
)
deleted_points = st.frozensets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=3)


@settings(max_examples=200, deadline=None)
@given(missing_squares, extra_steps, deleted_points, st.integers(0, 7), st.integers(-9, 0),
       st.integers(-9, 0))
def test_fkt_matches_profile_dp_on_placed_unit_square_graphs(missing, steps, deleted, k, dx, dy):
    # Every placement moves columns to negative and odd x, which the sign rule must survive.
    place = moved(k, dx, dy)
    pairs = set()
    for i, j in itertools.product(range(4), repeat=2):
        if (i, j) not in missing:
            corners = list(map(place, [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]))
            pairs |= set(zip(corners, corners[1:] + corners[:1]))
    for i, j, horizontal in steps:
        pairs.add((place((i, j)), place((i + 1, j)) if horizontal else place((i, j + 1))))
    gone = set(map(place, deleted))
    pairs = {pq for pq in pairs if not gone & set(pq)}
    g = EmbeddedGraph.from_points({p for pq in pairs for p in pq}, pairs)
    counted = count_fkt(g)
    assert type(counted) is int
    assert counted == count_profile_dp(g)


# A 12x12 to 14x14 grid of points less a few 2x2 holes and single points: over 100 points,
# so the dissection order splits it at least once before it reaches its 64-point leaves.
holes = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=4)
single_points = st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=6)


@settings(max_examples=40, deadline=None)
@given(st.integers(12, 14), st.integers(12, 14), holes, single_points, st.integers(0, 7),
       st.integers(-9, 9), st.integers(-9, 9))
def test_fkt_matches_profile_dp_on_dissected_grids(w, h, holes, deleted, k, dx, dy):
    gone = {(i + a, j + b) for i, j in holes for a in (0, 1) for b in (0, 1)} | set(deleted)
    points = [(i, j) for i in range(w) for j in range(h) if (i, j) not in gone]
    # drop the last points of the larger colour class, so the matrix is square
    evens = [p for p in points if sum(p) % 2 == 0]
    odds = [p for p in points if sum(p) % 2 == 1]
    surplus = set(evens[len(odds):] if len(evens) > len(odds) else odds[len(evens):])
    g = EmbeddedGraph.from_points(map(moved(k, dx, dy), set(points) - surplus))
    assert len(g.vertices) > 100
    assert count_fkt(g) == count_profile_dp(g)


points_in_a_box = st.lists(
    st.tuples(st.integers(-20, 20), st.integers(-20, 20)), unique=True, max_size=300
)


@settings(max_examples=200, deadline=None)
@given(points_in_a_box)
@example([])
@example([(i, i) for i in range(200)])
@example([(i, 7 - i) for i in range(200)])
@example([(i, 3) for i in range(200)])
@example([(i, j) for i in range(3) for j in range(100)])
@example([(i, j) for i in range(6) for j in range(50)])
def test_dissection_order_is_a_permutation(points):
    order = _dissection_order(sorted(points))
    assert len(order) == len(points)
    assert set(order) == set(points)


def test_count_survives_a_dissection_deeper_than_the_recursion_limit():
    # dominoes at (2^k, 2^k) for k < 1100 beside an 8x10 grid: each split halves the
    # extent and peels off one domino, so the blocks nest about 1100 deep
    rectangle = EmbeddedGraph.from_points([(i, j) for i in range(8) for j in range(10)])
    far = [(2**k + d, 2**k) for k in range(4, 1100) for d in (0, 1)]
    g = EmbeddedGraph.from_points(list(rectangle.vertices) + far)
    assert count(g) == count_profile_dp(rectangle)


@settings(max_examples=150, deadline=None)
@given(cells_6x6)
def test_engines_agree_on_random_subgraphs(cells):
    # a small cell set leaves its complement with holes: faces larger than a unit square
    for kept in (cells, GRID_6x6 - cells):
        g = EmbeddedGraph.from_points(kept)
        reference = count_brute(g)
        assert count_profile_dp(g) == reference
        assert count_fkt(g) == reference


@st.composite
def holey_rectangles(draw, width, height):
    """A rectangle of cells inside [0, width) x [0, height) less a few: most have a tiling."""
    w, h = draw(st.integers(1, width)), draw(st.integers(1, height))
    cells = {(x, y) for x in range(w) for y in range(h)}
    return cells - draw(st.frozensets(st.sampled_from(sorted(cells)), max_size=4))


# (_HOLDERS_MAX_VERTICES, _HOLDERS_MIN_SIDE) that send every graph down one path
_COLUMN_SOURCES = {"band": (10**9, 10**9), "holders": (10**9, 0), "dissection": (-1, 0)}


def _count_fkt_by(source, g):
    """count_fkt with its column source forced: one band, fewest holders first, or the dissection order."""
    saved = eng._HOLDERS_MAX_VERTICES, eng._HOLDERS_MIN_SIDE
    eng._HOLDERS_MAX_VERTICES, eng._HOLDERS_MIN_SIDE = _COLUMN_SOURCES[source]
    try:
        return count_fkt(g)
    finally:
        eng._HOLDERS_MAX_VERTICES, eng._HOLDERS_MIN_SIDE = saved


@st.composite
def rings(draw):
    """A square ring, sometimes around a second ring or a point, sometimes less one cell."""
    lo, hi = draw(st.integers(-3, 3)), draw(st.integers(2, 9))
    cells = _ring(lo, lo + hi)
    if hi >= 7:
        cells += draw(st.sampled_from(([], [(lo + 3, lo + 3)], _ring(lo + 2, lo + hi - 2))))
    drop = draw(st.sampled_from([None, *cells]))
    return EmbeddedGraph.from_points(p for p in cells if p != drop)


@settings(max_examples=200, deadline=None)
@given(st.one_of(holey_rectangles(6, 6).map(EmbeddedGraph.from_points), rings(), thinned_grids()))
def test_both_column_sources_give_the_same_count(g):
    counts = {_count_fkt_by(source, g) for source in _COLUMN_SOURCES}
    assert len(counts) == 1
    if len(g.vertices) <= BRUTE_VERTEX_LIMIT:
        assert counts == {count_brute(g)}


def _no_heap(holders):
    raise AssertionError("_fewest_holders called")


def test_the_rule_picks_the_column_source(monkeypatch):
    monkeypatch.setattr(eng, "_dissection_order", _no_order)
    # r(24), V = 300 on a 24 x 24 box: fewest holders first, no order built
    assert count_fkt(dual_graph(build_quartered(24, PINWHEEL))) == theorem1_value(PINWHEEL, 24)
    # a strip less than 20 wide is one band at any size: no order built and no heap,
    # whether it is small (6 x 100) or large (8 x 300, turned a quarter so it runs along x)
    monkeypatch.setattr(eng, "_fewest_holders", _no_heap)
    small = EmbeddedGraph.from_points([(i, j) for i in range(6) for j in range(100)])
    turned = EmbeddedGraph.from_points(map(moved(1), [(i, j) for i in range(8) for j in range(300)]))
    assert len(small.vertices) <= eng._HOLDERS_MAX_VERTICES < len(turned.vertices)
    for strip in (small, turned):
        assert count_fkt(strip) == count_profile_dp(strip)
    # ad(22) is wide, but too large
    large = dual_graph(build_aztec_diamond(22))
    assert len(large.vertices) > eng._HOLDERS_MAX_VERTICES
    with pytest.raises(AssertionError, match="_dissection_order called"):
        count_fkt(large)


# Clusters side by side with 1 to 10^9 empty columns between them, shifted apart in y,
# then turned by a lattice symmetry so the gaps may be rows: the sweep skips empty lines.
far_clusters = st.lists(
    st.tuples(holey_rectangles(4, 4), st.integers(0, 7), st.sampled_from((1, 2, 10**9)),
              st.sampled_from((-(10**9), -2, 0, 1, 10**9))),
    min_size=1, max_size=3,
)
TWO_FAR_DOMINOES = [({(0, 0), (1, 0)}, 0, 10**9, 0)] * 2


@settings(max_examples=150, deadline=None)
@given(far_clusters, st.integers(0, 7))
@example(TWO_FAR_DOMINOES, 0)
@example(TWO_FAR_DOMINOES, 1)
def test_profile_dp_matches_fkt_on_sparse_point_sets(clusters, k):
    points = set()
    for cells, j, gap, dy in clusters:
        turned = list(map(moved(j), cells))
        start = max((x for x, _ in points), default=0) + gap + 1
        dx = start - min((u for u, _ in turned), default=0)
        points |= {(u + dx, v + dy) for u, v in turned}
    g = EmbeddedGraph.from_points(map(moved(k), points))
    assert count_profile_dp(g) == count_fkt(g)


@settings(max_examples=150, deadline=None)
@given(holey_rectangles(6, 6), st.integers(0, 7), st.integers(-9, 9), st.integers(-9, 9))
def test_count_is_unchanged_by_a_lattice_symmetry_and_translation(cells, k, dx, dy):
    image = EmbeddedGraph.from_points(map(moved(k, dx, dy), cells))
    assert count(image) == count(EmbeddedGraph.from_points(cells))


@settings(max_examples=150, deadline=None)
@given(holey_rectangles(4, 5), holey_rectangles(4, 5), st.integers(0, 7), st.integers(-9, 9))
def test_count_of_a_disjoint_union_is_the_product_of_the_parts(a, b, k, dy):
    # b is moved by a symmetry into x >= 6, so no unit step joins it to a (x <= 3)
    b = set(map(moved(k, 10, dy), b))
    parts = count_brute(EmbeddedGraph.from_points(a)) * count_brute(EmbeddedGraph.from_points(b))
    union = EmbeddedGraph.from_points(a | b)
    assert count(union) == parts
    assert count_brute(union) == parts


def test_adding_an_edge_never_decreases_the_count():
    rng = random.Random(417)
    checked = 0
    while checked < 50:
        cells = [(i, j) for i in range(5) for j in range(5) if rng.random() < 0.6]
        g = EmbeddedGraph.from_points(cells)
        if not g.edges:
            continue
        drop = rng.randrange(len(g.edges))
        pairs = [pq for k, pq in enumerate(g.point_pairs()) if k != drop]
        fewer = EmbeddedGraph.from_points(cells, pairs)
        assert count_brute(g) >= count_brute(fewer)
        checked += 1


def test_count_front_door_crosschecks():
    g = dual_graph(build_quartered(4, KLEIN_NONABUT))
    assert count(g) == 6
    assert count(g, engine="auto", crosscheck=True) == 6
    assert count(g, engine="brute", crosscheck=True) == 6
    assert count(g, engine="fkt", crosscheck=True) == 6
    assert count(g, engine="profile_dp", crosscheck=True) == 6
    with pytest.raises(ValueError):
        count(g, engine="guess")


def test_count_disagreement_raises(monkeypatch):
    g = FOUR_CYCLE
    monkeypatch.setattr(eng, "count_brute", lambda _: 99)
    with pytest.raises(CountMismatchError):
        eng.count(g, engine="auto", crosscheck=True)


def test_crosscheck_past_brute_limit_uses_fkt(monkeypatch):
    # 60 vertices: past BRUTE_VERTEX_LIMIT (40), so fkt rechecks the sweep
    g = dual_graph(build_aztec_diamond(5))
    assert len(g) > BRUTE_VERTEX_LIMIT
    monkeypatch.setattr(eng, "count_fkt", lambda _: 99)
    with pytest.raises(CountMismatchError, match="profile_dp counted 32768 but fkt counted 99"):
        eng.count(g, engine="profile_dp", crosscheck=True)


def test_auto_crosscheck_past_brute_limit_uses_profile_dp(monkeypatch):
    # auto counts it by fkt; at 60 vertices it is past BRUTE_VERTEX_LIMIT (40) for brute
    g = dual_graph(build_aztec_diamond(5))
    assert len(g) > BRUTE_VERTEX_LIMIT
    monkeypatch.setattr(eng, "count_profile_dp", lambda _: 99)
    with pytest.raises(CountMismatchError, match="fkt counted 32768 but profile_dp counted 99"):
        eng.count(g, engine="auto", crosscheck=True)


@pytest.mark.parametrize("engine", ["auto", "fkt", "profile_dp"])
@pytest.mark.parametrize("n", [3, 4])
def test_crosscheck_within_brute_limit_reaches_brute(engine, n, monkeypatch):
    # ad(3) has 24 vertices and ad(4) 40, BRUTE_VERTEX_LIMIT: brute rechecks both
    g = dual_graph(build_aztec_diamond(n))
    assert 24 <= len(g) <= BRUTE_VERTEX_LIMIT
    assert eng.count(g, engine=engine, crosscheck=True) == aztec_diamond_value(n)
    monkeypatch.setattr(eng, "count_brute", lambda _: 99)
    with pytest.raises(CountMismatchError, match="but brute counted 99"):
        eng.count(g, engine=engine, crosscheck=True)


def test_crosscheck_that_cannot_run_names_both_engines(monkeypatch):
    g = dual_graph(build_aztec_diamond(8))  # its sweep peaks at 8502 live states
    monkeypatch.setattr(eng, "PROFILE_STATE_LIMIT", 1000)
    assert eng.count(g) == aztec_diamond_value(8)
    message = "^crosscheck: profile_dp cannot recheck the fkt count: profile sweep exceeds 1000 "
    with pytest.raises(TooLargeError, match=message):
        eng.count(g, crosscheck=True)


def _refuse(name):
    def refuse(_):
        raise AssertionError(f"auto must not call {name} here")

    return refuse


def test_auto_counts_unit_square_graphs_by_fkt(monkeypatch):
    monkeypatch.setattr(eng, "count_profile_dp", _refuse("count_profile_dp"))
    assert eng.count(dual_graph(build_aztec_diamond(16))) == aztec_diamond_value(16)


def test_auto_counts_graphs_with_a_larger_face_by_fkt(monkeypatch):
    monkeypatch.setattr(eng, "count_profile_dp", _refuse("count_profile_dp"))
    assert eng.count(TWO_HOLES) == 15627


def test_auto_makes_no_face_check(monkeypatch):
    monkeypatch.setattr(eng, "fkt_supported", _refuse("fkt_supported"))
    g = dual_graph(build_quartered(12, KLEIN_NONABUT))
    assert eng.count(g) == theorem1_value(KLEIN_NONABUT, 12)
    assert eng.count(TWO_HOLES, crosscheck=True) == 15627


def test_graph_with_holes_crosschecks_both_ways():
    assert len(TWO_HOLES) > BRUTE_VERTEX_LIMIT
    assert count(TWO_HOLES, crosscheck=True) == 15627
    assert count(TWO_HOLES, engine="profile_dp", crosscheck=True) == 15627


def test_counts_are_deterministic():
    g = dual_graph(build_quartered(9, KLEIN_NONABUT))
    first = count_profile_dp(g)
    assert all(count_profile_dp(g) == first for _ in range(3))
    assert count_fkt(g) == first
