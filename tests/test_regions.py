import dataclasses
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aztec_tilings.errors import InvalidHolesError, InvalidOrderError
from aztec_tilings.grids import (LATTICE_SYMMETRIES, EmbeddedGraph, dual_graph, induced_subgraph,
                                 isomorphic_embedded)
from aztec_tilings.engines import count, count_brute
from aztec_tilings.formulas import lemma4_value, lemma5_value, theorem1_value
from aztec_tilings.regions import (
    KLEIN_ABUT,
    KLEIN_NONABUT,
    MAX_ORDER,
    PINWHEEL,
    QUARTER_KINDS,
    Region,
    build_aztec_diamond,
    build_aztec_rectangle,
    build_holey_ar,
    build_holey_ar_bar,
    build_quartered,
    set_A,
    set_B,
)

from lattice import bottom_row_points


def _side_doubled(p, q):
    # Cut predicate on doubled coordinates (p, q) = (2x, 2y), both odd.
    # Above the staircase means y > -1 - 2*floor(x/2).
    return 1 if q > -2 - 4 * (p // 4) else -1


# The definition of each quarter: a predicate on the doubled cell centre
# (p, q) = (2i+1, 2j+1).  (q, -p) is the centre rotated by -90 degrees and
# (-p, q) the centre mirrored in the y-axis.
QUARTER_ORACLE = {
    PINWHEEL: lambda p, q: _side_doubled(p, q) > 0 and _side_doubled(q, -p) > 0,
    KLEIN_ABUT: lambda p, q: _side_doubled(p, q) < 0 and _side_doubled(-p, q) > 0,
    KLEIN_NONABUT: lambda p, q: _side_doubled(p, q) > 0 and _side_doubled(-p, q) > 0,
}


def rotate_cells_90(cells):
    # 90 degrees counterclockwise about the origin
    return frozenset((-j - 1, i) for i, j in cells)


def test_diamond_order_1_is_the_2x2_block():
    assert build_aztec_diamond(1).cells == {(-1, 0), (0, 0), (-1, -1), (0, -1)}


def test_diamond_order_4_row_zero_span():
    ad4 = build_aztec_diamond(4)
    assert len(ad4) == 40
    assert sorted(i for i, j in ad4.cells if j == 0) == list(range(-4, 4))


def test_diamond_order_8_cell_count():
    assert len(build_aztec_diamond(8)) == 144


@pytest.mark.parametrize("n", range(1, 13))
def test_diamond_size_and_rotational_symmetry(n):
    cells = build_aztec_diamond(n).cells
    assert len(cells) == 2 * n * (n + 1)
    assert rotate_cells_90(cells) == cells


def test_diamond_rejects_bad_order():
    with pytest.raises(InvalidOrderError):
        build_aztec_diamond(0)


def test_orders_stop_at_the_limit():
    # set_A checks its order like every builder, without building anything
    assert len(set_A(MAX_ORDER)) == 2 * MAX_ORDER
    for build in (set_A, build_aztec_diamond, lambda n: build_quartered(n, PINWHEEL),
                  lambda n: build_aztec_rectangle(1, n), lambda n: build_aztec_rectangle(n, 1)):
        with pytest.raises(InvalidOrderError, match=str(MAX_ORDER)):
            build(MAX_ORDER + 1)


@pytest.mark.parametrize("order", [True, 2.0, "3"])
def test_an_order_that_is_not_an_int_is_refused(order):
    for build in (set_A, set_B, build_aztec_diamond, lambda n: build_quartered(n, PINWHEEL),
                  lambda n: build_aztec_rectangle(1, n), lambda n: build_holey_ar(1, n, (1,))):
        with pytest.raises(InvalidOrderError) as raised:
            build(order)
        assert str(raised.value) == f"order must be in 1..{MAX_ORDER}, got {order!r}"


def test_side_doubled_examples():
    # doubled cell centres: (1, 1) is the centre (0.5, 0.5) of cell (0, 0)
    assert _side_doubled(1, 1) == 1
    assert _side_doubled(-1, 1) == -1
    assert _side_doubled(5, -3) == 1
    assert _side_doubled(3, -3) == -1


# Every residue of n mod 4 at three scales, up to MAX_ORDER.
@pytest.mark.parametrize("n", [*range(1, 65), *range(128, 132), *range(MAX_ORDER - 3, MAX_ORDER + 1)])
def test_quarters_match_the_cut_predicates(n):
    diamond = build_aztec_diamond(n).cells
    for kind, keep in QUARTER_ORACLE.items():
        expected = {c for c in diamond if keep(2 * c[0] + 1, 2 * c[1] + 1)}
        assert build_quartered(n, kind).cells == expected, kind


def test_pinwheel_quarter_order_3():
    r3 = build_quartered(3, PINWHEEL)
    assert r3.cells == {(-1, 2), (0, 2), (-2, 1), (-1, 1), (0, 1), (0, 0)}
    assert count_brute(dual_graph(r3)) == 1


def test_abutting_quarter_order_3_is_a_2x3_block():
    ka3 = build_quartered(3, KLEIN_ABUT)
    assert ka3.cells == {(-3, 0), (-2, 0), (-1, 0), (-3, -1), (-2, -1), (-1, -1)}
    assert count_brute(dual_graph(ka3)) == 3


def test_nonabutting_quarter_order_1_is_empty():
    assert len(build_quartered(1, KLEIN_NONABUT)) == 0


def test_quartered_rejects_bad_input():
    with pytest.raises(InvalidOrderError):
        build_quartered(0, PINWHEEL)
    with pytest.raises(ValueError):
        build_quartered(3, "nope")


@pytest.mark.parametrize("n", range(1, 13))
def test_pinwheel_quarters_partition_the_diamond(n):
    ad = build_aztec_diamond(n).cells
    quarter = build_quartered(n, PINWHEEL).cells
    parts = [quarter]
    for _ in range(3):
        parts.append(rotate_cells_90(parts[-1]))
    union = set()
    for part in parts:
        assert not (union & part)
        union |= part
    assert union == ad


@pytest.mark.parametrize("n", range(1, 13))
def test_klein_quarters_partition_the_diamond(n):
    ad = build_aztec_diamond(n).cells
    north = build_quartered(n, KLEIN_NONABUT).cells
    west = build_quartered(n, KLEIN_ABUT).cells
    south = frozenset((-i - 1, -j - 1) for i, j in north)
    east = frozenset((-i - 1, -j - 1) for i, j in west)
    assert len(north) + len(west) + len(south) + len(east) == len(ad)
    assert north | west | south | east == ad


@pytest.mark.parametrize("n", range(1, 21))
def test_quarter_cardinalities(n):
    # The pinwheel quarter always has n(n+1)/2 cells.  The two Klein
    # quarters split n(n+1) cells between them, so when n(n+1)/2 is odd
    # the abutting one carries one extra cell and the other one fewer.
    half = n * (n + 1) // 2
    skew = half % 2
    assert len(build_quartered(n, PINWHEEL)) == half
    assert len(build_quartered(n, KLEIN_ABUT)) == half + skew
    assert len(build_quartered(n, KLEIN_NONABUT)) == half - skew


# Regions are congruent (a lattice symmetry plus a translation maps one's cells onto the
# other's) iff their dual graphs are isomorphic_embedded: a dual graph has every
# side-sharing pair of cells as an edge, so a map carries the cells iff it carries the duals.
def test_congruent_rotated_pinwheel_quarter():
    r4 = build_quartered(4, PINWHEEL)
    rotated = Region(cells=rotate_cells_90(r4.cells), name="rot")
    assert isomorphic_embedded(dual_graph(r4), dual_graph(rotated))


def test_congruent_translated_block():
    ka3 = build_quartered(3, KLEIN_ABUT)
    block = Region(cells=frozenset((i + 11, j - 7) for i in range(3) for j in range(2)))
    assert isomorphic_embedded(dual_graph(ka3), dual_graph(block))


def test_not_congruent_pinwheel_vs_nonabutting():
    assert not isomorphic_embedded(dual_graph(build_quartered(4, PINWHEEL)),
                                   dual_graph(build_quartered(4, KLEIN_NONABUT)))


@pytest.mark.parametrize("n", range(2, 11))
def test_klein_kinds_not_congruent(n):
    assert not isomorphic_embedded(dual_graph(build_quartered(n, KLEIN_ABUT)),
                                   dual_graph(build_quartered(n, KLEIN_NONABUT)))


def test_all_pinwheel_quarters_congruent():
    r5 = build_quartered(5, PINWHEEL)
    cells = r5.cells
    for _ in range(3):
        cells = rotate_cells_90(cells)
        assert isomorphic_embedded(dual_graph(r5), dual_graph(Region(cells=cells)))


cells_4x4 = st.frozensets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=16)


def _move_cells(cells, k, dx, dy):
    # a lattice map acts on a cell through its doubled centre (2i+1, 2j+1)
    moved = set()
    for i, j in cells:
        p, q = LATTICE_SYMMETRIES[k](2 * i + 1, 2 * j + 1)
        moved.add(((p - 1) // 2 + dx, (q - 1) // 2 + dy))
    return frozenset(moved)


def _cells_congruent(a, b):
    """Reference: some lattice map, then a translation, takes a's cells to b's."""
    if len(a) != len(b):
        return False
    if not a:
        return True
    for k in range(len(LATTICE_SYMMETRIES)):
        moved = _move_cells(a, k, 0, 0)
        di = min(i for i, _ in b) - min(i for i, _ in moved)
        dj = min(j for _, j in b) - min(j for _, j in moved)
        if frozenset((i + di, j + dj) for i, j in moved) == b:
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(cells_4x4, cells_4x4, st.booleans(), st.integers(0, 7),
       st.integers(-9, 9), st.integers(-9, 9))
def test_congruent_matches_cell_maps(cells, other, placed, k, dx, dy):
    if placed:
        other = _move_cells(cells, k, dx, dy)
    expected = _cells_congruent(cells, other)
    a, b = dual_graph(Region(cells=cells)), dual_graph(Region(cells=other))
    assert isomorphic_embedded(a, b) == expected
    assert expected or not placed


def test_rectangle_vertex_counts():
    assert len(build_aztec_rectangle(3, 5)) == 38
    assert len(build_aztec_rectangle(2, 4)) == 22
    four_cycle = build_aztec_rectangle(1, 1)
    assert len(four_cycle) == 4
    assert count_brute(four_cycle) == 2


@pytest.mark.parametrize("m,n", [(1, 1), (2, 4), (3, 5), (4, 2)])
def test_rectangle_bottom_row(m, n):
    g = build_aztec_rectangle(m, n)
    assert len(g) == 2 * m * n + m + n
    pts = set(g.vertices)
    assert all(p in pts for p in bottom_row_points(n))
    assert len(bottom_row_points(n)) == n


def test_holey_rectangle_keep():
    assert len(build_holey_ar(3, 5, (1, 3, 5))) == 36
    assert len(build_holey_ar(2, 4, (2, 3))) == 20
    untouched = build_holey_ar(1, 1, (1,))
    assert untouched == build_aztec_rectangle(1, 1)


def test_holey_rectangle_remove():
    assert len(build_holey_ar_bar(3, 5, (3, 4, 6))) == 30
    assert len(build_holey_ar_bar(2, 3, (1, 4))) == 12


def _position_sets(m_max, width):
    return [a for m in range(1, m_max + 1) for a in combinations(range(1, width + 1), m)]


@pytest.mark.parametrize("n", range(1, 8))
def test_holey_rectangles_are_the_rectangle_less_hand_built_holes(n):
    full = build_aztec_rectangle(1, n)
    bottom = bottom_row_points(n)
    for k in range(1, n + 1):
        unkept = set(bottom) - {bottom[k - 1]}
        assert build_holey_ar(1, n, (k,)) == induced_subgraph(full, set(full.vertices) - unkept)
    for k in range(1, n + 2):
        holes = {*bottom, (k, n + 2 - k)}
        assert build_holey_ar_bar(1, n, (k,)) == induced_subgraph(full, set(full.vertices) - holes)


@pytest.mark.parametrize("n", range(1, 8))
def test_holey_rectangle_counts_match_lemmas_4_and_5(n):
    for a in _position_sets(3, n):
        assert count(build_holey_ar(len(a), n, a)) == lemma4_value(len(a), n, a)
    for a in _position_sets(3, n + 1):
        assert count(build_holey_ar_bar(len(a), n, a)) == lemma5_value(len(a), n, a)


def test_holey_checks_orders_before_positions():
    for build in (build_holey_ar, build_holey_ar_bar):
        with pytest.raises(InvalidOrderError):
            build(0, 4, (9,))
        with pytest.raises(InvalidOrderError):
            build(2, MAX_ORDER + 1, (9,))


def test_holey_rejects_bad_positions():
    with pytest.raises(InvalidHolesError):
        build_holey_ar_bar(1, 1, (1, 2))
    with pytest.raises(InvalidHolesError):
        build_holey_ar(2, 4, (3,))
    with pytest.raises(InvalidHolesError):
        build_holey_ar(2, 4, (0, 3))
    with pytest.raises(InvalidHolesError):
        build_holey_ar(2, 4, (3, 5))
    with pytest.raises(InvalidHolesError):
        build_holey_ar(2, 4, (3, 2))


@pytest.mark.parametrize("positions", [(1.5, 3, 5), (1.0, 3, 5), (True, 3, 5), (1, 3, False)])
def test_positions_that_are_not_ints_are_refused_at_every_way_in(positions):
    # (1.5, 3, 5) once built a rectangle with two kept positions, which counts 0
    for refuse in (build_holey_ar, build_holey_ar_bar, lemma4_value, lemma5_value):
        with pytest.raises(InvalidHolesError, match="not strictly ascending ints"):
            refuse(3, 5, positions)


def test_index_sets():
    assert set_A(1) == (1, 4)
    assert set_A(2) == (1, 3, 6, 8)
    assert set_B(2) == (2, 4, 5, 7)
    for n in range(1, 9):
        assert len(set_A(n)) == len(set_B(n)) == 2 * n


def test_region_json_round_trip():
    r = build_quartered(4, KLEIN_NONABUT)
    data = r.to_json_dict()
    assert data["cells"] == sorted(data["cells"])
    assert Region.from_json_dict(data) == r


@pytest.mark.parametrize("kind", QUARTER_KINDS)
def test_quarter_cells_inside_diamond(kind):
    for n in (1, 4, 9):
        assert build_quartered(n, kind).cells <= build_aztec_diamond(n).cells


def _same_as_from_points(g, points):
    """g, built from column runs, is from_points' graph on points, marked full and valid."""
    ref = EmbeddedGraph.from_points(points)
    assert (g.vertices, g.edges) == (ref.vertices, ref.edges)
    assert g.full
    assert EmbeddedGraph(vertices=g.vertices, edges=g.edges) == g


def _board_points(m, n):
    # Reference: the white squares (c + r odd) of the (2m+1) x (2n+1) board with black
    # corners, board (column c, row r) -> (a, b) = ((c+r-1)/2, (r-c+2n+1)/2).
    return {((c + r - 1) // 2, (r - c + 2 * n + 1) // 2)
            for r in range(1, 2 * m + 2) for c in range(1, 2 * n + 2) if (c + r) % 2}


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.sampled_from((None, *QUARTER_KINDS)))
def test_builder_regions_give_the_graph_from_points_gives(n, kind):
    region = build_aztec_diamond(n) if kind is None else build_quartered(n, kind)
    _same_as_from_points(dual_graph(region), region.cells)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rectangles_are_the_board_points_less_their_holes(data):
    n = data.draw(st.integers(1, 30))
    m = data.draw(st.integers(1, n))
    keep = sorted(data.draw(st.permutations(range(1, n + 1)))[:m])
    remove = sorted(data.draw(st.permutations(range(1, n + 2)))[:m])
    board, bottom = _board_points(m, n), bottom_row_points(n)
    _same_as_from_points(build_aztec_rectangle(m, n), board)
    _same_as_from_points(build_holey_ar(m, n, keep),
                         board - {p for k, p in enumerate(bottom, 1) if k not in keep})
    # (k, n + 2 - k) is position k of board row 2, 1..n+1 left to right
    _same_as_from_points(build_holey_ar_bar(m, n, remove),
                         board - {*bottom, *((k, n + 2 - k) for k in remove)})


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(-4, 4), st.integers(0, 5)), max_size=8))
def test_any_column_runs_give_the_graph_from_points_gives(steps):
    # Runs (x, lo, lo + length) with x rising by 1 to 3, so columns may be empty or far apart.
    runs, x = [], 0
    for step, lo, length in steps:
        x += step
        runs.append((x, lo, lo + length))
    _same_as_from_points(EmbeddedGraph._from_columns(runs),
                         [(x, y) for x, lo, hi in runs for y in range(lo, hi)])


def test_column_runs_stay_private(monkeypatch):
    built = build_quartered(12, KLEIN_ABUT)
    g = dual_graph(built)
    plain = Region(cells=built.cells, name=built.name)
    assert built._runs is not None
    assert plain == built and hash(plain) == hash(built) and repr(plain) == repr(built)
    assert "_runs" not in repr(built) and plain.to_json_dict() == built.to_json_dict()
    moved = Region(cells=_move_cells(built.cells, 3, 5, -7), name=built.name)

    def refuse(cls, runs):
        raise AssertionError("only a builder's region is built from column runs")

    monkeypatch.setattr(EmbeddedGraph, "_from_columns", classmethod(refuse))
    renamed = dataclasses.replace(built, name="renamed")
    for other in (Region.from_json_dict(built.to_json_dict()), plain, renamed):
        assert other._runs is None and dual_graph(other) == g
    assert moved._runs is None and isomorphic_embedded(dual_graph(moved), g)
    with pytest.raises(AssertionError, match="only a builder's region"):
        dual_graph(built)


@pytest.mark.parametrize("kind", ["bogus", ["pinwheel"], None])
@pytest.mark.parametrize("build", [lambda kind: build_quartered(3, kind), lambda kind: theorem1_value(kind, 3)],
                         ids=["build_quartered", "theorem1_value"])
def test_an_unknown_quarter_kind_is_refused_by_name(build, kind):
    # a list is unhashable, yet it is refused as an unknown kind, not by a TypeError
    with pytest.raises(ValueError, match=f"^unknown quarter kind {re.escape(repr(kind))}$"):
        build(kind)
