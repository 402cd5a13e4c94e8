import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aztec_tilings import factorize
from aztec_tilings.engines import count
from aztec_tilings.errors import FactorizationError
from aztec_tilings.factorize import (
    DiagonalAxis,
    apply_factorization,
    find_diagonal_axis,
)
from aztec_tilings.formulas import theorem1_value
from aztec_tilings.grids import (
    LATTICE_SYMMETRIES,
    EmbeddedGraph,
    dual_graph,
    isomorphic_embedded,
)
from aztec_tilings.regions import (
    KLEIN_ABUT,
    KLEIN_NONABUT,
    PINWHEEL,
    build_holey_ar,
    build_holey_ar_bar,
    build_quartered,
    set_A,
    set_B,
)

from lattice import moved, placed

FOUR_CYCLE = EmbeddedGraph.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])

# Which quartered duals the two halves of each holey rectangle must match.
SPLIT_TABLE = (
    ("keep-B", lambda n: build_holey_ar(2 * n, 4 * n, set_B(n)),
     KLEIN_ABUT, PINWHEEL, lambda n: 4 * n),
    ("keep-A", lambda n: build_holey_ar(2 * n, 4 * n, set_A(n)),
     PINWHEEL, KLEIN_NONABUT, lambda n: 4 * n),
    ("bar-A", lambda n: build_holey_ar_bar(2 * n, 4 * n - 1, set_A(n)),
     KLEIN_ABUT, PINWHEEL, lambda n: 4 * n - 1),
    ("bar-B", lambda n: build_holey_ar_bar(2 * n, 4 * n - 1, set_B(n)),
     PINWHEEL, KLEIN_NONABUT, lambda n: 4 * n - 1),
)


def test_axis_on_the_4_cycle():
    axis = find_diagonal_axis(FOUR_CYCLE)
    assert axis == DiagonalAxis(slope=1, offset=0, on_axis=((0, 0), (1, 1)))
    assert axis.w == 1


def test_axis_on_holey_rectangle():
    axis = find_diagonal_axis(build_holey_ar(2, 4, set_B(1)))
    assert axis is not None
    assert axis.slope == 1
    assert len(axis.on_axis) == 2
    assert axis.w == 1


def test_no_axis_for_horizontal_domino():
    assert find_diagonal_axis(EmbeddedGraph.from_points([(0, 0), (1, 0)])) is None


def test_no_axis_when_only_the_vertices_are_symmetric():
    # the vertex set is symmetric about both diagonals, the edge set about neither
    g = EmbeddedGraph(vertices=FOUR_CYCLE.vertices, edges=FOUR_CYCLE.edges[1:])
    assert find_diagonal_axis(g) is None


def test_axis_of_slope_minus_1_only():
    # a 2x2 block with a bump on two sides, mirrored across x + y = 8 alone
    g = EmbeddedGraph.from_points([(3, 5), (2, 5), (3, 6), (2, 6), (1, 6), (2, 7)])
    axis = find_diagonal_axis(g)
    assert axis == DiagonalAxis(slope=-1, offset=8, on_axis=((2, 6), (3, 5)))
    result = apply_factorization(g, axis)
    assert set(result.g_plus.vertices) == {(3, 6), (2, 7), (2, 6)}
    assert set(result.g_minus.vertices) == {(2, 5), (1, 6), (3, 5)}


def test_factorize_4_cycle():
    result = apply_factorization(FOUR_CYCLE, find_diagonal_axis(FOUR_CYCLE))
    assert result.w == 1
    assert len(result.g_plus) == 2 and len(result.g_minus) == 2
    assert count(result.g_plus) == 1 and count(result.g_minus) == 1
    assert count(FOUR_CYCLE) == 2 ** result.w * 1 * 1


def test_factorize_keep_B_order_1():
    g = build_holey_ar(2, 4, set_B(1))
    result = apply_factorization(g, find_diagonal_axis(g))
    assert result.w == 1
    assert count(result.g_plus) == 2 and count(result.g_minus) == 2
    assert count(g) == 8


def test_factorize_bar_A_order_1():
    g = build_holey_ar_bar(2, 3, set_A(1))
    result = apply_factorization(g, find_diagonal_axis(g))
    counts = sorted((count(result.g_plus), count(result.g_minus)))
    assert counts == [1, 3]
    assert count(g) == 6


@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("name,builder,plus_kind,minus_kind,order", SPLIT_TABLE)
def test_halves_match_quartered_duals(name, builder, plus_kind, minus_kind, order, n):
    g = builder(n)
    axis = find_diagonal_axis(g)
    assert axis is not None and axis.w == n
    result = apply_factorization(g, axis)
    assert len(result.g_plus) + len(result.g_minus) == len(g)
    assert isomorphic_embedded(result.g_plus, dual_graph(build_quartered(order(n), plus_kind)))
    assert isomorphic_embedded(result.g_minus, dual_graph(build_quartered(order(n), minus_kind)))


@pytest.mark.parametrize("k", range(len(LATTICE_SYMMETRIES)))
@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("name,builder,plus_kind,minus_kind,order", SPLIT_TABLE)
def test_halves_are_the_two_sides_of_the_axis(name, builder, plus_kind, minus_kind, order, n, k):
    # placed by a lattice symmetry, then shifted by (k, -3) so the offset's parity varies too
    g = placed(builder(n), k, k, -3)
    axis = find_diagonal_axis(g)
    assert axis is not None and axis.w == n
    result = apply_factorization(g, axis)
    quarters = [dual_graph(build_quartered(order(n), kind)) for kind in (plus_kind, minus_kind)]
    assert any(isomorphic_embedded(result.g_plus, a) and isomorphic_embedded(result.g_minus, b)
               for a, b in (quarters, quarters[::-1]))
    plus, minus = set(result.g_plus.vertices), set(result.g_minus.vertices)
    assert plus | minus == set(g.vertices) and not plus & minus
    for half, pts in ((result.g_plus, plus), (result.g_minus, minus)):
        assert set(half.edges) == {(p, q) for p, q in g.edges if p in pts and q in pts}

    def diag(p):
        return p[1] - p[0] if axis.slope == 1 else p[0] + p[1]

    upper = {p for p in g.vertices if diag(p) > axis.offset}
    assert plus == upper | set(axis.on_axis[::2])


@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("name,builder,plus_kind,minus_kind,order", SPLIT_TABLE)
def test_product_identity(name, builder, plus_kind, minus_kind, order, n):
    g = builder(n)
    result = apply_factorization(g, find_diagonal_axis(g))
    assert result.w == n
    m_g = count(g)
    assert m_g == 2**n * count(result.g_plus) * count(result.g_minus)
    closed_forms = theorem1_value(plus_kind, order(n)) * theorem1_value(minus_kind, order(n))
    assert m_g == 2**n * closed_forms


def test_product_identity_order_3():
    # one size past the acceptance bound, identity only
    for g in (build_holey_ar(6, 12, set_B(3)), build_holey_ar_bar(6, 11, set_A(3))):
        result = apply_factorization(g, find_diagonal_axis(g))
        assert result.w == 3
        assert count(g) == 2**3 * count(result.g_plus) * count(result.g_minus)


def test_invalid_axis_rejected():
    foreign = find_diagonal_axis(FOUR_CYCLE)
    with pytest.raises(FactorizationError):
        apply_factorization(build_holey_ar(2, 4, set_B(1)), foreign)
    assert find_diagonal_axis(EmbeddedGraph.from_points([(0, 0), (1, 0)])) is None


@pytest.mark.parametrize("slope", [1, -1])
def test_axis_rejected_on_a_graph_with_none_of_its_slope(slope):
    # a horizontal domino has no diagonal symmetry, so no axis of either slope fits it
    foreign = DiagonalAxis(slope=slope, offset=0, on_axis=((0, 0),))
    with pytest.raises(FactorizationError, match="not a valid symmetry axis"):
        apply_factorization(EmbeddedGraph.from_points([(0, 0), (1, 0)]), foreign)


@pytest.mark.parametrize("slope", [2, 0, -2])
def test_axis_of_another_slope_is_rejected(slope):
    # the eq16 rectangle is symmetric about y = x; an axis by hand of another slope, with the
    # offset and on-axis vertices of its anti-diagonal, is not one to cut along
    g = build_holey_ar(2, 4, set_A(1))
    c = min(y for _, y in g.vertices) + g.vertices[-1][0]
    foreign = DiagonalAxis(slope=slope, offset=c, on_axis=tuple(p for p in g.vertices if sum(p) == c))
    with pytest.raises(FactorizationError, match="not a valid symmetry axis"):
        apply_factorization(g, foreign)


@pytest.mark.parametrize("slope", [1, -1])
def test_empty_graph_has_no_axis_to_cut_along(slope):
    empty = EmbeddedGraph.from_points([])
    assert find_diagonal_axis(empty) is None
    with pytest.raises(FactorizationError, match="not a valid symmetry axis"):
        apply_factorization(empty, DiagonalAxis(slope=slope, offset=0, on_axis=()))


@pytest.mark.parametrize("name,builder,plus_kind,minus_kind,order", SPLIT_TABLE)
def test_halves_built_unvalidated_pass_the_validator(name, builder, plus_kind, minus_kind, order):
    for n in range(1, 9):
        g = builder(n)
        result = apply_factorization(g, find_diagonal_axis(g))
        for half in (result.g_plus, result.g_minus):
            # the validating constructor raises if a half breaks an invariant
            assert EmbeddedGraph(vertices=half.vertices, edges=half.edges) == half


@settings(max_examples=150, deadline=None)
@given(st.frozensets(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=20),
       st.integers(0, 7), st.integers(-9, 9), st.integers(-9, 9))
def test_halves_of_drawn_symmetric_regions_pass_the_validator(cells, k, dx, dy):
    # mirrored in y = x; the on-axis points may skip steps along the diagonal
    cells = cells | {(y, x) for x, y in cells}
    g = placed(EmbeddedGraph.from_points(cells), k, dx, dy)
    axis = find_diagonal_axis(g)
    assert axis is not None
    result = apply_factorization(g, axis)
    for half in (result.g_plus, result.g_minus):
        assert EmbeddedGraph(vertices=half.vertices, edges=half.edges) == half
    assert len(result.g_plus) + len(result.g_minus) == len(g)
    assert count(g) == (1 << result.w) * count(result.g_plus) * count(result.g_minus)


@pytest.mark.parametrize(
    "side,hole,on_axis,counts",
    [
        (3, {1}, ((0, 0), (2, 2)), (2, 1, 1)),
        (6, {2, 3}, ((0, 0), (1, 1), (4, 4), (5, 5)), (1444, 19, 19)),
    ],
)
def test_an_axis_with_a_gap_factors(side, hole, on_axis, counts):
    # a square less its central block: the diagonal y = x skips the block
    g = EmbeddedGraph.from_points(
        [(x, y) for x in range(side) for y in range(side) if not {x, y} <= hole])
    axis = find_diagonal_axis(g)
    assert axis == DiagonalAxis(1, 0, on_axis)
    result = apply_factorization(g, axis)
    assert (count(g), count(result.g_plus), count(result.g_minus)) == counts
    assert counts[0] == (1 << result.w) * counts[1] * counts[2]


def test_no_axis_when_only_the_counts_are_symmetric():
    # every column count is the count of its mirrored row under either diagonal
    # reflection, yet neither reflection maps the points onto themselves
    g = EmbeddedGraph.from_points([(0, 1), (0, 3), (1, 0), (2, 0), (3, 2), (3, 3)])
    cols, rows = Counter(x for x, _ in g.vertices), Counter(y for _, y in g.vertices)
    assert cols == rows  # y = x
    assert Counter({3 - x: n for x, n in cols.items()}) == rows  # x + y = 3
    assert find_diagonal_axis(g) is None


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("k", range(len(LATTICE_SYMMETRIES)))
def test_axis_of_every_placement_of_the_eq16_rectangle(k, n):
    base = build_holey_ar(2 * n, 4 * n, set_A(n))
    base_axis = find_diagonal_axis(base)
    assert base_axis.slope == 1
    g = placed(base, k, k, -3)
    # the axis direction (1, 1) is carried onto (a, b): slope +1 iff a and b share a sign
    a, b = LATTICE_SYMMETRIES[k](1, 1)
    axis = find_diagonal_axis(g)
    assert axis is not None and axis.slope == (1 if a * b > 0 else -1) and axis.w == n
    assert set(axis.on_axis) == set(map(moved(k, k, -3), base_axis.on_axis))


def test_axis_from_another_graph_is_rejected():
    g = build_holey_ar(4, 8, set_A(2))
    shifted = placed(g, 0, 1, 0)
    mirrored = placed(g, 4, 0, 0)
    for other in (shifted, mirrored, build_holey_ar(6, 12, set_A(3)), build_holey_ar(2, 4, set_A(1))):
        foreign = find_diagonal_axis(other)
        assert foreign is not None and foreign != find_diagonal_axis(g)
        with pytest.raises(FactorizationError, match="not a valid symmetry axis"):
            apply_factorization(g, foreign)



def checks_counted(monkeypatch):
    """A list that gains one entry each time an axis is checked against a graph."""
    calls = []
    check = factorize._axis_if_valid

    def counted(g, slope):
        calls.append(slope)
        return check(g, slope)

    monkeypatch.setattr(factorize, "_axis_if_valid", counted)
    return calls


def test_an_axis_is_not_checked_again_on_the_graph_it_was_found_on(monkeypatch):
    g = build_holey_ar(4, 8, set_A(2))
    axis = find_diagonal_axis(g)
    assert axis.found_on is g
    calls = checks_counted(monkeypatch)
    result = apply_factorization(g, axis)
    assert calls == [] and result.w == 2


def test_a_replaced_axis_is_checked_again():
    g = build_holey_ar(4, 8, set_A(2))
    axis = find_diagonal_axis(g)
    moved_axis = dataclasses.replace(axis, offset=axis.offset + 2)
    assert moved_axis.found_on is None
    with pytest.raises(FactorizationError, match="not a valid symmetry axis"):
        apply_factorization(g, moved_axis)


def test_an_axis_made_by_hand_is_accepted_after_its_check(monkeypatch):
    g = build_holey_ar(4, 8, set_A(2))
    axis = find_diagonal_axis(g)
    by_hand = DiagonalAxis(slope=axis.slope, offset=axis.offset, on_axis=axis.on_axis)
    calls = checks_counted(monkeypatch)
    assert apply_factorization(g, by_hand) == apply_factorization(g, axis)
    assert calls == [axis.slope]


def test_an_axis_found_on_an_equal_graph_is_accepted_after_its_check(monkeypatch):
    g = build_holey_ar(4, 8, set_A(2))
    twin = EmbeddedGraph.from_json_dict(g.to_json_dict())
    assert twin == g and twin is not g
    axis = find_diagonal_axis(twin)
    calls = checks_counted(monkeypatch)
    assert apply_factorization(g, axis) == apply_factorization(twin, axis)
    assert calls == [axis.slope]


def test_found_on_is_not_part_of_equality_or_repr():
    g = build_holey_ar(4, 8, set_A(2))
    axis = find_diagonal_axis(g)
    by_hand = DiagonalAxis(slope=axis.slope, offset=axis.offset, on_axis=axis.on_axis)
    assert axis.found_on is g and by_hand.found_on is None
    assert axis == by_hand and hash(axis) == hash(by_hand)
    assert repr(axis) == repr(by_hand) and "found_on" not in repr(axis)
