import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aztec_tilings.engines import (
    count,
    count_brute,
    count_fkt,
    count_profile_dp,
    fkt_supported,
)
from aztec_tilings.errors import CountMismatchError, TooLargeError, UnsupportedEmbeddingError
from aztec_tilings.formulas import aztec_diamond_value
from aztec_tilings.grids import EmbeddedGraph, dual_graph
from aztec_tilings.regions import (
    KLEIN_NONABUT,
    PINWHEEL,
    build_aztec_diamond,
    build_holey_ar,
    build_quartered,
)

cells_6x6 = st.frozensets(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=36
)

FOUR_CYCLE = EmbeddedGraph.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])


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
    assert count_profile_dp(EmbeddedGraph.from_points([])) == 1
    assert count_profile_dp(EmbeddedGraph.from_points([(3, 3)])) == 0
    # adjacent vertices with the connecting edge withheld cannot be matched
    no_edge = EmbeddedGraph(vertices=((0, 0), (1, 0)), edges=())
    assert count_profile_dp(no_edge) == 0
    assert count_brute(no_edge) == 0


def test_profile_dp_width_guard():
    spine = [(0, y) for y in range(63)] + [(x, 0) for x in range(63)]
    with pytest.raises(TooLargeError):
        count_profile_dp(EmbeddedGraph.from_points(spine))


def test_fkt_examples():
    assert count_fkt(FOUR_CYCLE) == 2
    assert count_fkt(dual_graph(build_aztec_diamond(3))) == 64
    assert count_fkt(dual_graph(build_quartered(7, PINWHEEL))) == 20


def test_fkt_rejects_large_face():
    ring = EmbeddedGraph.from_points(
        [(i, j) for i in range(3) for j in range(3) if (i, j) != (1, 1)]
    )
    assert not fkt_supported(ring)
    with pytest.raises(UnsupportedEmbeddingError):
        count_fkt(ring)


def test_fkt_imbalanced_returns_zero():
    path = EmbeddedGraph.from_points([(0, 0), (1, 0), (2, 0)])
    assert count_fkt(path) == 0


@pytest.mark.parametrize("n", range(1, 7))
def test_fkt_matches_diamond_formula(n):
    assert count_fkt(dual_graph(build_aztec_diamond(n))) == aztec_diamond_value(n)


@settings(max_examples=150, deadline=None)
@given(cells_6x6)
def test_engines_agree_on_random_subgraphs(cells):
    g = EmbeddedGraph.from_points(cells)
    reference = count_brute(g)
    assert count_profile_dp(g) == reference
    if fkt_supported(g):
        assert count_fkt(g) == reference


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
    from aztec_tilings import engines as eng

    g = FOUR_CYCLE
    monkeypatch.setattr(eng, "count_brute", lambda _: 99)
    with pytest.raises(CountMismatchError):
        eng.count(g, engine="auto", crosscheck=True)


def test_crosscheck_past_brute_limit_uses_fkt(monkeypatch):
    from aztec_tilings import engines as eng

    g = dual_graph(build_aztec_diamond(4))  # 40 vertices: too many for brute
    monkeypatch.setattr(eng, "count_fkt", lambda _: 99)
    with pytest.raises(CountMismatchError):
        eng.count(g, engine="auto", crosscheck=True)


def test_crosscheck_without_second_engine_raises():
    # 34 vertices and two holes, so neither brute nor fkt can recheck the sweep
    holed = EmbeddedGraph.from_points(
        [(i, j) for i in range(6) for j in range(6) if (i, j) not in ((1, 1), (3, 4))]
    )
    assert count(holed) == 500
    with pytest.raises(UnsupportedEmbeddingError):
        count(holed, crosscheck=True)


def test_counts_are_deterministic():
    g = dual_graph(build_quartered(9, KLEIN_NONABUT))
    first = count_profile_dp(g)
    assert all(count_profile_dp(g) == first for _ in range(3))
    assert count_fkt(g) == first
