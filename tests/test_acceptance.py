"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from aztec_tilings.engines import (
    count,
    count_brute,
    count_fkt,
    count_profile_dp,
)
from aztec_tilings.factorize import apply_factorization, find_diagonal_axis
from aztec_tilings.formulas import (
    aztec_diamond_value,
    lemma4_value,
    lemma5_value,
    lemma6_lhs,
    lemma6_rhs,
    theorem1_value,
)
from aztec_tilings.grids import EmbeddedGraph, dual_graph, isomorphic_embedded, reduce_forced
from aztec_tilings.regions import (
    KLEIN_ABUT,
    KLEIN_NONABUT,
    PINWHEEL,
    QUARTER_KINDS,
    build_aztec_diamond,
    build_holey_ar,
    build_holey_ar_bar,
    build_quartered,
    set_A,
    set_B,
)
from aztec_tilings.verify import run_suite

SRC = Path(__file__).resolve().parent.parent / "src"


def _report(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num:02d} PASS: {text}")


def test_criterion_01_aztec_diamond_counts():
    budget = 10.0
    t0 = time.monotonic()
    for n in range(1, 9):
        g = dual_graph(build_aztec_diamond(n))
        expected = aztec_diamond_value(n)
        assert count_profile_dp(g) == expected, n
        if n <= 3:
            assert count_brute(g) == expected, n
        if n <= 6:
            assert count_fkt(g) == expected, n
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"{elapsed:.1f}s exceeds {budget}s"
    _report(1, f"diamond counts 2^(n(n+1)/2) for n=1..8 in {elapsed:.2f}s")


def test_criterion_02_closed_forms_match_counts():
    budget = 120.0
    spot = {
        (PINWHEEL, 3): 1, (PINWHEEL, 4): 2, (PINWHEEL, 7): 20, (PINWHEEL, 8): 80,
        (KLEIN_ABUT, 3): 3, (KLEIN_ABUT, 4): 2,
        (KLEIN_NONABUT, 4): 6, (KLEIN_NONABUT, 3): 1,
    }
    t0 = time.monotonic()
    for order in range(1, 17):
        for kind in QUARTER_KINDS:
            counted = count(dual_graph(build_quartered(order, kind)))
            assert counted == theorem1_value(kind, order), (kind, order)
            if kind == PINWHEEL and order % 4 in (1, 2):
                assert counted == 0, order
            if (kind, order) in spot:
                assert counted == spot[(kind, order)], (kind, order)
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"{elapsed:.1f}s exceeds {budget}s"
    _report(2, f"48 closed-form counts (orders 1..16, three families) in {elapsed:.2f}s")


def test_criterion_03_doubling_recurrences():
    budget = 60.0
    t0 = time.monotonic()
    report = run_suite("lemma1", max_n=2)
    assert [c.case_id for c in report.cases] == [
        f"{which}[n={n}]" for n in (1, 2) for which in ("eq7", "eq8", "eq9", "eq10")]
    for case in report.cases:
        assert case.ok, case
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    _report(3, f"four doubling recurrences hold for n=1,2 in {elapsed:.2f}s")


def test_criterion_04_forced_edge_reductions():
    pairs = (
        (KLEIN_ABUT, lambda n: 4 * n, lambda n: 4 * n - 2),
        (KLEIN_ABUT, lambda n: 4 * n + 1, lambda n: 4 * n - 1),
        (KLEIN_NONABUT, lambda n: 4 * n + 2, lambda n: 4 * n),
        (KLEIN_NONABUT, lambda n: 4 * n + 3, lambda n: 4 * n + 1),
    )
    for n in (1, 2):
        for kind, big, small in pairs:
            g_big = dual_graph(build_quartered(big(n), kind))
            g_small = dual_graph(build_quartered(small(n), kind))
            reduction = reduce_forced(g_big)
            assert not reduction.infeasible
            assert isomorphic_embedded(reduction.reduced, g_small), (kind, n)
            assert count(g_big) == count(g_small), (kind, n)
    _report(4, "reductions land on the smaller dual with equal counts, n=1,2")


def test_criterion_05_holey_rectangle_factorizations():
    table = (
        (lambda n: build_holey_ar(2 * n, 4 * n, set_B(n)),
         KLEIN_ABUT, PINWHEEL, lambda n: 4 * n),
        (lambda n: build_holey_ar(2 * n, 4 * n, set_A(n)),
         PINWHEEL, KLEIN_NONABUT, lambda n: 4 * n),
        (lambda n: build_holey_ar_bar(2 * n, 4 * n - 1, set_A(n)),
         KLEIN_ABUT, PINWHEEL, lambda n: 4 * n - 1),
        (lambda n: build_holey_ar_bar(2 * n, 4 * n - 1, set_B(n)),
         PINWHEEL, KLEIN_NONABUT, lambda n: 4 * n - 1),
    )
    products_n1 = []
    for n in (1, 2):
        for builder, plus_kind, minus_kind, order in table:
            g = builder(n)
            axis = find_diagonal_axis(g)
            assert axis is not None and axis.w == n
            result = apply_factorization(g, axis)
            plus_dual = dual_graph(build_quartered(order(n), plus_kind))
            minus_dual = dual_graph(build_quartered(order(n), minus_kind))
            assert isomorphic_embedded(result.g_plus, plus_dual)
            assert isomorphic_embedded(result.g_minus, minus_dual)
            m_g = count(g)
            t_plus = count(plus_dual)
            t_minus = count(minus_dual)
            assert m_g == 2**n * t_plus * t_minus
            if n == 1:
                products_n1.append((m_g, t_plus, t_minus))
    assert products_n1 == [(8, 2, 2), (24, 2, 6), (6, 3, 1), (2, 1, 1)]
    _report(5, "axes found, w=n, halves match quarter duals, products hold, n=1,2")


def test_criterion_06_hole_position_formulas():
    assert count(build_holey_ar(3, 5, (1, 3, 5))) == lemma4_value(3, 5, (1, 3, 5)) == 512
    assert count(build_holey_ar_bar(3, 5, (3, 4, 6))) == lemma5_value(3, 5, (3, 4, 6)) == 24
    rng = random.Random(93)
    shapes = ((2, 4), (2, 5), (3, 5), (3, 6))
    for m, n in shapes:
        for _ in range(20):
            kept = tuple(sorted(rng.sample(range(1, n + 1), m)))
            assert count(build_holey_ar(m, n, kept)) == lemma4_value(m, n, kept)
            removed = tuple(sorted(rng.sample(range(1, n + 2), m)))
            assert count(build_holey_ar_bar(m, n, removed)) == lemma5_value(m, n, removed)
    _report(6, "hole formulas match counts: both fixed instances + 20 random per shape")


def test_criterion_07_difference_product_ratio():
    budget = 5.0
    t0 = time.monotonic()
    assert lemma6_lhs(1) == lemma6_rhs(1) == 3
    assert lemma6_lhs(2) == lemma6_rhs(2) == Fraction(35, 3)
    for n in range(1, 51):
        assert lemma6_lhs(n) == lemma6_rhs(n), n
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    _report(7, f"ratio identity exact for n=1..50 in {elapsed:.2f}s")


def test_criterion_08_engine_oracle_equivalence():
    rng = random.Random(20240801)
    for _ in range(300):
        cells = [(i, j) for i in range(6) for j in range(6) if rng.random() < 0.5]
        g = EmbeddedGraph.from_points(cells)
        reference = count_brute(g)
        assert count_profile_dp(g) == reference
        assert count_fkt(g) == reference
    _report(8, "300 random 6x6 subgraphs agree across all three engines")


def test_criterion_09_factorization_identity():
    square = EmbeddedGraph.from_points([(0, 0), (0, 1), (1, 0), (1, 1)])
    graphs = [square]
    for n in (1, 2):
        graphs.append(build_holey_ar(2 * n, 4 * n, set_B(n)))
        graphs.append(build_holey_ar(2 * n, 4 * n, set_A(n)))
        graphs.append(build_holey_ar_bar(2 * n, 4 * n - 1, set_A(n)))
        graphs.append(build_holey_ar_bar(2 * n, 4 * n - 1, set_B(n)))
    for g in graphs:
        result = apply_factorization(g, find_diagonal_axis(g))
        assert count(g) == 2**result.w * count(result.g_plus) * count(result.g_minus)
    _report(9, "M(G) = 2^w M(G+) M(G-) on the square and all eight holey rectangles")


def test_criterion_10_cli_verify_all_is_deterministic():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")

    def run_once():
        return subprocess.run(
            [sys.executable, "-m", "aztec_tilings", "verify", "all", "--max-order", "12"],
            capture_output=True,
            env=env,
        )

    first = run_once()
    second = run_once()
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["ok"] is True
    _report(10, f"verify all: exit 0, byte-identical JSON ({len(first.stdout)} bytes)")
