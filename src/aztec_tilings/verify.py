"""Named verification suites: every identity, counted from scratch and compared.

Each suite builds its regions and graphs, counts with the engines, and
compares against the independent side of the identity (closed form,
scaled recurrence, reduced graph, or factorization product).  A named
instance, a builder and its arguments, is built and counted once per run:
a ledger, a plain dict that lives for one `run_suite` or `run_all` call,
keeps its count for every later case that names it.  Reports
keep a fixed case order and their JSON form contains no timing data, so
repeated runs are byte-identical.  Each suite is a private case generator,
and `_run` is the only code that runs one.
"""

from __future__ import annotations

import csv
import io
import json
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from . import engines
from .factorize import apply_factorization, find_diagonal_axis
from .formulas import lemma4_value, lemma5_value, lemma6_lhs, lemma6_rhs, theorem1_value
from .grids import EmbeddedGraph, dual_graph, isomorphic_embedded, reduce_forced
from .regions import (
    KLEIN_ABUT,
    KLEIN_NONABUT,
    MAX_ORDER,
    PINWHEEL,
    QUARTER_KINDS,
    build_holey_ar,
    build_holey_ar_bar,
    build_quartered,
    set_A,
    set_B,
)

_RANDOM_SEED = 20240801
_HOLEY_TRIALS = 20  # random hole positions per shape in lemma4 and lemma5
_ENGINE_TRIALS = 300
_GRID_SIDE = 6


@dataclass(frozen=True)
class VerifyCase:
    case_id: str
    expected: str
    actual: str

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    cases: tuple[VerifyCase, ...]
    wall_ms: float

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    def to_json_dict(self) -> dict:
        # wall_ms deliberately omitted: report bytes must be run-independent
        return {
            "suite": self.suite,
            "ok": self.ok,
            "cases": [
                {
                    "id": c.case_id,
                    "expected": c.expected,
                    "actual": c.actual,
                    "ok": c.ok,
                }
                for c in self.cases
            ],
        }

    def pretty(self) -> str:
        lines = [f"suite {self.suite}: {'ok' if self.ok else 'FAILED'} "
                 f"({len(self.cases)} cases, {self.wall_ms:.0f} ms)"]
        for c in self.cases:
            mark = "ok  " if c.ok else "FAIL"
            lines.append(f"  {mark} {c.case_id}: expected {c.expected}, got {c.actual}")
        return "\n".join(lines)


def _case(cid: str, expected, actual) -> VerifyCase:
    return VerifyCase(case_id=cid, expected=str(expected), actual=str(actual))


def _bool_case(cid: str, value: bool) -> VerifyCase:
    return _case(cid, "true", str(value).lower())


def _built(key: tuple) -> EmbeddedGraph:
    """The graph a ledger key names: its builder applied to its arguments, a region's dual."""
    built = key[0](*key[1:])
    return built if isinstance(built, EmbeddedGraph) else dual_graph(built)


def _count(ledger: dict, key: tuple, graph: EmbeddedGraph | None = None) -> int:
    """engines.count of the graph key names, once per ledger; graph is that graph if built."""
    if key not in ledger:
        ledger[key] = engines.count(_built(key) if graph is None else graph)
    return ledger[key]


def _theorem1_cases(ledger: dict, max_order: int = 12) -> Iterator[VerifyCase]:
    """Engine count of every quartered region equals its closed form."""
    for order in range(1, max_order + 1):
        for kind in QUARTER_KINDS:
            counted = _count(ledger, (build_quartered, order, kind))
            yield _case(f"{kind}({order})", theorem1_value(kind, order), counted)


# The four doubling recurrences: left order, right order, both as functions
# of the recurrence index n, within one quartered family pair.
_LEMMA1 = {
    "eq7": (PINWHEEL, lambda n: 4 * n, PINWHEEL, lambda n: 4 * n - 1),
    "eq8": (KLEIN_NONABUT, lambda n: 4 * n + 1, KLEIN_NONABUT, lambda n: 4 * n),
    "eq9": (KLEIN_NONABUT, lambda n: 4 * n, KLEIN_ABUT, lambda n: 4 * n - 1),
    "eq10": (KLEIN_ABUT, lambda n: 4 * n - 2, KLEIN_NONABUT, lambda n: 4 * n - 3),
}


def _lemma1_cases(ledger: dict, max_n: int = 2) -> Iterator[VerifyCase]:
    """The four doubling recurrences, both sides counted independently."""
    for n in range(1, max_n + 1):
        for which, (kind_l, ord_l, kind_r, ord_r) in _LEMMA1.items():
            lhs = _count(ledger, (build_quartered, ord_l(n), kind_l))
            rhs = _count(ledger, (build_quartered, ord_r(n), kind_r))
            yield _case(f"{which}[n={n}]", (1 << n) * rhs, lhs)


# Forced-edge identities: (id, family, larger order, smaller order).
_LEMMA2_PAIRS = (
    ("eq11", KLEIN_ABUT, lambda n: 4 * n, lambda n: 4 * n - 2),
    ("eq12", KLEIN_ABUT, lambda n: 4 * n + 1, lambda n: 4 * n - 1),
    ("eq13", KLEIN_NONABUT, lambda n: 4 * n + 2, lambda n: 4 * n),
    ("eq14", KLEIN_NONABUT, lambda n: 4 * n + 3, lambda n: 4 * n + 1),
)


def _lemma2_cases(ledger: dict, max_n: int = 2) -> Iterator[VerifyCase]:
    """Forced-edge reduction maps the larger dual onto the smaller one."""
    for n in range(1, max_n + 1):
        for name, kind, big, small in _LEMMA2_PAIRS:
            big_key, small_key = (build_quartered, big(n), kind), (build_quartered, small(n), kind)
            g_big, g_small = _built(big_key), _built(small_key)
            reduction = reduce_forced(g_big)
            iso = (not reduction.infeasible) and isomorphic_embedded(reduction.reduced, g_small)
            yield _bool_case(f"{name}[n={n}]:iso", iso)
            yield _case(f"{name}[n={n}]:count", _count(ledger, small_key, g_small),
                        _count(ledger, big_key, g_big))


# Factorization identities: (id, ledger key of the rectangle, upper kind, lower kind, order,
# factorization id).  Builders are read when a key is made, so a patched one is seen.
_LEMMA3_TABLE = (
    ("eq15", lambda n: (build_holey_ar, 2 * n, 4 * n, set_B(n)),
     KLEIN_ABUT, PINWHEEL, lambda n: 4 * n, lambda n: f"ar({2*n},{4*n})B{n}"),
    ("eq16", lambda n: (build_holey_ar, 2 * n, 4 * n, set_A(n)),
     PINWHEEL, KLEIN_NONABUT, lambda n: 4 * n, lambda n: f"ar({2*n},{4*n})A{n}"),
    ("eq17", lambda n: (build_holey_ar_bar, 2 * n, 4 * n - 1, set_A(n)),
     KLEIN_ABUT, PINWHEEL, lambda n: 4 * n - 1, lambda n: f"arbar({2*n},{4*n-1})A{n}"),
    ("eq18", lambda n: (build_holey_ar_bar, 2 * n, 4 * n - 1, set_B(n)),
     PINWHEEL, KLEIN_NONABUT, lambda n: 4 * n - 1, lambda n: f"arbar({2*n},{4*n-1})B{n}"),
)


def _lemma3_cases(ledger: dict, max_n: int = 2) -> Iterator[VerifyCase]:
    """Holey rectangles factor into quartered duals with the right product."""
    for n in range(1, max_n + 1):
        for name, instance, plus_kind, minus_kind, order, _ in _LEMMA3_TABLE:
            key = instance(n)
            g = _built(key)
            axis = find_diagonal_axis(g)
            if axis is None:
                yield _bool_case(f"{name}[n={n}]:axis", False)
                continue
            result = apply_factorization(g, axis)
            yield _case(f"{name}[n={n}]:w", n, result.w)
            plus_key, minus_key = ((build_quartered, order(n), k) for k in (plus_kind, minus_kind))
            plus_dual, minus_dual = _built(plus_key), _built(minus_key)
            yield _bool_case(f"{name}[n={n}]:plus~{plus_kind}",
                             isomorphic_embedded(result.g_plus, plus_dual))
            yield _bool_case(f"{name}[n={n}]:minus~{minus_kind}",
                             isomorphic_embedded(result.g_minus, minus_dual))
            product = ((1 << n) * _count(ledger, plus_key, plus_dual)
                       * _count(ledger, minus_key, minus_dual))
            yield _case(f"{name}[n={n}]:identity", _count(ledger, key, g), product)


_HOLEY_SHAPES = ((2, 4), (2, 5), (3, 5), (3, 6))


def _holey_cases(ledger: dict, seed: int, fixed: tuple, positions: Callable[[int], range],
                 builder: Callable[..., EmbeddedGraph], formula: Callable[..., int],
                 label: str) -> Iterator[VerifyCase]:
    """The fixed instance, then _HOLEY_TRIALS random hole sets per shape, drawn from positions(n).
    Draws repeat (only 36 of lemma4's 81 are distinct); a repeat is not built or counted again."""
    rng = random.Random(seed)
    instances = [fixed] + [(m, n, tuple(sorted(rng.sample(positions(n), m))))
                           for m, n in _HOLEY_SHAPES for _ in range(_HOLEY_TRIALS)]
    for m, n, holes in instances:
        cid = label.format(m=m, n=n, holes=",".join(map(str, holes)))
        yield _case(cid, formula(m, n, holes), _count(ledger, (builder, m, n, holes)))


def _lemma4_cases(ledger: dict) -> Iterator[VerifyCase]:
    """Hole-position formula equals engine count on fixed and random instances."""
    yield from _holey_cases(ledger, _RANDOM_SEED, (3, 5, (1, 3, 5)), lambda n: range(1, n + 1),
                            build_holey_ar, lemma4_value, "ar({m},{n})keep={holes}")


def _lemma5_cases(ledger: dict) -> Iterator[VerifyCase]:
    """Bottomless variant of the hole-position formula, same scheme."""
    yield from _holey_cases(ledger, _RANDOM_SEED + 1, (3, 5, (3, 4, 6)), lambda n: range(1, n + 2),
                            build_holey_ar_bar, lemma5_value, "arbar({m},{n})remove={holes}")


def _lemma6_cases(ledger: dict, max_n: int = 50) -> Iterator[VerifyCase]:
    """Exact rational equality of the difference-product ratio identity."""
    for n in range(1, max_n + 1):
        yield _case(f"n={n}", lemma6_rhs(n), lemma6_lhs(n))


def _factorization_cases(ledger: dict, max_n: int = 2) -> Iterator[VerifyCase]:
    """M(G) = 2^w M(G+) M(G-) on the 4-cycle and lemma3's rectangles, G counted first:
    G is a named instance, counted through the ledger, and its halves are counted here."""
    targets = [("square", (EmbeddedGraph.from_points, ((0, 0), (0, 1), (1, 0), (1, 1))))]
    targets += [(label(n), instance(n)) for n in range(1, max_n + 1)
                for _, instance, _, _, _, label in _LEMMA3_TABLE]
    for name, key in targets:
        g = _built(key)
        axis = find_diagonal_axis(g)
        if axis is None:
            yield _bool_case(f"{name}:axis", False)
            continue
        result = apply_factorization(g, axis)
        m_g = _count(ledger, key, g)
        product = (1 << result.w) * engines.count(result.g_plus) * engines.count(result.g_minus)
        yield _case(name, m_g, product)


def _engines_cases(ledger: dict) -> Iterator[VerifyCase]:
    """All engines agree on induced subgraphs of the 6x6 grid, each vertex kept at 1/2."""
    rng = random.Random(_RANDOM_SEED)
    for k in range(_ENGINE_TRIALS):
        g = EmbeddedGraph.from_points([(i, j) for i in range(_GRID_SIDE)
                                       for j in range(_GRID_SIDE) if rng.random() < 0.5])
        brute = engines.count_brute(g)
        yield _case(f"rnd#{k:03d}:dp", brute, engines.count_profile_dp(g))
        if engines.fkt_supported(g):  # fkt counts every graph; the gate fixes the case list
            yield _case(f"rnd#{k:03d}:fkt", brute, engines.count_fkt(g))


# Suite name -> (case generator, the run_suite bound it reads: "max_order", "max_n" or
# None, and the largest order that bound builds, as a function of its value).
_SUITES: dict[str, tuple[Callable[..., Iterator[VerifyCase]], str | None, Callable[[int], int] | None]] = {
    "theorem1": (_theorem1_cases, "max_order", lambda order: order),
    "lemma1": (_lemma1_cases, "max_n", lambda n: 4 * n + 1),
    "lemma2": (_lemma2_cases, "max_n", lambda n: 4 * n + 3),
    "lemma3": (_lemma3_cases, "max_n", lambda n: 4 * n),
    "lemma4": (_lemma4_cases, None, None),
    "lemma5": (_lemma5_cases, None, None),
    "lemma6": (_lemma6_cases, "max_n", lambda n: n),
    "factorization": (_factorization_cases, "max_n", lambda n: 4 * n),
    "engines": (_engines_cases, None, None),
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, max_order: int | None = None, max_n: int | None = None) -> SuiteReport:
    """Run one suite on a ledger of its own: each named instance is counted once in it.

    max_order is theorem1's bound and max_n the others' where read; None keeps the
    suite's default (12 for theorem1). A bound the suite does not read, one that is
    not an int >= 1 (a bool is not an int; below 1 no case would run), or one that
    would build an order above MAX_ORDER is rejected before any case runs.
    """
    return _run({}, name, max_order, max_n)


def run_all(max_order: int | None = None) -> list[SuiteReport]:
    """Every suite at its default bound, theorem1 at max_order, all on one ledger: an
    instance an earlier suite counted, such as a quarter of theorem1, is not counted again."""
    ledger: dict = {}
    return [_run(ledger, name, max_order if name == "theorem1" else None, None)
            for name in SUITE_NAMES]


def _run(ledger: dict, name: str, max_order: int | None, max_n: int | None) -> SuiteReport:
    """The only runner of a suite: check its bound, then run and time its cases on ledger."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    generate, bound, top_order = _SUITES[name]
    for key, value in (("max_order", max_order), ("max_n", max_n)):
        if value is not None and key != bound:
            raise ValueError(f"suite {name!r} takes no {key} bound")
        if value is not None and (type(value) is not int or value < 1):
            raise ValueError(f"{key} must be an int >= 1, got {value!r}")
    value = max_order if bound == "max_order" else max_n
    if value is not None and top_order(value) > MAX_ORDER:
        limit = max(k for k in range(MAX_ORDER + 1) if top_order(k) <= MAX_ORDER)
        raise ValueError(f"{bound} must be at most {limit} for suite {name!r}, got {value}: "
                         f"it would build order {top_order(value)}, above MAX_ORDER = {MAX_ORDER}")
    t0 = time.monotonic()
    cases = tuple(generate(ledger) if value is None else generate(ledger, value))
    return SuiteReport(suite=name, cases=cases, wall_ms=(time.monotonic() - t0) * 1000)


def reports_to_json(reports: list[SuiteReport]) -> str:
    """Deterministic JSON for one report or a combined run."""
    if len(reports) == 1:
        payload: dict = reports[0].to_json_dict()
    else:
        payload = {
            "suite": "all",
            "ok": all(r.ok for r in reports),
            "suites": [r.to_json_dict() for r in reports],
        }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def reports_to_csv(reports: list[SuiteReport]) -> str:
    """CSV with a header row; fields holding a comma, as some case ids do, are quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["suite", "case", "expected", "actual", "ok"])
    writer.writerows([r.suite, c.case_id, c.expected, c.actual, str(c.ok).lower()]
                     for r in reports for c in r.cases)
    return out.getvalue().removesuffix("\n")
