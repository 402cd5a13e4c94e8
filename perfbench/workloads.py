"""The benchmark's workloads: inputs made from the seed, the timed call, its check.

Every timed call goes through a module attribute of the package
(`engines.count`, `grids.reduce_forced`, ...) looked up at call time, so
the tracer can rebind those attributes for a traced pass.

Each job's input is placed by a lattice symmetry and a translation drawn
from the workload seed and the job id.  Counts and shape identities are
invariant under both, so the same references check every seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from aztec_tilings import engines, factorize, formulas, grids, regions, verify
from aztec_tilings.grids import LATTICE_SYMMETRIES, EmbeddedGraph
from aztec_tilings.regions import KLEIN_ABUT, KLEIN_NONABUT, PINWHEEL, Region

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Job:
    """One unit of work: `run` is timed, `check` returns None iff its output is right."""

    job_id: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def _placement(seed: int, job_id: str) -> tuple[int, int, int]:
    rng = random.Random(f"{seed}/{job_id}")
    return rng.randrange(len(LATTICE_SYMMETRIES)), rng.randint(-64, 64), rng.randint(-64, 64)


def _place_graph(g: EmbeddedGraph, placement: tuple[int, int, int]) -> EmbeddedGraph:
    sym, dx, dy = LATTICE_SYMMETRIES[placement[0]], placement[1], placement[2]
    moved = {}
    for p in g.vertices:
        x, y = sym(*p)
        moved[p] = (x + dx, y + dy)
    pairs = [(moved[p], moved[q]) for p, q in g.point_pairs()]
    return EmbeddedGraph.from_points(moved.values(), pairs)


def _place_region(region: Region, placement: tuple[int, int, int]) -> Region:
    # A cell is moved through its doubled centre (2i+1, 2j+1), which stays odd.
    sym, dx, dy = LATTICE_SYMMETRIES[placement[0]], placement[1], placement[2]
    cells = set()
    for i, j in region.cells:
        p, q = sym(2 * i + 1, 2 * j + 1)
        cells.add(((p - 1) // 2 + dx, (q - 1) // 2 + dy))
    return Region(cells=frozenset(cells), name=region.name)


def _expect(want: int) -> Callable[[object], Optional[str]]:
    return lambda got: None if got == want else f"counted {got}, closed form says {want}"


# det_wide: determinant engine on wide instances, each checked against its closed form.
# ad(14) and r(28) are left out: they doubled a pass, which halved the
# repetitions of each job that one run's median rests on.
_DET_WIDE = (
    ("ad(10)", lambda: grids.dual_graph(regions.build_aztec_diamond(10)),
     lambda: formulas.aztec_diamond_value(10)),
    ("ad(12)", lambda: grids.dual_graph(regions.build_aztec_diamond(12)),
     lambda: formulas.aztec_diamond_value(12)),
    ("r(24)", lambda: grids.dual_graph(regions.build_quartered(24, PINWHEEL)),
     lambda: formulas.theorem1_value(PINWHEEL, 24)),
    ("ka(24)", lambda: grids.dual_graph(regions.build_quartered(24, KLEIN_ABUT)),
     lambda: formulas.theorem1_value(KLEIN_ABUT, 24)),
    ("kna(24)", lambda: grids.dual_graph(regions.build_quartered(24, KLEIN_NONABUT)),
     lambda: formulas.theorem1_value(KLEIN_NONABUT, 24)),
    ("ar(8,16)B4", lambda: regions.build_holey_ar(8, 16, regions.set_B(4)),
     lambda: formulas.lemma4_value(8, 16, regions.set_B(4))),
    ("arbar(8,15)A4", lambda: regions.build_holey_ar_bar(8, 15, regions.set_A(4)),
     lambda: formulas.lemma5_value(8, 15, regions.set_A(4))),
)


def det_wide(seed: int) -> list[Job]:
    jobs = []
    for job_id, build, closed_form in _DET_WIDE:
        g = _place_graph(build(), _placement(seed, job_id))
        jobs.append(Job(job_id, lambda g=g: engines.count(g, engine="fkt"), _expect(closed_form())))
    return jobs


# verify_deep: every suite through the default engine, deeper than `verify all`.
VERIFY_DEPTHS = {
    "theorem1": {"max_order": 18},
    "lemma1": {"max_n": 3},
    "lemma2": {"max_n": 5},
    "lemma3": {"max_n": 4},
    "lemma4": {},
    "lemma5": {},
    "lemma6": {},
    "factorization": {"max_n": 4},
    "engines": {},
}

# SHA-256 of `verify.reports_to_json([report])` for each suite at the depths above.
DIGESTS_FILE = HERE / "verify_digests.json"


def _check_report(digest: str) -> Callable[[object], Optional[str]]:
    def check(report) -> Optional[str]:
        if not report.ok:
            return "suite reported a failed case"
        got = hashlib.sha256(verify.reports_to_json([report]).encode()).hexdigest()
        return None if got == digest else f"report digest {got} != pinned {digest}"

    return check


def verify_deep(seed: int) -> list[Job]:
    digests = json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))
    names = list(VERIFY_DEPTHS)
    random.Random(seed).shuffle(names)
    return [
        Job(name, lambda name=name: verify.run_suite(name, **VERIFY_DEPTHS[name]),
            _check_report(digests[name]))
        for name in names
    ]


# structure_large: oracle-free shape identities at large order, no engine call.
# Trimmed from n = 16, 32, 48 and n = 8, 16, 24, 32: at V ~ 18k (85 MB) a run's
# median moved with the host's cache contention far more than det_wide's did.
# At V ~ 8.5k the forced-edge rescan is still a third of an eq11/eq13 job.
_LEMMA2 = (
    ("eq11", KLEIN_ABUT, lambda n: 4 * n, lambda n: 4 * n - 2),
    ("eq13", KLEIN_NONABUT, lambda n: 4 * n + 2, lambda n: 4 * n),
)
_LEMMA2_N = (16, 32)

_LEMMA3 = (
    ("eq15", regions.set_B, KLEIN_ABUT, PINWHEEL),
    ("eq16", regions.set_A, PINWHEEL, KLEIN_NONABUT),
)
_LEMMA3_N = (8, 24)


def _quarter_dual(order: int, kind: str) -> EmbeddedGraph:
    return grids.dual_graph(regions.build_quartered(order, kind))


def _reduce_job(order: int, kind: str, placement, smaller: EmbeddedGraph):
    region = _place_region(regions.build_quartered(order, kind), placement)
    report = grids.reduce_forced(grids.dual_graph(region))
    if report.infeasible:
        return (True, False)
    return (False, grids.isomorphic_embedded(report.reduced, smaller))


def _check_reduce(out) -> Optional[str]:
    infeasible, iso = out
    if infeasible:
        return "forced-edge reduction found the region infeasible"
    return None if iso else "reduced graph is not isomorphic to the smaller quarter"


def _factor_job(g: EmbeddedGraph, plus: EmbeddedGraph, minus: EmbeddedGraph):
    axis = factorize.find_diagonal_axis(g)
    if axis is None:
        return None
    halves = factorize.apply_factorization(g, axis)
    return (
        halves.w,
        grids.isomorphic_embedded(halves.g_plus, plus),
        grids.isomorphic_embedded(halves.g_minus, minus),
    )


def _check_factor(n: int) -> Callable[[object], Optional[str]]:
    def check(out) -> Optional[str]:
        if out is None:
            return "no diagonal symmetry axis found"
        w, plus_ok, minus_ok = out
        if w != n:
            return f"w = {w}, expected {n}"
        return None if plus_ok and minus_ok else f"halves isomorphic: {plus_ok}, {minus_ok}"

    return check


def _walk_kept(g: EmbeddedGraph, placement) -> bool:
    # apply_factorization alternates its cut from the on-axis vertex of least x,
    # and the halves it names G+ and G- swap when a symmetry reverses that walk.
    axis = factorize.find_diagonal_axis(g)
    along = (1, 1) if axis.slope == factorize.SLOPE_UP else (1, -1)
    return LATTICE_SYMMETRIES[placement[0]](*along)[0] > 0


def structure_large(seed: int) -> list[Job]:
    jobs = []
    for n in _LEMMA2_N:
        for eq, kind, larger, smaller in _LEMMA2:
            job_id = f"{eq}[n={n}]"
            run = (lambda order=larger(n), kind=kind, pl=_placement(seed, job_id),
                   ref=_quarter_dual(smaller(n), kind): _reduce_job(order, kind, pl, ref))
            jobs.append(Job(job_id, run, _check_reduce))
    for n in _LEMMA3_N:
        for eq, positions, plus_kind, minus_kind in _LEMMA3:
            job_id = f"{eq}[n={n}]"
            placement = _placement(seed, job_id)
            built = regions.build_holey_ar(2 * n, 4 * n, positions(n))
            plus, minus = _quarter_dual(4 * n, plus_kind), _quarter_dual(4 * n, minus_kind)
            if not _walk_kept(built, placement):
                plus, minus = minus, plus
            g = _place_graph(built, placement)
            jobs.append(Job(job_id, lambda g=g, p=plus, m=minus: _factor_job(g, p, m),
                            _check_factor(n)))
    return jobs


WORKLOADS = {
    "det_wide": det_wide,
    "verify_deep": verify_deep,
    "structure_large": structure_large,
}
