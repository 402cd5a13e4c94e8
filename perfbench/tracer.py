"""Spans around the package's public functions, recorded from outside the package.

`Tracer.install` rebinds every module attribute of the package that holds
a traced function, including values in module-level tables such as the
engine dispatch table, to a wrapper that records a span.  `uninstall`
puts the originals back, so untraced passes run the package untouched.
Spans stay in memory; the worker writes them out when the run ends.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

from aztec_tilings import grids

# (module, function, span name).  Functions sharing a span name form one layer.
TRACED = (
    ("engines", "count", "engines.count"),
    ("engines", "count_fkt", "engines.fkt"),
    ("engines", "fkt_supported", "engines.fkt"),
    ("engines", "count_profile_dp", "engines.profile_dp"),
    ("engines", "count_brute", "engines.brute"),
    ("grids", "dual_graph", "grids.dual"),
    ("grids", "reduce_forced", "grids.reduce"),
    ("grids", "isomorphic_embedded", "grids.iso"),
    ("regions", "build_aztec_diamond", "regions.build"),
    ("regions", "build_quartered", "regions.build"),
    ("regions", "build_aztec_rectangle", "regions.build"),
    ("regions", "build_holey_ar", "regions.build"),
    ("regions", "build_holey_ar_bar", "regions.build"),
    ("factorize", "find_diagonal_axis", "factorize.axis"),
    ("factorize", "apply_factorization", "factorize.apply"),
    ("formulas", "aztec_diamond_value", "formulas.closed_form"),
    ("formulas", "theorem1_value", "formulas.closed_form"),
    ("formulas", "lemma4_value", "formulas.closed_form"),
    ("formulas", "lemma5_value", "formulas.closed_form"),
    ("formulas", "lemma6_lhs", "formulas.lemma6"),
    ("formulas", "lemma6_rhs", "formulas.lemma6"),
    ("verify", "run_suite", "verify.suite"),
)

# Functions whose arguments and result are kept until the pass is summarised.
_KEEP_IO = {"count", "count_fkt", "count_profile_dp", "reduce_forced", "run_suite"}

SELF_TIMES = {
    "engines.fkt_s": "engines.fkt",
    "engines.profile_dp_s": "engines.profile_dp",
    "engines.brute_s": "engines.brute",
    "engines.count_s": "engines.count",
    "grids.iso_s": "grids.iso",
    "grids.reduce_s": "grids.reduce",
    "grids.dual_s": "grids.dual",
    "regions.build_s": "regions.build",
    "factorize.axis_s": "factorize.axis",
    "factorize.apply_s": "factorize.apply",
    "formulas.lemma6_s": "formulas.lemma6",
    "formulas.closed_form_s": "formulas.closed_form",
    "verify.self_s": "verify.suite",
    "bench.self_s": "bench.job",
}

# Span layout: [name, start, end, parent index, job id, (args, kwargs, result) or None].
NAME, START, END, PARENT, JOB, IO = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job = ""
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._wrappers = {}
        for module, attr, name in TRACED:
            fn = getattr(sys.modules[f"aztec_tilings.{module}"], attr)
            self._wrappers[id(fn)] = self._wrap(fn, name, attr in _KEEP_IO)

    def _wrap(self, fn, name: str, keep: bool = False):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if keep:
                span[IO] = (args, kwargs, result)
            return result

        return traced

    def span(self, name: str, fn):
        """Call fn() inside a span of the given name (the benchmark's own job span)."""
        return self._wrap(fn, name)()

    def install(self) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "aztec_tilings" and not modname.startswith("aztec_tilings."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in self._wrappers:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, self._wrappers[id(value)])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in value.items():
                        if id(item) in self._wrappers:
                            self._undo.append((value, key, item))
                            value[key] = self._wrappers[id(item)]

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        taken = self.spans[:]
        self.spans.clear()
        return taken


def summarize(spans: list[list], suites) -> dict[str, float]:
    """Per-layer self times and exact counters for one traced pass."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    self_time: dict[str, float] = defaultdict(float)
    suite_time: dict[str, float] = defaultdict(float)
    for span, inner in zip(spans, child_time):
        self_time[span[NAME]] += span[END] - span[START] - inner
    metrics = {metric: self_time[name] for metric, name in SELF_TIMES.items()}

    calls = repeats = bits = fkt_order = width = forced = cases = failed = 0
    seen = set()
    for span in spans:
        if span[IO] is None:
            continue
        args, kwargs, result = span[IO]
        name = span[NAME]
        if name == "engines.count":
            calls += 1
            bits += result.bit_length()
            key = grids.normalize(args[0])
            repeats += key in seen
            seen.add(key)
        elif name == "engines.fkt":
            evens = sum(1 for x, y in args[0].vertices if (x + y) % 2 == 0)
            fkt_order = max(fkt_order, evens)
        elif name == "engines.profile_dp" and args[0].vertices:
            xs = [x for x, _ in args[0].vertices]
            ys = [y for _, y in args[0].vertices]
            width = max(width, min(max(xs) - min(xs), max(ys) - min(ys)) + 1)
        elif name == "grids.reduce":
            forced += len(result.forced_pairs)
        elif name == "verify.suite":
            suite_time[args[0]] += span[END] - span[START]
            cases += len(result.cases)
            failed += sum(1 for c in result.cases if not c.ok)
        span[IO] = None
    for suite in suites:
        metrics[f"verify.suite_s.{suite}"] = suite_time[suite]
    metrics.update({
        "engines.calls": calls,
        "engines.repeat_share": repeats / calls if calls else 0.0,
        "engines.result_bits": bits,
        "engines.fkt_order": fkt_order,
        "engines.profile_width_max": width,
        "grids.forced_edges": forced,
        "verify.cases": cases,
        "verify.cases_failed": failed,
    })
    return metrics
