"""One workload run in one process: set up, then a closed loop of passes.

Started by run.py, which times it and enforces the run's time budget:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--setup-only] [--spans FILE]

A single caller runs the jobs one after another; the next job starts only
when the previous one has returned.  Passes over the job list repeat
until --seconds have gone by; an untraced pass stops at the first job
that would start after that, a traced pass always ends.  With --trace 1
passes alternate untraced and traced, so one run gives both the layer
split and the tracing cost.  The probe (probe.py) is timed before the
first job and after every job, outside the jobs' timed intervals.

Every event is one JSON line on stdout, flushed as it happens:
    {"event": "ready", "jobs": [...]}                       set-up is done
    {"event": "job", "pass": p, "job": id, "status": ...,   one per job, with the
     "seconds": t, "probe_s": q}                            probes on either side
    {"event": "pass", "pass": p, "wall_s": t, ...}          one per pass
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402  (imports the package from ROOT/src)
from probe import probe  # noqa: E402
import workloads  # noqa: E402


def emit(**row) -> None:
    print(json.dumps(row), flush=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_job(job, tr) -> tuple[object, str | None, float]:
    """Time one job; the timed interval holds the job's call and nothing else."""
    t0 = perf_counter()
    try:
        out = tr.span("bench.job", job.run) if tr else job.run()
    except Exception as exc:  # a failing job is recorded and the loop goes on
        traceback.print_exc()
        return None, f"{type(exc).__name__}: {exc}", perf_counter() - t0
    return out, None, perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    jobs = workloads.WORKLOADS[args.workload](args.seed)
    tr = tracer.Tracer() if args.trace else None
    emit(event="ready", jobs=[job.job_id for job in jobs])
    if args.setup_only:
        return 0

    kept_spans = []
    start = perf_counter()
    n_pass = 0
    before = probe()

    def more() -> bool:
        return n_pass < (2 if tr else 1) or perf_counter() - start < args.seconds

    while more():
        traced = tr is not None and n_pass % 2 == 1
        wall = 0.0
        if traced:
            tr.install()
        try:
            for job in jobs:
                if not traced and not more():
                    break
                if traced:
                    tr.job = job.job_id
                out, error, seconds = run_job(job, tr if traced else None)
                after = probe()
                wall += seconds
                detail = error if error is not None else job.check(out)
                status = "ok" if detail is None else ("error" if error else "failed")
                emit(event="job", job=job.job_id, status=status, seconds=seconds,
                     probe_s=(before + after) / 2, detail=detail, traced=traced,
                     **{"pass": n_pass})
                before = after
        finally:
            if traced:
                tr.uninstall()
        layers = None
        if traced:
            spans = tr.take()
            layers = tracer.summarize(spans, workloads.VERIFY_DEPTHS)
            kept_spans.append((n_pass, spans))
        emit(event="pass", wall_s=wall, traced=traced, peak_rss_mb=peak_rss_mb(),
             layers=layers, **{"pass": n_pass})
        n_pass += 1

    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            for n, spans in kept_spans:
                for i, s in enumerate(spans):
                    fh.write(json.dumps({
                        "pass": n, "span": i, "name": s[tracer.NAME],
                        "start": s[tracer.START] - start, "end": s[tracer.END] - start,
                        "parent": s[tracer.PARENT], "job": s[tracer.JOB],
                    }) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
