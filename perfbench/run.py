"""Benchmark of the aztec_tilings workbench, run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each was chosen is recorded in BENCHMARK.json):
    det_wide         determinant engine on wide instances, checked against closed forms
    verify_deep      every verify suite at depth, reports checked against pinned digests
    structure_large  forced-edge reduction and diagonal factorization at large order

Each run first starts the worker several times for set-up alone, then
once for the measured closed loop (see worker.py).  Every time reported
is scaled to the host speed at which the probe (probe.py) takes
probe.REF_S: a set-up time by the probes timed on either side of it,
job times by the mean of the probes timed between the jobs of the run.
The unscaled times are in the environment block and the rows.

The last line of stdout is one JSON object {"correct", "attempted",
"failed", "metrics"}: with --trace 0 the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics.  The line before it is the environment block.
Each job's row is streamed to perfbench/runs/<workload>-seed<N>-trace<T>.jsonl
as it ends; a traced run also writes its spans beside it.

Exit status: 0 when every job's output is correct, 1 when a job failed,
raised or ran out of time, 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import REF_S, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RUNS = HERE / "runs"

# Set-up is timed this many times per run, each by a set-up-only worker.
SETUP_SAMPLES = 5
# Every worker of one run must be done this long after the run starts; jobs
# still unfinished then are recorded as "timeout".
BUDGET_S = 150.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
    except OSError:
        return None
    return ref


def source_digest() -> str:
    """SHA-256 over the package sources: names the code measured where git cannot."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def read_lines(proc: subprocess.Popen, deadline: float):
    """Yield the worker's stdout lines as they arrive; TimeoutError at the deadline."""
    fd = proc.stdout.fileno()
    buf = b""
    while True:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise TimeoutError
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return
        *lines, buf = (buf + chunk).split(b"\n")
        for line in lines:
            try:
                yield json.loads(line)
            except ValueError:
                sys.stderr.write(f"worker: {line.decode(errors='replace')}\n")


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def spawn(args, extra: list[str]) -> tuple[subprocess.Popen, float]:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0), t0


def time_setup(args, deadline: float) -> tuple[float, float]:
    """Seconds from starting a set-up-only worker until its inputs are ready,
    and the mean probe time before and after it."""
    before = probe()
    proc, t0 = spawn(args, ["--setup-only"])
    try:
        for row in read_lines(proc, deadline):
            if row["event"] == "ready":
                seconds = time.perf_counter() - t0
                break
        else:
            raise RuntimeError("set-up worker ended before it was ready")
    finally:
        stop(proc)
    return seconds, (before + probe()) / 2


def measure(args, deadline: float, rows) -> tuple[list[float], list[dict], list[dict], bool]:
    """Run the measured worker; return its set-up time, job rows, pass rows, clean exit."""
    spans = RUNS / f"{args.workload}-seed{args.seed}-spans.jsonl"
    proc, t0 = spawn(args, ["--spans", str(spans)] if args.trace else [])
    setup, jobs, passes, pending = [], [], [], []
    clean, status = False, "lost"
    try:
        for row in read_lines(proc, deadline):
            rows.write(json.dumps(row) + "\n")
            rows.flush()
            if row["event"] == "ready":
                setup.append(time.perf_counter() - t0)
                job_ids = row["jobs"]
                pending = list(job_ids)
            elif row["event"] == "job":
                jobs.append(row)
                pending.remove(row["job"])
            elif row["event"] == "pass":
                passes.append(row)
                pending = list(job_ids)
        clean = proc.wait() == 0
    except TimeoutError:
        status = "timeout"
    finally:
        stop(proc)
    if not clean:
        # The worker was stopped or died: the jobs of its pass in flight never reported.
        for job_id in pending:
            row = {"event": "job", "pass": len(passes), "job": job_id, "status": status}
            rows.write(json.dumps(row) + "\n")
            jobs.append(row)
        rows.flush()
    return setup, jobs, passes, clean


def pass_time(jobs: list[dict], traced: bool, scaled: bool = True) -> float | None:
    """One pass over the job list: the sum over jobs of each job's mean time in this run.

    Scaled, the sum is multiplied by REF_S over the mean probe time of the
    same rows.  On a shared 2-core VM (Python 3.11) the speed of a core
    flipped between levels up to 1.9x apart every few seconds.  In two
    sets of ten 30-second runs of each workload there, the quartile
    spread of the unscaled sum was 0.08-0.18 of its median and of the
    scaled one 0.03-0.08.  Scaling each job by the probes beside it
    instead gave 0.05-0.08, no steadier for more code.
    """
    times: dict[str, list[float]] = {}
    probes = []
    for row in jobs:
        if "seconds" in row and row["traced"] == traced:
            times.setdefault(row["job"], []).append(row["seconds"])
            probes.append(row["probe_s"])
    if not times:
        return None
    wall = sum(statistics.mean(t) for t in times.values())
    return wall * REF_S / statistics.mean(probes) if scaled else wall


def scaled_layers(traced_pass: dict, jobs: list[dict], per_layer: list[dict]) -> dict:
    """A traced pass's layer metrics, its times scaled by the pass's mean probe time."""
    probes = [row["probe_s"] for row in jobs
              if row["pass"] == traced_pass["pass"] and "seconds" in row]
    factor = REF_S / statistics.mean(probes)
    units = {m["name"]: m["unit"] for m in per_layer}
    return {name: value * factor if units.get(name) == "s" else value
            for name, value in traced_pass["layers"].items()}


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "aztec_tilings" / "__init__.py").is_file():
        return fail(f"no package source at {ROOT / 'src' / 'aztec_tilings'}")

    started = time.monotonic()
    deadline = started + BUDGET_S
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "probe_ref_s": REF_S,
    }
    RUNS.mkdir(exist_ok=True)
    with open(RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.jsonl", "w",
              encoding="utf-8") as rows:
        rows.write(json.dumps({"event": "env", **env}) + "\n")
        rows.flush()
        try:
            setups = [time_setup(args, deadline) for _ in range(SETUP_SAMPLES)]
            main_setup, jobs, passes, clean = measure(args, deadline, rows)
        except (TimeoutError, RuntimeError) as exc:
            return fail(f"set-up did not finish: {exc!r}")
        if not main_setup or not jobs:
            return fail("the measured worker ran no job")
        probes = [row["probe_s"] for row in jobs if "probe_s" in row]
        env["setup_samples_s"] = [seconds for seconds, _ in setups] + main_setup
        env["setup_probe_s"] = [probe_s for _, probe_s in setups]
        env["calibration_s"] = statistics.median(probes) if probes else None
        env["unscaled_wall_s"] = pass_time(jobs, traced=False, scaled=False)
        rows.write(json.dumps({"event": "env_end", **env}) + "\n")

    failed = sum(1 for row in jobs if row["status"] != "ok")
    untraced = pass_time(jobs, traced=False)
    traced = [scaled_layers(p, jobs, spec["per_layer"]) for p in passes if p["traced"]]
    if args.trace:
        wanted = spec["per_layer"]
        values = {}
        if traced and untraced:
            values["trace.overhead_s"] = pass_time(jobs, traced=True) - untraced
            for name in traced[0]:
                values[name] = statistics.median(layers[name] for layers in traced)
    else:
        wanted = spec["end_to_end"]
        values = {"setup_s": statistics.median(t / q * REF_S for t, q in setups)}
        if untraced:
            values["wall_s"] = untraced
            values["peak_rss_mb"] = max(p["peak_rss_mb"] for p in passes)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"run ended without {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = clean and failed == 0
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": correct, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
