"""A fixed pure-Python loop timed beside every measured interval.

The benchmark runs on a few cores of a shared host, where the speed of
one core changed by up to 1.75x within seconds as its neighbours' load
came and went.  The probe is timed between the jobs of a run and on
either side of each set-up, and a time is reported at the host speed at
which one probe takes REF_S: seconds * REF_S / mean probe seconds.  The
probe does none of the package's work, so a change to the package moves
the jobs' time and leaves the probe's alone.
"""

from __future__ import annotations

from time import perf_counter

# Seconds one probe is taken to last on the reference host.
REF_S = 0.02


def probe() -> float:
    """Seconds taken by a fixed mix of integer arithmetic, dict and list work."""
    t0 = perf_counter()
    acc, table, big = 0, {}, 3
    for i in range(60_000):
        acc = (acc * 31 + i) % 1_000_003
        table[acc & 1023] = table.get(i & 1023, 0) + 1
        if i % 64 == 0:
            big = (big * 0x9E3779B97F4A7C15 + acc) % (1 << 2048)
    return perf_counter() - t0
