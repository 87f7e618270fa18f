"""A fixed pure-Python computation that gauges the host's speed.

The benchmark's host shares its cores with other machines, and its speed
drifts by up to 1.5-2x over minutes: the same run of the same code can take
1.0 s now and 1.5 s five minutes later.  Each child process therefore times
``work()`` ``REPEATS`` times right before it runs the program and reports
the median as ``reference_s``.  ``run.py`` scales each of that run's times
by ``NOMINAL_S / reference_s``, so a time reads as the seconds the run
would take on a host where ``work()`` takes ``NOMINAL_S``.  A slower host
slows the program and the reference alike and the factor cancels it; a
change to the program moves the program's time alone.  ``work()`` uses no
``hmlbn`` code, so no change to the program can move it.
"""

from __future__ import annotations

import heapq
import json
import statistics
import time

# about the median of reference_s() on the 2-vCPU Xeon VM the first
# trajectory point was measured on; a fixed scale, never re-measured
NOMINAL_S = 0.070
REPEATS = 3


def work() -> int:
    """Heap, dict and JSON work in the proportions of the event loop."""
    heap, table, out = [], {}, []
    for i in range(20000):
        heapq.heappush(heap, ((i * 7919) % 10007, i, {"k": i}))
        table[i % 503] = table.get(i % 503, 0) + 1
        if i % 3 == 0:
            t, _, d = heapq.heappop(heap)
            out.append(json.dumps({"t": t, "n": d["k"]}, sort_keys=True))
    return len(out) + len(table)


def reference_s(repeats: int = REPEATS) -> float:
    """Median time of ``repeats`` calls of ``work()``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
