"""Speed normalisation for a machine whose CPU speed changes during a run.

On the 2-vCPU VM (Xeon, 2.1 GHz) this benchmark was built on, the same
operation ran up to about 1.9x slower for stretches of seconds to tens of
seconds, as other tenants loaded the host.  Over 20-second windows, raw
median op times moved by 20% to 40% from run to run.

So each op is timed between two runs of a probe: a fixed ``Fraction`` loop,
the kind of work dhwalk does, run in the measuring process with the garbage
collector off so that the program's gc settings cannot change it.  The
probe's time divided by its time when that machine ran fast is a slowness
factor, and every timing is reported at reference speed: ``ms / slowness``.
The slowness used is the median of the probe readings within SMOOTHING_S of
the measurement, because a single reading is noisy.

For in-process dhwalk work the ratio of op time to probe time stayed within
about 3% while raw medians moved by 25%.  Fresh CLI calls track it less
well (interpreter start-up slows down less than computation), and a
``python -c pass`` probe, or a mix of both, did no better over whole runs,
so the one probe serves every workload.
"""

import bisect
import gc
import statistics
import time
from fractions import Fraction

# the probe's time when that machine ran at its faster speed; only sets the scale
REFERENCE_LOOP_MS = 1.2
SMOOTHING_S = 0.75


def loop_slowness() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        x = Fraction(1, 3)
        for i in range(300):
            x = x * Fraction(i + 1, i + 2) + Fraction(1, 7)
        return (time.perf_counter() - start) * 1e3 / REFERENCE_LOOP_MS
    finally:
        if enabled:
            gc.enable()


def smoothed(times: list[float], slowness: list[float]) -> list[float]:
    """Median slowness within SMOOTHING_S of each of ``times`` (ascending)."""
    out = []
    for t in times:
        lo = bisect.bisect_left(times, t - SMOOTHING_S)
        hi = bisect.bisect_right(times, t + SMOOTHING_S)
        out.append(statistics.median(slowness[lo:hi]))
    return out

