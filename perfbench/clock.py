"""Times scaled to a reference interpreter speed.

The benchmark runs on shared machines whose speed drifts by up to 2x over
tens of seconds, for every process alike.  Before an op (at most every
CAL_INTERVAL_S) the benchmark times a fixed loop that uses no package code;
each measured time is then scaled by CAL_REF_S over the median of the last
three loop times.  A reported time is thus what the measurement would read
at the speed where the loop takes CAL_REF_S.  The loop runs with the garbage
collector off, so the package's heap does not change its cost.
"""

from __future__ import annotations

import gc
import statistics
from collections import deque
from time import perf_counter

CAL_REF_S = 0.003
CAL_INTERVAL_S = 0.2


def _reference_loop():
    rows = [tuple((i * 31 + j * 17) % 97 for j in range(6)) for i in range(1500)]
    seen = set()
    acc = 0
    for r in rows:
        v = tuple((a + b) % 64 for a, b in zip(r, rows[acc % 1500]))
        seen.add(v)
        acc += v[0]
    rows.sort()
    return len(seen) + acc


def calibrate():
    """Seconds the reference loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _reference_loop()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class ScaledClock:
    """Scale factor from the latest reference-loop times."""

    def __init__(self):
        self.samples = deque(maxlen=3)
        self.factors = []
        self._last = None

    def factor(self):
        """Recalibrates if CAL_INTERVAL_S has passed; returns the factor
        that converts a time measured now to the reference speed."""
        now = perf_counter()
        if self._last is None or now - self._last >= CAL_INTERVAL_S:
            self.samples.append(calibrate())
            self._last = perf_counter()
        f = CAL_REF_S / statistics.median(self.samples)
        self.factors.append(f)
        return f
