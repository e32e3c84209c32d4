"""Host-speed calibration for the benchmark's host-time metrics.

The benchmark shares its machine with other tenants, and the machine's
speed drifts by 15-30% on a timescale of seconds (measured with a fixed
CPU loop on the 2-vCPU reference host).  A plain median over a few reps
cannot hide drift of that size.  Each timed operation is therefore
bracketed by a fixed reference workload, and its host time is reported
at reference speed::

    normalised = measured * REFERENCE_S / sqrt(reference_before * reference_after)

The reference is pure-Python work of the same kind the simulator does
(heap pushes and pops, dict counters, attribute loads), and it lives in
this file, which a change to ``src/repro`` cannot touch.  On the 2-vCPU
reference host this cut the spread of 10-rep medians from 17% to 2%.
"""

from __future__ import annotations

import gc
import heapq
import math
import time
from typing import Callable, List

#: What one reference run takes on a host of reference speed.  Normalised
#: times are "host seconds on a host where the reference takes this long".
REFERENCE_S = 0.03

_REFERENCE_ITEMS = 22_000


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _reference_work() -> int:
    heap = []
    counts = {}
    items = []
    for i in range(_REFERENCE_ITEMS):
        key = (i * 2654435761) & 0xFFFF
        heapq.heappush(heap, (key, i))
        counts[key] = counts.get(key, 0) + 1
        items.append(_Item(key, i))
    total = 0
    while heap:
        key, i = heapq.heappop(heap)
        total += counts[key] + items[i].value
    return total


def measure() -> float:
    """Host seconds one reference run takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def normalise(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two reference runs, at reference speed."""
    return seconds * REFERENCE_S / math.sqrt(before * after)


class Stopwatch:
    """Times the segments of a run, each between two reference runs.

    The reference run after one segment is the one before the next, so a
    rep made of several segments (the two halves of a co-run pair, or a
    cold sweep and its cached re-runs) tracks drift at segment grain.
    An uncalibrated stopwatch reports raw host seconds; the traced pass
    uses one, because reference runs inside a traced rep would be time
    no layer claims.
    """

    def __init__(self, calibrated: bool = True) -> None:
        self.calibrated = calibrated
        self._last = measure() if calibrated else 0.0
        #: Seconds of every segment timed so far, in order.
        self.segments: List[float] = []

    def time(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` as one timed segment; returns its result."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        seconds = time.perf_counter() - start
        if self.calibrated:
            before, self._last = self._last, measure()
            seconds = normalise(seconds, before, self._last)
        self.segments.append(seconds)
        return result
