"""Counters and time-series statistics for the memory hierarchy.

Two collection primitives are provided:

* :class:`Counter` — a named bag of monotonically increasing integers,
  mirroring perf-style hardware counters (``mlc_writebacks``,
  ``llc_writebacks``, ``dram_writes`` ...).
* :class:`EventLog` — per-stream timestamp logs.  Every writeback /
  invalidation / DMA transaction appends its simulator timestamp; the
  paper's rate timelines (Figs. 5, 9, 11, 13 — sampled at 10 us) are
  produced afterwards by binning the log.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

from ..sim import units


class Counter:
    """A named bag of monotonically increasing counters."""

    def __init__(self) -> None:
        self._values: Dict[str, int] = defaultdict(int)

    def add(self, name: str, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase; got {amount} for {name!r}")
        self._values[name] += amount

    def get(self, name: str) -> int:
        return self._values.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy of all counters."""
        return dict(self._values)

    def names(self) -> Iterable[str]:
        return self._values.keys()

    def reset(self) -> None:
        self._values.clear()

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in sorted(self._values.items()))
        return f"Counter({body})"


def count_between(times: Sequence[int], start: int, end: int) -> int:
    """Events of a sorted timestamp sequence falling in ``[start, end)``."""
    return bisect_left(times, end) - bisect_left(times, start)


def rate_series(
    times: Sequence[int],
    bin_ticks: int,
    start: int = 0,
    end: int = 0,
) -> List[Tuple[int, int]]:
    """Bin a timestamp list into ``(bin_start_tick, count)`` pairs.

    ``end`` defaults to the last timestamp (rounded up to a full bin).
    Empty bins are included so timelines have a uniform x axis.
    """
    if bin_ticks <= 0:
        raise ValueError(f"bin width must be positive, got {bin_ticks}")
    if end <= start:
        end = (times[-1] + 1) if times else start
    num_bins = max(0, -(-(end - start) // bin_ticks))
    bins = [0] * num_bins
    for t in times:
        if start <= t < start + num_bins * bin_ticks:
            bins[(t - start) // bin_ticks] += 1
    return [(start + i * bin_ticks, c) for i, c in enumerate(bins)]


def mtps_series(
    times: Sequence[int],
    bin_ticks: int,
    start: int = 0,
    end: int = 0,
) -> List[Tuple[float, float]]:
    """Rate series in (time_us, million-transactions-per-second).

    This is the unit the paper plots (MTPS) with its 10 us sampling
    interval.
    """
    series = rate_series(times, bin_ticks, start, end)
    bin_seconds = bin_ticks / units.SECOND
    return [
        (units.to_microseconds(t), count / bin_seconds / 1e6)
        for t, count in series
    ]


class EventLog:
    """Timestamp logs, one list per named event stream.

    Timestamps are simulator ticks.  ``record`` is the hot path and is kept
    to a single ``append``.  The binning helpers are module-level functions
    (``count_between``/``rate_series``/``mtps_series``) so that detached
    timestamp arrays — e.g. the ones an ``ExperimentSummary`` carries across
    process boundaries — bin identically to a live log.
    """

    def __init__(self) -> None:
        self._streams: Dict[str, List[int]] = defaultdict(list)

    def record(self, stream: str, time: int) -> None:
        self._streams[stream].append(time)

    def count(self, stream: str) -> int:
        return len(self._streams.get(stream, ()))

    def count_between(self, stream: str, start: int, end: int) -> int:
        """Events in ``[start, end)``; assumes timestamps are non-decreasing."""
        return count_between(self._streams.get(stream, []), start, end)

    def streams(self) -> Iterable[str]:
        return self._streams.keys()

    def timestamps(self, stream: str) -> List[int]:
        return list(self._streams.get(stream, ()))

    def rate_series(
        self,
        stream: str,
        bin_ticks: int,
        start: int = 0,
        end: int = 0,
    ) -> List[Tuple[int, int]]:
        """Bin a stream into ``(bin_start_tick, count)`` pairs."""
        return rate_series(self._streams.get(stream, []), bin_ticks, start, end)

    def mtps_series(
        self,
        stream: str,
        bin_ticks: int,
        start: int = 0,
        end: int = 0,
    ) -> List[Tuple[float, float]]:
        """Rate series in (time_us, MTPS) — the unit the paper plots."""
        return mtps_series(self._streams.get(stream, []), bin_ticks, start, end)

    def reset(self) -> None:
        self._streams.clear()


class StatsBundle:
    """Counters plus event logs, shared by every memory-hierarchy component."""

    def __init__(self) -> None:
        self.counters = Counter()
        self.events = EventLog()
        # ``bump`` is the hottest statistics call in the simulator (one per
        # hierarchy state transition); it updates the underlying dicts
        # directly instead of going through the Counter/EventLog methods.
        # ``reset()`` clears those dicts in place, so the references stay
        # valid for the lifetime of the bundle.
        self._counter_values = self.counters._values
        self._event_streams = self.events._streams

    def bump(self, name: str, time: int, amount: int = 1, log: bool = True) -> None:
        """Increment a counter and (optionally) log each occurrence's time."""
        if amount < 0:
            raise ValueError(f"counters only increase; got {amount} for {name!r}")
        self._counter_values[name] += amount
        if log:
            stream = self._event_streams[name]
            if amount == 1:
                stream.append(time)
            else:
                stream.extend([time] * amount)

    def reset(self) -> None:
        self.counters.reset()
        self.events.reset()

