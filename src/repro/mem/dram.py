"""DRAM model.

The paper's platform uses DDR4-3200 (Table I).  The phenomena under study
are cache-resident (writeback rates, DMA bloating), so DRAM is modeled as a
fixed-latency, bandwidth-accounted sink: every read/write is counted and
timestamped so the harness can report DRAM read/write bandwidth exactly the
way Fig. 4 and Fig. 10 do.
"""

from __future__ import annotations

from ..sim import units
from .stats import StatsBundle

#: Latency of every DRAM line read or write.
DRAM_LATENCY = units.nanoseconds(70)


class DRAM:
    """Fixed-latency DRAM with bandwidth accounting."""

    def __init__(self, stats: StatsBundle) -> None:
        self.stats = stats
        # Every read/write is one counter increment plus one timestamp
        # append; the bundle's underlying dicts are hit directly (they
        # survive reset(), see StatsBundle).
        self._counter_values = stats._counter_values
        self._event_streams = stats._event_streams
        #: Optional memory-layer fault injector (``repro.faults``): adds
        #: transient latency spikes to every access while a spike window
        #: is active.  ``None`` keeps reads/writes on the fast path.
        self.faults = None

    def read(self, addr: int, now: int) -> int:
        """Perform a line read; returns total latency in ticks."""
        self._counter_values["dram_reads"] += 1
        self._event_streams["dram_reads"].append(now)
        latency = DRAM_LATENCY
        if self.faults is not None:
            latency += self.faults.dram_extra_ticks(now)
        return latency

    def write(self, addr: int, now: int) -> int:
        """Perform a line write; returns total latency in ticks."""
        self._counter_values["dram_writes"] += 1
        self._event_streams["dram_writes"].append(now)
        latency = DRAM_LATENCY
        if self.faults is not None:
            latency += self.faults.dram_extra_ticks(now)
        return latency

    @property
    def reads(self) -> int:
        return self.stats.counters.get("dram_reads")

    @property
    def writes(self) -> int:
        return self.stats.counters.get("dram_writes")
