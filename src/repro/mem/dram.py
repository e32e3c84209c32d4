"""DRAM model.

The paper's platform uses DDR4-3200 (Table I).  The phenomena under study
are cache-resident (writeback rates, DMA bloating), so DRAM is modeled as a
fixed-latency, bandwidth-accounted sink: every read/write is counted and
timestamped so the harness can report DRAM read/write bandwidth exactly the
way Fig. 4 and Fig. 10 do.
"""

from __future__ import annotations

from ..sim import units
from .line import LINE_SIZE
from .stats import StatsBundle


class DRAM:
    """Fixed-latency DRAM with bandwidth accounting."""

    def __init__(
        self,
        stats: StatsBundle,
        latency: int = units.nanoseconds(70),
        name: str = "dram",
    ) -> None:
        self.stats = stats
        # Every read/write is one counter increment plus one timestamp
        # append; the bundle's underlying dicts are hit directly (they
        # survive reset(), see StatsBundle).
        self._counter_values = stats._counter_values
        self._event_streams = stats._event_streams
        self.latency = latency
        self.name = name
        #: Optional memory-layer fault injector (``repro.faults``): adds
        #: transient latency spikes to every access while a spike window
        #: is active.  ``None`` keeps reads/writes on the fast path.
        self.faults = None

    def read(self, addr: int, now: int) -> int:
        """Perform a line read; returns total latency in ticks."""
        self._counter_values["dram_reads"] += 1
        self._event_streams["dram_reads"].append(now)
        latency = self.latency
        if self.faults is not None:
            latency += self.faults.dram_extra_ticks(now)
        return latency

    def write(self, addr: int, now: int) -> int:
        """Perform a line write; returns total latency in ticks."""
        self._counter_values["dram_writes"] += 1
        self._event_streams["dram_writes"].append(now)
        latency = self.latency
        if self.faults is not None:
            latency += self.faults.dram_extra_ticks(now)
        return latency

    @property
    def reads(self) -> int:
        return self.stats.counters.get("dram_reads")

    @property
    def writes(self) -> int:
        return self.stats.counters.get("dram_writes")


class BankedDRAM(DRAM):
    """DDR-style DRAM with channels, banks, and open-row tracking.

    A closer model of the DDR4-3200 parts in Table I, for experiments
    where access *pattern* matters (row-buffer locality of streaming DMA
    vs the antagonist's random walk):

    * lines interleave across ``channels`` (consecutive lines alternate
      channels, as with fine-grained channel interleaving);
    * each channel has ``banks`` banks with one open row of ``row_bytes``;
    * a row hit costs ``t_cas``; a row miss costs ``t_rp + t_rcd + t_cas``
      (precharge + activate + access);
    * each channel is a serial server at the channel's data rate, so
      bursts of line transfers queue per channel.

    Row-hit/miss counts are exposed through the shared stats bundle
    (``dram_row_hits`` / ``dram_row_misses``).
    """

    def __init__(
        self,
        stats: StatsBundle,
        channels: int = 3,
        banks: int = 16,
        row_bytes: int = 8192,
        t_cas: int = units.nanoseconds(15),
        t_rcd: int = units.nanoseconds(15),
        t_rp: int = units.nanoseconds(15),
        channel_gbps: float = 200.0,
        name: str = "dram",
    ) -> None:
        super().__init__(stats, latency=t_cas, name=name)
        if channels <= 0 or banks <= 0 or row_bytes < LINE_SIZE:
            raise ValueError("invalid DRAM geometry")
        self.channels = channels
        self.banks = banks
        self.row_bytes = row_bytes
        self.t_cas = t_cas
        self.t_rcd = t_rcd
        self.t_rp = t_rp
        self._row_miss_penalty = t_rp + t_rcd
        self._channel_free = [0] * channels
        self._service_per_line = units.transfer_time(LINE_SIZE, channel_gbps / channels)
        #: open_row[channel][bank] -> row id (or -1).
        self._open_row = [[-1] * banks for _ in range(channels)]

    def _locate(self, addr: int) -> tuple:
        line = addr // LINE_SIZE
        channel = line % self.channels
        lines_per_row = self.row_bytes // LINE_SIZE
        row_global = line // lines_per_row
        bank = row_global % self.banks
        row = row_global // self.banks
        return channel, bank, row

    def _access(self, addr: int, now: int) -> int:
        channel, bank, row = self._locate(addr)
        latency = self.t_cas
        if self._open_row[channel][bank] == row:
            self._counter_values["dram_row_hits"] += 1
        else:
            self._counter_values["dram_row_misses"] += 1
            self._open_row[channel][bank] = row
            latency += self._row_miss_penalty
        # Channel bus contention.
        start = max(now, self._channel_free[channel])
        finish = start + self._service_per_line
        self._channel_free[channel] = finish
        return latency + (finish - now - self._service_per_line)

    def read(self, addr: int, now: int) -> int:
        self._counter_values["dram_reads"] += 1
        self._event_streams["dram_reads"].append(now)
        latency = self._access(addr, now)
        if self.faults is not None:
            latency += self.faults.dram_extra_ticks(now)
        return latency

    def write(self, addr: int, now: int) -> int:
        self._counter_values["dram_writes"] += 1
        self._event_streams["dram_writes"].append(now)
        latency = self._access(addr, now)
        if self.faults is not None:
            latency += self.faults.dram_extra_ticks(now)
        return latency
