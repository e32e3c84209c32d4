"""Derived metrics: percentiles, normalized rates, window statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..mem.stats import StatsBundle
from ..sim import units


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (p in [0, 100])."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    rank = (len(data) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    frac = rank - lo
    return data[lo] * (1 - frac) + data[hi] * frac


@dataclass
class WindowStats:
    """The Fig. 10-style transaction counts for one measurement window."""

    start: int
    end: int
    mlc_writebacks: int
    llc_writebacks: int
    dram_reads: int
    dram_writes: int
    mlc_invalidations: int
    pcie_writes: int

    @property
    def duration(self) -> int:
        return self.end - self.start

    def normalized_to(self, baseline: "WindowStats") -> Dict[str, float]:
        """Each statistic divided by the baseline's (Fig. 10 normalization)."""

        def ratio(mine: int, theirs: int) -> float:
            if theirs == 0:
                return 0.0 if mine == 0 else float("inf")
            return mine / theirs

        return {
            "mlc_writebacks": ratio(self.mlc_writebacks, baseline.mlc_writebacks),
            "llc_writebacks": ratio(self.llc_writebacks, baseline.llc_writebacks),
            "dram_reads": ratio(self.dram_reads, baseline.dram_reads),
            "dram_writes": ratio(self.dram_writes, baseline.dram_writes),
        }


def window_stats(stats: StatsBundle, start: int, end: int) -> WindowStats:
    """Collect the transaction counts of a time window from the event logs."""
    count = stats.events.count_between
    return WindowStats(
        start=start,
        end=end,
        mlc_writebacks=count("mlc_writebacks", start, end),
        llc_writebacks=count("llc_writebacks", start, end),
        dram_reads=count("dram_reads", start, end),
        dram_writes=count("dram_writes", start, end),
        mlc_invalidations=count("mlc_invalidations", start, end),
        pcie_writes=count("pcie_writes", start, end),
    )


def burst_processing_time(stats: StatsBundle, completions: Sequence[int]) -> Optional[int]:
    """Start of the DMA phase to the end of the execution phase (Fig. 10).

    The DMA phase begins with the first PCIe write; the execution phase
    ends at the last packet completion.
    """
    writes = stats.events.timestamps("pcie_writes")
    if not writes or not completions:
        return None
    return max(completions) - writes[0]


def timeline_mtps(
    stats: StatsBundle,
    stream: str,
    start: int,
    end: int,
    bin_ticks: int = units.microseconds(10),
) -> List[Tuple[float, float]]:
    """(time_us, MTPS) series at the paper's 10 us sampling interval."""
    return stats.events.mtps_series(stream, bin_ticks, start, end)


def reduction_percent(baseline: float, improved: float) -> float:
    """Percentage reduction of ``improved`` relative to ``baseline``."""
    if baseline == 0:
        return 0.0
    return (baseline - improved) / baseline * 100.0
