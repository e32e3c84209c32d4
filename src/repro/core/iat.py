"""An IAT-style dynamic DDIO baseline (paper-related work, cf. [41]).

The paper contrasts IDIO against "dynamic DDIO policies" that only
re-size the LLC's DDIO way partition based on runtime monitoring — its
shortcoming **S1** is precisely that such policies "do not take advantage
of the large MLC".  To make that comparison runnable we implement a
faithful-in-spirit baseline: a controller that reads the LLC-writeback
count (the DMA-leak signal) each interval and widens the DDIO partition
under leak pressure, shrinking it back when the leak subsides so
application data regains LLC capacity.

This is *our* reconstruction of the published idea's control loop, not a
port of any specific artifact; it exists so benchmarks can show where
way-resizing alone runs out of steam (it cannot remove dead-buffer
MLC writebacks, nor use the MLC).
"""

from __future__ import annotations

from typing import List

from ..mem.hierarchy import MemoryHierarchy
from ..sim import PeriodicTask, Simulator, units


class IATController:
    """Dynamic DDIO-way controller driven by LLC-writeback pressure."""

    def __init__(
        self,
        sim: Simulator,
        hierarchy: MemoryHierarchy,
        min_ways: int = 2,
        max_ways: int = 6,
        interval: int = units.microseconds(10),
        grow_threshold: float = 50.0,
        shrink_threshold: float = 5.0,
    ) -> None:
        """``grow_threshold``/``shrink_threshold`` are LLC writebacks per
        interval: above the former the partition grows by one way, below
        the latter it shrinks by one way."""
        if not 0 < min_ways <= max_ways <= hierarchy.llc.config.assoc:
            raise ValueError(
                f"need 0 < min_ways <= max_ways <= {hierarchy.llc.config.assoc}"
            )
        if shrink_threshold > grow_threshold:
            raise ValueError("shrink_threshold must not exceed grow_threshold")
        self.sim = sim
        self.hierarchy = hierarchy
        self.min_ways = min_ways
        self.max_ways = max_ways
        self.grow_threshold = grow_threshold
        self.shrink_threshold = shrink_threshold
        #: The hierarchy's ``llc_writebacks`` counter at the last tick
        #: (``SimulatedServer.start`` resets it before the first).
        self._llc_wb_seen = 0
        self.resizes: List[int] = []
        hierarchy.llc.set_ddio_ways(min_ways)
        self._task = PeriodicTask(sim, interval, self._tick, "iat-control")

    @property
    def current_ways(self) -> int:
        return self.hierarchy.llc.ddio_ways

    def _tick(self) -> None:
        count = self.hierarchy.stats.counters.get("llc_writebacks")
        wb = count - self._llc_wb_seen
        self._llc_wb_seen = count
        current = self.current_ways
        if wb > self.grow_threshold and current < self.max_ways:
            self.hierarchy.llc.set_ddio_ways(current + 1)
            self.resizes.append(current + 1)
        elif wb < self.shrink_threshold and current > self.min_ways:
            self.hierarchy.llc.set_ddio_ways(current - 1)
            self.resizes.append(current - 1)

    def stop(self) -> None:
        self._task.stop()
