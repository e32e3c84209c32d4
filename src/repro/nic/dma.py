"""NIC DMA engine: turns packets into PCIe line transactions.

The engine serializes all transfers over one PCIe link modeled as a
constant-rate server.  Per-packet data transfers are executed as a batch of
full-cacheline memory-write TLPs at the packet's link-completion time; this
keeps event counts proportional to packets while preserving link pacing
(the intra-packet skew of ~100 ns is far below the 10 us sampling interval
used by every figure).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..mem.line import LINE_SIZE, lines_spanning
from ..pcie.root_complex import RootComplex
from ..pcie.tlp import IdioTag
from ..sim import Simulator, units

#: PCIe link bandwidth available to DMA (Gbps).
PCIE_GBPS = 256.0


class DMAEngine:
    """Serial PCIe link server issuing line-granular DMA transactions."""

    def __init__(self, sim: Simulator, root_complex: RootComplex) -> None:
        self.sim = sim
        self.root_complex = root_complex
        self._line_time = units.transfer_time(LINE_SIZE, PCIE_GBPS)
        self._link_free = 0
        self.lines_written = 0
        self.lines_read = 0
        #: Optional PCIe-layer fault injector (``repro.faults``).
        self.faults = None

    def _occupy_link(self, num_lines: int) -> int:
        """Reserve link time for ``num_lines``; returns the completion tick."""
        start = max(self.sim.now, self._link_free)
        finish = start + num_lines * self._line_time
        self._link_free = finish
        return finish

    def write_buffer(
        self,
        buffer_addr: int,
        num_bytes: int,
        tags: Optional[Sequence[IdioTag]] = None,
        on_complete: Optional[Callable[[], None]] = None,
    ) -> int:
        """DMA-write ``num_bytes`` starting at ``buffer_addr``.

        ``tags`` supplies one IDIO tag per line (None = untagged baseline).
        Returns the scheduled completion tick; ``on_complete`` fires there
        after the hierarchy transactions have executed.
        """
        lines = list(lines_spanning(buffer_addr, num_bytes))
        if tags is not None and len(tags) != len(lines):
            raise ValueError(
                f"got {len(tags)} tags for {len(lines)} lines at {buffer_addr:#x}"
            )
        finish = self._occupy_link(len(lines))
        if self.faults is not None:
            stall = self.faults.link_extra_ticks(self.sim.now, len(lines))
            if stall:
                finish += stall
                self._link_free += stall

        def do_writes() -> None:
            # One batched root-complex call per buffer: each line is still
            # an individual memory-write TLP semantically, but the Python
            # per-line overhead (TLP object + header encode/decode) is
            # hoisted out of the loop.
            self.root_complex.memory_write_batch(lines, tags)
            self.lines_written += len(lines)
            if on_complete is not None:
                on_complete()

        self.sim.schedule_at(finish, do_writes, "dma-write")
        return finish

    def read_buffer(
        self,
        buffer_addr: int,
        num_bytes: int,
        on_complete: Optional[Callable[[], None]] = None,
    ) -> int:
        """DMA-read ``num_bytes`` (the TX path); returns the completion tick."""
        lines = list(lines_spanning(buffer_addr, num_bytes))
        finish = self._occupy_link(len(lines))
        if self.faults is not None:
            stall = self.faults.link_extra_ticks(self.sim.now, len(lines))
            if stall:
                finish += stall
                self._link_free += stall

        def do_reads() -> None:
            self.root_complex.memory_read_batch(lines)
            self.lines_read += len(lines)
            if on_complete is not None:
                on_complete()

        self.sim.schedule_at(finish, do_reads, "dma-read")
        return finish
