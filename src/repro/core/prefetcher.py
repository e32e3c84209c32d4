"""The queued MLC prefetcher (§V-C).

Each MLC controller implements a simple FIFO of prefetch hints received
from the IDIO controller.  The prefetcher drains one hint per service
interval, issuing a prefetch request to the LLC which moves (non-inclusive)
or copies (inclusive) the line into the MLC.  When the queue is full,
incoming hints are dropped — the paper's "simple queued prefetcher" makes
no attempt to backpressure the controller.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from ..mem.hierarchy import MemoryHierarchy
from ..mem.transaction import PREFETCH_FILL, MemoryTransaction
from ..sim import Simulator, units

#: MLC prefetcher queue depth (§V-C: 32 requests).
PREFETCH_QUEUE_DEPTH = 32
#: Prefetcher service time per line (LLC->MLC move issue rate).  At
#: ~6 ns/line the prefetcher sustains ~166 lines/us — enough to cover a
#: 25 Gbps burst (~50 lines/us) but below the 100 Gbps DMA rate, bounding
#: how fast steering can flood an MLC.
PREFETCH_SERVICE_TIME = units.nanoseconds(6)
#: Ring slots the regulated prefetcher may run ahead of the consumer.
PREFETCH_MAX_AHEAD = 64


class MLCPrefetcher:
    """Per-core queued prefetcher fed by IDIO prefetch hints."""

    def __init__(
        self,
        sim: Simulator,
        hierarchy: MemoryHierarchy,
        core: int,
        queue_depth: int = PREFETCH_QUEUE_DEPTH,
        service_time: int = PREFETCH_SERVICE_TIME,
    ) -> None:
        if queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        self.sim = sim
        self.hierarchy = hierarchy
        self.core = core
        self.queue_depth = queue_depth
        self.service_time = service_time
        self._queue: Deque[int] = deque()
        self._draining = False
        self.hints_received = 0
        self.hints_dropped = 0
        self.prefetches_issued = 0
        self.prefetches_useful = 0

    def __len__(self) -> int:
        return len(self._queue)

    def hint(self, addr: int) -> bool:
        """Enqueue a prefetch hint; returns False when the queue is full."""
        self.hints_received += 1
        if len(self._queue) >= self.queue_depth:
            self.hints_dropped += 1
            return False
        self._queue.append(addr)
        if not self._draining:
            self._draining = True
            self.sim.schedule_after(
                self.service_time, self._drain, f"mlc-prefetch-c{self.core}"
            )
        return True

    def _drain(self) -> None:
        if not self._queue:
            self._draining = False
            return
        addr = self._queue.popleft()
        self.prefetches_issued += 1
        txn = self.hierarchy.access(
            MemoryTransaction(PREFETCH_FILL, addr, self.sim.now, core=self.core)
        )
        if txn.level != "dropped":
            self.prefetches_useful += 1
        if self._queue:
            self.sim.schedule_after(self.service_time, self._drain, "mlc-prefetch")
        else:
            self._draining = False


class RegulatedMLCPrefetcher(MLCPrefetcher):
    """CPU-pointer-following prefetcher — the paper's §VII future work.

    The paper notes that "a more sophisticated prefetcher that follows the
    CPU pointer in the ring buffer to regulate the MLC prefetching rate
    will likely provide more benefit".  Instead of queueing one hint per
    DMA line (which floods the MLC at 100 Gbps and must be throttled by
    the FSM), this variant *pulls*: hints for ring-buffer addresses merely
    arm a pump that walks the ring from the CPU pointer forward,
    prefetching the lines of DMA-complete packets at most
    ``max_ahead_packets`` slots ahead of the consumer.  The MLC therefore
    only ever holds data the core is about to touch, at any burst rate.

    Hints for addresses outside the tracked ring region (descriptor
    writebacks) use the plain queued path of the base class.
    """

    def __init__(
        self,
        sim: Simulator,
        hierarchy: MemoryHierarchy,
        core: int,
        queue_depth: int = PREFETCH_QUEUE_DEPTH,
        service_time: int = PREFETCH_SERVICE_TIME,
        max_ahead_packets: int = PREFETCH_MAX_AHEAD,
    ) -> None:
        super().__init__(sim, hierarchy, core, queue_depth, service_time)
        self.max_ahead_packets = max_ahead_packets
        self._ring = None
        self._buffer_base = 0
        self._buffer_stride = 1
        self._lines_per_buffer = 1
        self._pumping = False
        self._cursor_slot = 0
        self._cursor_line = 0
        #: Pump wake-ups that found nothing eligible (diagnostics).
        self.pump_idle_ticks = 0

    def attach_ring(
        self, ring, buffer_base: int, buffer_stride: int, lines_per_buffer: int = 24
    ) -> None:
        """Bind the ring whose CPU pointer regulates this prefetcher."""
        if buffer_stride <= 0 or lines_per_buffer <= 0:
            raise ValueError("stride and lines_per_buffer must be positive")
        self._ring = ring
        self._buffer_base = buffer_base
        self._buffer_stride = buffer_stride
        self._lines_per_buffer = lines_per_buffer
        self._cursor_slot = ring.cpu_ptr

    def _in_ring_region(self, addr: int) -> bool:
        if self._ring is None:
            return False
        offset = addr - self._buffer_base
        return 0 <= offset < self._ring.size * self._buffer_stride

    def hint(self, addr: int) -> bool:
        if not self._in_ring_region(addr):
            return super().hint(addr)
        # Ring-data hint: arm the pump instead of queueing the address.
        self.hints_received += 1
        if not self._pumping:
            self._pumping = True
            self.sim.schedule_after(
                self.service_time, self._pump, f"mlc-pump-c{self.core}"
            )
        return True

    def _cursor_distance(self) -> int:
        assert self._ring is not None
        return (self._cursor_slot - self._ring.cpu_ptr) % self._ring.size

    def _pump(self) -> None:
        """Prefetch one line near the CPU pointer, then reschedule."""
        ring = self._ring
        assert ring is not None
        # The consumer may have passed (or lapped) the cursor.
        if self._cursor_distance() > self.max_ahead_packets:
            self._cursor_slot = ring.cpu_ptr
            self._cursor_line = 0

        desc = ring.descriptors[self._cursor_slot]
        eligible = (
            desc.packet is not None
            and desc.done
            and self._cursor_distance() <= self.max_ahead_packets
        )
        if not eligible:
            self.pump_idle_ticks += 1
            if ring.occupancy() == 0:
                # Ring drained: disarm until the next burst's hint.
                self._pumping = False
                return
            self.sim.schedule_after(self.service_time, self._pump, "mlc-pump")
            return

        packet = desc.packet
        lines = min(self._lines_per_buffer, packet.num_lines)
        addr = desc.buffer_addr + self._cursor_line * 64
        self.prefetches_issued += 1
        txn = self.hierarchy.access(
            MemoryTransaction(PREFETCH_FILL, addr, self.sim.now, core=self.core)
        )
        if txn.level != "dropped":
            self.prefetches_useful += 1
        self._cursor_line += 1
        if self._cursor_line >= lines:
            self._cursor_line = 0
            self._cursor_slot = (self._cursor_slot + 1) % ring.size
        self.sim.schedule_after(self.service_time, self._pump, "mlc-pump")
