"""DPDK-style software stack: the polling-mode driver loop.

:class:`PollModeDriver` runs one network function on one core against one
NIC RX queue, with DPDK's semantics:

* busy-poll the descriptor at the CPU pointer (a real memory read — the
  poll misses to the LLC right after the NIC's descriptor writeback
  invalidates the core's copy);
* consume up to ``batch_size`` (default 32) visible packets per poll;
* process packets run-to-completion, in place;
* after the batch, move the NIC tail — i.e. free the descriptors — and,
  when self-invalidating buffers are enabled (IDIO M1), issue the
  invalidate-without-writeback instruction over each consumed buffer
  right after it is consumed.

For L2Fwd the buffer is *consumed* only when the NIC's TX reads complete,
so freeing and self-invalidation happen in the TX completion callback
(Fig. 3 right).

:class:`AntagonistDriver` runs the LLCAntagonist loop on its own core.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..mem.line import LINE_SIZE
from ..nic.descriptor import DESCRIPTOR_BYTES, RxDescriptor
from ..nic.nic import NIC, NicQueue
from ..obs.events import PmdBatchEvent
from ..sim import Simulator
from ..sim import units
from .apps import MEM_OVERLAP, LLCAntagonist, NetworkFunction
from .core import Core
from .maintenance import MaintenanceUnit


#: Buffer recycling modes of §II-B.
RECYCLE_RUN_TO_COMPLETION = "run_to_completion"  # M3: process in place
RECYCLE_COPY = "copy"  # M1: copy out, recycle the ring slot immediately
RECYCLE_REALLOCATE = "reallocate"  # M2: swap in a fresh pool buffer, stash

RECYCLE_MODES = (RECYCLE_RUN_TO_COMPLETION, RECYCLE_COPY, RECYCLE_REALLOCATE)


class PollModeDriver:
    """The DPDK PMD loop binding (core, queue, network function).

    ``recycle_mode`` selects one of the paper's three buffer recycling
    models (§II-B):

    * **run_to_completion** (default, DPDK-style): the packet is processed
      in place inside the DMA buffer, which is freed — and, under IDIO,
      self-invalidated — only after application processing completes;
    * **copy** (Linux-stack-style): each packet is first copied into
      application memory (``copy_pool``), the DMA buffer is recycled (and
      is dead — invalidatable — right after the copy), and processing runs
      on the copy;
    * **reallocate**: the filled DMA buffer is stashed and the ring slot
      is replenished with a fresh buffer from ``buffer_pool``; the stash
      is processed after the batch, then returned to the pool.
    """

    #: Copy-loop cost per cacheline (memcpy work, on top of memory ops).
    COPY_CYCLES_PER_LINE = 6.0
    #: Ring-replenish cost per packet in re-allocate mode (pointer swap,
    #: mempool get/put bookkeeping).
    REPLENISH_CYCLES = 40.0

    def __init__(
        self,
        sim: Simulator,
        core: Core,
        nic: NIC,
        queue: NicQueue,
        app: NetworkFunction,
        maintenance: Optional[MaintenanceUnit] = None,
        batch_size: int = 32,
        self_invalidate: bool = False,
        poll_overhead_cycles: float = 60.0,
        idle_poll_interval: int = units.nanoseconds(200),
        recycle_mode: str = RECYCLE_RUN_TO_COMPLETION,
        buffer_pool: Optional["BufferPool"] = None,
        copy_pool: Optional[List[int]] = None,
    ) -> None:
        if self_invalidate and maintenance is None:
            raise ValueError("self_invalidate requires a MaintenanceUnit")
        if recycle_mode not in RECYCLE_MODES:
            raise ValueError(
                f"unknown recycle mode {recycle_mode!r}; choose from {RECYCLE_MODES}"
            )
        if recycle_mode == RECYCLE_REALLOCATE and buffer_pool is None:
            raise ValueError("reallocate mode requires a buffer_pool")
        if recycle_mode == RECYCLE_COPY and not copy_pool:
            raise ValueError("copy mode requires copy_pool addresses")
        if app.transmits and recycle_mode != RECYCLE_RUN_TO_COMPLETION:
            raise ValueError(
                "zero-copy transmitting apps require run_to_completion recycling"
            )
        self.sim = sim
        self.core = core
        self.nic = nic
        self.queue = queue
        self.app = app
        self.maintenance = maintenance
        self.batch_size = batch_size
        self.self_invalidate = self_invalidate
        self.poll_overhead_cycles = poll_overhead_cycles
        # Simulation granularity knob: an idle PMD re-polls at this period
        # instead of back-to-back.  Detection lag stays two orders of
        # magnitude below the ~1.9 us descriptor-writeback delay.
        self.idle_poll_interval = idle_poll_interval
        self.recycle_mode = recycle_mode
        self.buffer_pool = buffer_pool
        self._copy_addrs = list(copy_pool or [])
        self._copy_cursor = 0
        #: (packet, buffer_addr) pairs awaiting deferred processing
        #: (re-allocate mode).
        self._stash: List = []
        self.completed_packets: List = []
        self.batches = 0
        self._stopped = False
        #: Optional CPU-layer fault injector (``repro.faults``): PMD stall
        #: windows emulating scheduler preemption.  ``None`` keeps the
        #: poll loop on its zero-cost fast path.
        self.faults = None
        # Live subscriber list for batch-pickup events (trace recorders);
        # the event object is only built when somebody listens.
        self._batch_subs = core.hierarchy.bus.live(PmdBatchEvent)

    # -- lifecycle --------------------------------------------------------

    def init_ring(self) -> None:
        """Initialize the descriptor ring, as rte_eth_rx_queue_setup does.

        The driver writes every line of every descriptor once, in ring
        order, so descriptors are warm in the hierarchy before traffic
        starts (no cold DRAM misses on the first poll of each slot).  The
        stores take one :meth:`~repro.mem.hierarchy.MemoryHierarchy.store_lines`
        pass; no latency is charged, as warm-up runs before any statistic
        counts.
        """
        span = range(0, DESCRIPTOR_BYTES, LINE_SIZE)
        self.core.hierarchy.store_lines(
            self.core.core_id,
            (desc.desc_addr + off for desc in self.queue.ring.descriptors for off in span),
            self.sim.now,
        )

    def start(self, at: Optional[int] = None) -> None:
        """Begin polling at ``at`` (defaults to now)."""
        t = self.sim.now if at is None else at
        self.sim.schedule_at(t, self._poll, f"pmd-poll-c{self.core.core_id}")

    def stop(self) -> None:
        self._stopped = True

    # -- the PMD loop --------------------------------------------------------

    def _poll(self) -> None:
        if self._stopped:
            return
        faults = self.faults
        if faults is not None:
            # A stalled PMD is scheduled out for the whole fault window:
            # no polls, no batches — the ring backs up exactly as it would
            # under real preemption (§II's software-stack pathologies).
            resume = faults.stall_until(self.sim.now, self.core.core_id)
            if resume > self.sim.now:
                self.sim.schedule_at(resume, self._poll, "pmd-stalled")
                return
        ring = self.queue.ring
        # Poll = read the descriptor at the CPU pointer.  The NIC's
        # descriptor writeback invalidated our cached copy, so packet
        # detection pays a real coherence round trip.
        desc_addr = ring.descriptors[ring.cpu_ptr].desc_addr
        latency = self.core.mem_read(desc_addr)
        latency += self.core.compute(self.poll_overhead_cycles)

        batch: List[RxDescriptor] = []
        while len(batch) < self.batch_size:
            desc = ring.pop_ready()
            if desc is None:
                break
            batch.append(desc)

        if not batch:
            self.sim.schedule_after(
                max(latency, self.idle_poll_interval), self._poll, "pmd-idle"
            )
            return

        self.batches += 1
        subs = self._batch_subs
        if subs:
            event = PmdBatchEvent(self.core.core_id, len(batch), self.sim.now)
            for fn in subs:
                fn(event)
        self.sim.schedule_after(
            max(latency, 1), lambda: self._process(batch, 0), "pmd-batch"
        )

    def _process(self, batch: List[RxDescriptor], idx: int) -> None:
        if idx >= len(batch):
            if self._stash:
                # Re-allocate mode: process the stashed packets now that
                # the ring has been replenished.
                stash, self._stash = self._stash, []
                self._process_stash(stash, 0)
            else:
                self._finish_batch(batch)
            return
        desc = batch[idx]
        packet = desc.packet
        assert packet is not None
        packet.service_start_time = self.sim.now
        # Read the remaining descriptor lines (metadata/mbuf fields).
        latency = 0
        if DESCRIPTOR_BYTES > LINE_SIZE:
            latency += self.core.mem_read(desc.desc_addr + LINE_SIZE)

        if self.recycle_mode == RECYCLE_COPY:
            self._process_copy(batch, idx, desc, packet, latency)
            return
        if self.recycle_mode == RECYCLE_REALLOCATE:
            self._process_reallocate(batch, idx, desc, packet, latency)
            return

        latency += self.app.process(self.core, packet)

        if self.app.transmits:
            # Zero-copy forward: descriptor recycles on TX completion.
            tx_engine = self.nic.tx_engines.get(self.core.core_id)
            if tx_engine is not None and tx_engine.ring.free_slots() > 0:
                # Posting writes the TX descriptor (a real store the NIC
                # will read back over PCIe) plus doorbell overhead.
                slot = tx_engine.ring.descriptors[tx_engine.ring.driver_tail]
                latency += self.core.mem_write(slot.desc_addr)
                latency += self.core.compute(self.poll_overhead_cycles)

            def after_processing() -> None:
                packet.completion_time = self.sim.now
                self.completed_packets.append(packet)
                self.nic.transmit(
                    desc.buffer_addr,
                    packet.size_bytes,
                    on_complete=lambda: self._tx_done(desc, packet),
                    core=self.core.core_id,
                )
                self._process(batch, idx + 1)

            self.sim.schedule_after(max(latency, 1), after_processing, "pmd-proc")
            return

        # Run-to-completion consume: the buffer is dead right here.
        if self.self_invalidate:
            assert self.maintenance is not None
            latency += self.maintenance.invalidate_range(
                desc.buffer_addr, packet.size_bytes, self.sim.now
            )

        def done() -> None:
            packet.completion_time = self.sim.now
            self.completed_packets.append(packet)
            self.queue.ring.free(desc)
            self._process(batch, idx + 1)

        self.sim.schedule_after(max(latency, 1), done, "pmd-proc")

    # -- copy recycling mode (§II-B M1) ------------------------------------

    def _process_copy(self, batch, idx, desc, packet, latency: int) -> None:
        """Copy the packet out, recycle the slot, process the copy."""
        from ..mem.line import lines_spanning

        copy_addr = self._copy_addrs[self._copy_cursor % len(self._copy_addrs)]
        self._copy_cursor += 1
        dma_lines = list(lines_spanning(desc.buffer_addr, packet.size_bytes))
        for i, addr in enumerate(dma_lines):
            # memcpy loop: streaming read of the DMA line, streaming write
            # of the application-space destination line.
            latency += int(self.core.mem_read(addr) / MEM_OVERLAP)
            latency += int(self.core.mem_write(copy_addr + i * LINE_SIZE) / MEM_OVERLAP)
            latency += self.core.compute(self.COPY_CYCLES_PER_LINE)

        # The DMA buffer is dead right after the first touch (the copy).
        if self.self_invalidate:
            assert self.maintenance is not None
            latency += self.maintenance.invalidate_range(
                desc.buffer_addr, packet.size_bytes, self.sim.now
            )
        self.queue.ring.free(desc)

        # Process the application-space copy.
        original_addr = packet.buffer_addr
        packet.buffer_addr = copy_addr
        latency += self.app.process(self.core, packet)
        packet.buffer_addr = original_addr

        def done() -> None:
            packet.completion_time = self.sim.now
            self.completed_packets.append(packet)
            self._process(batch, idx + 1)

        self.sim.schedule_after(max(latency, 1), done, "pmd-copy")

    # -- re-allocate recycling mode (§II-B M2) -----------------------------

    def _process_reallocate(self, batch, idx, desc, packet, latency: int) -> None:
        """Swap in a fresh pool buffer, stash the filled one for later."""
        assert self.buffer_pool is not None
        filled = desc.buffer_addr
        replacement = self.buffer_pool.alloc()
        # Update the descriptor's buffer pointer (a real store) and
        # replenish the ring so the NIC can keep receiving.
        desc.buffer_addr = replacement
        latency += self.core.mem_write(desc.desc_addr)
        latency += self.core.compute(self.REPLENISH_CYCLES)
        self._stash.append((packet, filled))
        self.queue.ring.free(desc)
        self.sim.schedule_after(
            max(latency, 1), lambda: self._process(batch, idx + 1), "pmd-realloc"
        )

    def _process_stash(self, stash, idx: int) -> None:
        """Deferred processing of stashed (re-allocated) buffers."""
        if idx >= len(stash):
            self._finish_batch([])
            return
        packet, buffer_addr = stash[idx]
        packet.buffer_addr = buffer_addr
        latency = self.app.process(self.core, packet)
        if self.self_invalidate:
            assert self.maintenance is not None
            latency += self.maintenance.invalidate_range(
                buffer_addr, packet.size_bytes, self.sim.now
            )

        def done() -> None:
            packet.completion_time = self.sim.now
            self.completed_packets.append(packet)
            assert self.buffer_pool is not None
            self.buffer_pool.free(buffer_addr)
            self._process_stash(stash, idx + 1)

        self.sim.schedule_after(max(latency, 1), done, "pmd-stash")

    def _tx_done(self, desc: RxDescriptor, packet) -> None:
        """TX reads finished: the L2Fwd buffer is now consumed (dead)."""
        if self.self_invalidate:
            assert self.maintenance is not None
            # Issued by the TX-completion handling in the driver; the
            # instruction cost is charged implicitly (it overlaps polling).
            self.maintenance.invalidate_range(
                desc.buffer_addr, packet.size_bytes, self.sim.now
            )
        self.queue.ring.free(desc)

    def _finish_batch(self, batch: List[RxDescriptor]) -> None:
        # NIC tail already advanced by per-packet frees (non-TX apps); TX
        # descriptors free asynchronously.  Loop straight into re-polling:
        # DPDK's run-to-completion loop never sleeps.
        self.sim.schedule_after(1, self._poll, "pmd-next")


class AntagonistDriver:
    """Drives the LLCAntagonist loop: chunks of random reads, forever."""

    def __init__(
        self,
        sim: Simulator,
        core: Core,
        app: LLCAntagonist,
    ) -> None:
        self.sim = sim
        self.core = core
        self.app = app
        self._rng = random.Random(app.seed)
        self._stopped = False
        self.iterations = 0
        #: (time, cumulative accesses, cumulative memory ticks) samples,
        #: one per iteration — lets the harness compute the average access
        #: latency over an arbitrary window (the paper's CPI comparison is
        #: over the burst-processing window, not the whole run).
        self.samples: List[Tuple[int, int, int]] = []

    def warmup(self) -> None:
        """Initialize (touch) the whole buffer, as the paper does (§VI).

        Every line is stored once, in address order, in one
        :meth:`~repro.mem.hierarchy.MemoryHierarchy.store_lines` pass at
        the current time; the hierarchy ends as one demand store per line
        would leave it.  In a sweep, later cells with the same warm-up
        restore the hierarchy this left from a
        :class:`~repro.harness.server.WarmCheckpoint` instead (see
        :meth:`~repro.harness.server.SimulatedServer.start`).
        """
        base = self.app.buffer_base
        self.core.hierarchy.store_lines(
            self.core.core_id,
            range(base, base + self.app.num_lines() * LINE_SIZE, LINE_SIZE),
            self.sim.now,
        )

    def start(self, at: Optional[int] = None) -> None:
        t = self.sim.now if at is None else at
        self.sim.schedule_at(t, self._iterate, f"antagonist-c{self.core.core_id}")

    def stop(self) -> None:
        self._stopped = True

    def access_ns_between(self, start: int, end: int) -> Optional[float]:
        """Average memory-access latency (ns) inside ``[start, end]``.

        Computed from the per-iteration samples; returns ``None`` when the
        antagonist did not run long enough inside the window.
        """
        inside = [s for s in self.samples if start <= s[0] <= end]
        if len(inside) < 2:
            return None
        t0, acc0, ticks0 = inside[0]
        t1, acc1, ticks1 = inside[-1]
        if acc1 <= acc0:
            return None
        return (ticks1 - ticks0) / (acc1 - acc0) / units.NANOSECOND

    def _iterate(self) -> None:
        if self._stopped:
            return
        app = self.app
        core = self.core
        latency = 0
        n_lines = app.num_lines()
        base = app.buffer_base
        randrange = self._rng.randrange
        mem_read = core.mem_read
        # Constant per-access compute cost: convert once, account once.
        compute_ticks = units.cycles(app.compute_cycles_per_access)
        n = app.accesses_per_iteration
        for _ in range(n):
            latency += mem_read(base + randrange(n_lines) * LINE_SIZE) + compute_ticks
        core.stats.compute_ticks += compute_ticks * n
        app.accesses_done += n
        self.iterations += 1
        self.samples.append(
            (self.sim.now, self.app.accesses_done, self.core.stats.mem_ticks)
        )
        self.sim.schedule_after(max(latency, 1), self._iterate, "antagonist-iter")
