"""The NIC model: RX queues, DMA scheduling, descriptor writeback, TX.

RX path (per packet):

1. the load generator delivers the packet at wire-arrival time;
2. Flow Director steers it to its queue/core; the (optional) IDIO
   classifier accounts it against the per-core burst counter;
3. a descriptor is claimed — or the packet is *dropped* if the ring is
   full (the paper's drop condition, §VI);
4. after an RX pipeline delay the DMA engine writes the buffer's lines
   (with per-line IDIO tags when the classifier is enabled);
5. the descriptor writeback follows ``DESCRIPTOR_WRITEBACK_DELAY`` later —
   only then can the polling driver see the packet.  The paper measures
   this data-DMA-to-visibility lag at ~1.9 us (§VII).

TX path (``transmit``): PCIe reads of the buffer lines, which pull
MLC-resident lines back into the LLC (Fig. 3 right).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..net.packet import Packet
from ..pcie.tlp import IdioTag
from ..sim import Simulator, units
from .classifier import ClassifierConfig, IdioClassifier
from .descriptor import (
    BUFFER_STRIDE,
    DESCRIPTOR_BYTES,
    DescriptorRing,
    RingFullError,
    RxDescriptor,
)
from .dma import DMAEngine
from .flow_director import FlowDirector
from .tx import TxEngine, TxRing


#: NIC-internal latency from wire arrival to first DMA transaction.
RX_PIPELINE_DELAY = units.nanoseconds(300)
#: Data-DMA-completion to descriptor-writeback lag.  Tuned so that the
#: first-DMA-to-PMD-visibility delay is ~1.9 us as observed in Fig. 9.
DESCRIPTOR_WRITEBACK_DELAY = units.nanoseconds(1700)


class NicQueue:
    """One RX queue: a descriptor ring pinned to a core (ADQ-style)."""

    def __init__(self, queue_id: int, core: int, ring: DescriptorRing) -> None:
        self.queue_id = queue_id
        self.core = core
        self.ring = ring
        self.rx_packets = 0
        self.rx_drops = 0


class NIC:
    """A multi-queue NIC with Flow Director steering and DMA to the host.

    ``ring_size`` is the slots per queue (DPDK default 1024, swept in
    Fig. 4).  A ``classifier`` config enables the IDIO classifier
    (per-line tags + burst detection); ``None`` leaves DMA untagged.
    """

    def __init__(
        self,
        sim: Simulator,
        dma: DMAEngine,
        ring_size: int = 1024,
        classifier: Optional[ClassifierConfig] = None,
    ) -> None:
        self.sim = sim
        self.dma = dma
        self.ring_size = ring_size
        self.flow_director = FlowDirector()
        self.queues: Dict[int, NicQueue] = {}
        self._core_to_queue: Dict[int, NicQueue] = {}
        #: Optional per-core TX rings (full egress path with descriptor
        #: fetch / completion writeback); ``transmit`` falls back to plain
        #: buffer reads for cores without one.
        self.tx_engines: Dict[int, TxEngine] = {}
        self.classifier: Optional[IdioClassifier] = None
        if classifier is not None:
            self.classifier = IdioClassifier(sim, classifier)
        #: Observers notified of every accepted RX packet (instrumentation).
        self.rx_observers: List[Callable[[Packet, int], None]] = []
        self.total_rx = 0
        self.total_drops = 0
        self.total_tx = 0
        #: Optional NIC-layer fault injector (``repro.faults``); ``None``
        #: keeps the RX path on its zero-cost fast path.
        self.faults = None

    # -- setup ----------------------------------------------------------

    def add_queue(
        self, queue_id: int, core: int, desc_base: int, buffer_base: int
    ) -> NicQueue:
        """Create a queue pinned to ``core`` with its ring memory regions."""
        if queue_id in self.queues:
            raise ValueError(f"queue {queue_id} already exists")
        ring = DescriptorRing(
            size=self.ring_size,
            desc_base=desc_base,
            buffer_base=buffer_base,
            buffer_stride=BUFFER_STRIDE,
        )
        queue = NicQueue(queue_id, core, ring)
        self.queues[queue_id] = queue
        self._core_to_queue[core] = queue
        return queue

    def add_tx_queue(self, core: int, desc_base: int) -> TxEngine:
        """Create a TX descriptor ring + engine pinned to ``core``."""
        if core in self.tx_engines:
            raise ValueError(f"core {core} already has a TX queue")
        ring = TxRing(self.ring_size, desc_base)
        engine = TxEngine(self.sim, self.dma, ring)
        self.tx_engines[core] = engine
        return engine

    # -- RX path ----------------------------------------------------------

    def receive(self, packet: Packet) -> bool:
        """Wire arrival of ``packet``; returns False when it is dropped."""
        core = self.flow_director.lookup(packet.flow)
        queue = self._core_to_queue.get(core)
        if queue is None:
            raise ValueError(f"no queue pinned to core {core} for {packet.flow}")

        faults = self.faults
        if faults is not None and (
            faults.drop_rx(self.sim.now)
            or faults.backpressure_drop(queue.ring.free_slots(), self.sim.now)
        ):
            queue.rx_drops += 1
            self.total_drops += 1
            return False

        burst_active = False
        if self.classifier is not None:
            burst_active = self.classifier.observe_packet(packet, core)

        try:
            desc = queue.ring.claim(packet)
        except RingFullError:
            queue.rx_drops += 1
            self.total_drops += 1
            return False
        queue.rx_packets += 1
        self.total_rx += 1

        tags: Optional[List[IdioTag]] = None
        if self.classifier is not None:
            tags = [
                self.classifier.tag_for_line(packet, core, i, burst_active)
                for i in range(packet.num_lines)
            ]

        def start_dma() -> None:
            self.dma.write_buffer(
                desc.buffer_addr,
                packet.size_bytes,
                tags=tags,
                on_complete=lambda: self._writeback_descriptor(queue, desc),
            )

        self.sim.schedule_after(RX_PIPELINE_DELAY, start_dma, "nic-rx")
        for observer in self.rx_observers:
            observer(packet, core)
        return True

    def _writeback_descriptor(self, queue: NicQueue, desc: RxDescriptor) -> None:
        """Write the used descriptor back to the host after the data DMA."""
        tags: Optional[List[IdioTag]] = None
        if self.classifier is not None:
            # Descriptors are polled immediately: treat them as header-class
            # transactions so IDIO restores the polled line into the MLC.
            n_lines = -(-DESCRIPTOR_BYTES // 64)
            tags = [
                IdioTag(dest_core=queue.core, app_class=0, is_header=True)
                for _ in range(n_lines)
            ]

        def do_writeback() -> None:
            self.dma.write_buffer(
                desc.desc_addr,
                DESCRIPTOR_BYTES,
                tags=tags,
                on_complete=lambda: queue.ring.complete(desc),
            )

        delay = DESCRIPTOR_WRITEBACK_DELAY
        if self.faults is not None:
            delay += self.faults.wb_extra_ticks(self.sim.now)
        self.sim.schedule_after(delay, do_writeback, "desc-wb")

    # -- TX path ----------------------------------------------------------

    def transmit(
        self,
        buffer_addr: int,
        num_bytes: int,
        on_complete: Optional[Callable[[], None]] = None,
        core: Optional[int] = None,
    ) -> None:
        """Egress DMA (zero-copy forward).

        If ``core`` has a TX ring, the full egress path runs: descriptor
        post + doorbell, NIC descriptor fetch, payload reads, completion
        writeback.  Otherwise the payload is read directly (the simple
        model used before TX rings existed and by tests that don't care
        about egress detail).
        """
        from .tx import TxRingFullError

        self.total_tx += 1
        engine = self.tx_engines.get(core) if core is not None else None
        if engine is not None:
            try:
                engine.ring.post(buffer_addr, num_bytes, on_complete=on_complete)
            except TxRingFullError:
                pass  # fall through to the direct read path
            else:
                engine.doorbell()
                return

        def done() -> None:
            if on_complete is not None:
                on_complete()

        self.dma.read_buffer(buffer_addr, num_bytes, on_complete=done)

    # -- teardown -----------------------------------------------------------

    def stop(self) -> None:
        if self.classifier is not None:
            self.classifier.stop()
