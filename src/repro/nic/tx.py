"""TX descriptor rings and the NIC's transmit engine.

The egress path is more than the payload reads of Fig. 1: the driver
writes a TX descriptor (a store to shared memory), rings a doorbell (an
MMIO write the NIC observes after a posting delay), and the NIC then

1. fetches the descriptor with a PCIe read (which, like any device read,
   pulls MLC-resident descriptor lines back to the LLC),
2. reads the packet buffer's lines over PCIe (invalidating MLC copies —
   the Fig. 3 right behavior),
3. writes a completion back into the descriptor so the driver can free
   the buffer.

All three steps go through the same root complex as RX, so TX traffic
competes for the PCIe link and interacts with DDIO exactly as inbound
traffic does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..sim import Simulator, units
from .descriptor import DESCRIPTOR_BYTES
from .dma import DMAEngine


class TxRingFullError(RuntimeError):
    """Raised when the driver posts to a full TX ring."""


@dataclass
class TxDescriptor:
    """One TX descriptor slot."""

    index: int
    desc_addr: int
    buffer_addr: int = 0
    length: int = 0
    posted: bool = False
    done: bool = False
    on_complete: Optional[Callable[[], None]] = None


class TxRing:
    """A circular TX descriptor ring (driver tail, NIC head)."""

    def __init__(self, size: int, desc_base: int) -> None:
        if size <= 0:
            raise ValueError(f"ring size must be positive, got {size}")
        self.size = size
        self.descriptors = [
            TxDescriptor(index=i, desc_addr=desc_base + i * DESCRIPTOR_BYTES)
            for i in range(size)
        ]
        self.driver_tail = 0  # next slot the driver posts
        self.nic_head = 0  # next slot the NIC transmits
        self._in_flight = 0

    def free_slots(self) -> int:
        return self.size - self._in_flight

    def post(
        self,
        buffer_addr: int,
        length: int,
        on_complete: Optional[Callable[[], None]] = None,
    ) -> TxDescriptor:
        """Driver posts one packet for transmission."""
        if self._in_flight >= self.size:
            raise TxRingFullError(f"TX ring full ({self.size} slots)")
        desc = self.descriptors[self.driver_tail]
        desc.buffer_addr = buffer_addr
        desc.length = length
        desc.posted = True
        desc.done = False
        desc.on_complete = on_complete
        self.driver_tail = (self.driver_tail + 1) % self.size
        self._in_flight += 1
        return desc

    def next_posted(self) -> Optional[TxDescriptor]:
        """The descriptor at the NIC head, if the driver has posted it."""
        desc = self.descriptors[self.nic_head]
        return desc if desc.posted and not desc.done else None

    def complete(self, desc: TxDescriptor) -> None:
        """NIC marks the transmit done and advances its head."""
        if not desc.posted:
            raise ValueError(f"descriptor {desc.index} was never posted")
        desc.done = True
        desc.posted = False
        self.nic_head = (desc.index + 1) % self.size
        self._in_flight -= 1


class TxEngine:
    """Processes one TX ring: descriptor fetch, buffer reads, completion.

    The doorbell is modeled as a posted MMIO write: the engine notices new
    work ``doorbell_delay`` after the driver rings it.
    """

    def __init__(
        self,
        sim: Simulator,
        dma: DMAEngine,
        ring: TxRing,
        doorbell_delay: int = units.nanoseconds(300),
    ) -> None:
        self.sim = sim
        self.dma = dma
        self.ring = ring
        self.doorbell_delay = doorbell_delay
        self._running = False
        self.packets_sent = 0
        self.bytes_sent = 0

    def doorbell(self) -> None:
        """Driver MMIO write: schedule the engine if it is idle."""
        if self._running:
            return
        self._running = True
        self.sim.schedule_after(self.doorbell_delay, self._work, "tx-doorbell")

    def _work(self) -> None:
        desc = self.ring.next_posted()
        if desc is None:
            self._running = False
            return

        def after_desc_fetch() -> None:
            # Descriptor fetched; now read the packet data.
            self.dma.read_buffer(
                desc.buffer_addr, desc.length, on_complete=lambda: self._done(desc)
            )

        # Step 1: PCIe read of the descriptor itself.
        self.dma.read_buffer(
            desc.desc_addr, DESCRIPTOR_BYTES, on_complete=after_desc_fetch
        )

    def _done(self, desc: TxDescriptor) -> None:
        # Step 3: completion writeback into the descriptor.
        def after_completion() -> None:
            self.ring.complete(desc)
            self.packets_sent += 1
            self.bytes_sent += desc.length
            # The slot is free again: drop its closure, which holds the
            # driver that posted it.
            on_complete, desc.on_complete = desc.on_complete, None
            if on_complete is not None:
                on_complete()
            self._work()  # continue with the next posted descriptor

        self.dma.write_buffer(
            desc.desc_addr, DESCRIPTOR_BYTES, on_complete=after_completion
        )
