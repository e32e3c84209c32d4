"""RX descriptor rings.

The ring is the NIC/CPU shared structure of Fig. 3: 128-byte descriptors,
each pointing at an MTU-sized DMA buffer.  Three pointers chase each other
around the ring:

* **NIC head** — next descriptor the NIC will fill with an arriving packet;
* **CPU pointer** — next descriptor the polling driver will consume;
* **NIC tail** — one past the last descriptor returned to the NIC (freed).

The *use distance* the paper reasons about is the NIC-head-to-CPU-pointer
gap; :meth:`DescriptorRing.use_distance` exposes it for instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..net.packet import Packet

#: Descriptor size in bytes (§III Observation 1).
DESCRIPTOR_BYTES = 128

#: DMA buffer stride: MTU-sized buffers are 2 KB-aligned (§IV-A).
BUFFER_STRIDE = 2048


@dataclass
class RxDescriptor:
    """One RX descriptor slot."""

    index: int
    #: Byte address of this descriptor in the ring's memory region.
    desc_addr: int
    #: Byte address of the DMA buffer this slot points at.
    buffer_addr: int
    #: The packet occupying the buffer (None when the slot is free).
    packet: Optional[Packet] = None
    #: True once the NIC has written the descriptor back (packet visible).
    done: bool = False


class RingFullError(RuntimeError):
    """Raised when the NIC has no free descriptor (the packet is dropped)."""


class DescriptorRing:
    """A circular RX descriptor ring with NIC-head / CPU / NIC-tail pointers."""

    def __init__(self, size: int, desc_base: int, buffer_base: int, buffer_stride: int) -> None:
        if size <= 0:
            raise ValueError(f"ring size must be positive, got {size}")
        if buffer_stride <= 0:
            raise ValueError(f"buffer stride must be positive, got {buffer_stride}")
        self.size = size
        self.descriptors: List[RxDescriptor] = [
            RxDescriptor(
                index=i,
                desc_addr=desc_base + i * DESCRIPTOR_BYTES,
                buffer_addr=buffer_base + i * buffer_stride,
            )
            for i in range(size)
        ]
        self.nic_head = 0  # next slot the NIC fills
        self.cpu_ptr = 0  # next slot the driver consumes
        self.nic_tail = 0  # next slot to be freed by the driver
        self._in_flight = 0  # slots filled (or being filled) but not yet freed

    # -- NIC side -------------------------------------------------------

    def free_slots(self) -> int:
        return self.size - self._in_flight

    def claim(self, packet: Packet) -> RxDescriptor:
        """NIC claims the head descriptor for an arriving packet."""
        if self._in_flight >= self.size:
            raise RingFullError(f"ring full ({self.size} slots)")
        desc = self.descriptors[self.nic_head]
        assert desc.packet is None, "claimed a slot that was never freed"
        desc.packet = packet
        desc.done = False
        packet.buffer_addr = desc.buffer_addr
        self.nic_head = (self.nic_head + 1) % self.size
        self._in_flight += 1
        return desc

    def complete(self, desc: RxDescriptor) -> None:
        """NIC marks DMA + descriptor writeback done (packet visible to PMD)."""
        desc.done = True

    # -- CPU side -------------------------------------------------------

    def peek_ready(self) -> Optional[RxDescriptor]:
        """The descriptor at the CPU pointer, if its packet is visible."""
        desc = self.descriptors[self.cpu_ptr]
        if desc.packet is not None and desc.done:
            return desc
        return None

    def pop_ready(self) -> Optional[RxDescriptor]:
        """Advance the CPU pointer past a visible packet and return it."""
        desc = self.peek_ready()
        if desc is None:
            return None
        self.cpu_ptr = (self.cpu_ptr + 1) % self.size
        return desc

    def free(self, desc: RxDescriptor) -> None:
        """Driver returns a consumed descriptor to the NIC (moves NIC tail)."""
        if desc.packet is None:
            raise ValueError(f"descriptor {desc.index} is already free")
        desc.packet = None
        desc.done = False
        self.nic_tail = (desc.index + 1) % self.size
        self._in_flight -= 1

    # -- instrumentation --------------------------------------------------

    def use_distance(self) -> int:
        """Slots between the CPU pointer and the NIC head (queue depth)."""
        return (self.nic_head - self.cpu_ptr) % self.size if self._in_flight else 0

    def occupancy(self) -> int:
        return self._in_flight
