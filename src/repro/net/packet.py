"""Packets, headers, and DSCP application classes.

Packets are lightweight metadata objects: the simulator moves cachelines,
not payload bytes.  The fields modeled are exactly the ones IDIO's
classifier consumes: the 5-tuple (for Flow Director hashing), the DSCP
application class (§V-A), and sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from ..mem.line import LINE_SIZE, num_lines

#: Ethernet maximum transmission unit frame size used throughout the paper.
MTU_FRAME_BYTES = 1514
#: Bytes the header DMA transaction occupies.  Headers of all the common
#: protocols fit in one cacheline (§V-A).
HEADER_BYTES = LINE_SIZE
#: Per-packet wire overhead: preamble (8) + inter-frame gap (12) + FCS (4).
WIRE_OVERHEAD_BYTES = 24

#: IDIO application classes carried in the DSCP field (§V-A):
#: class 0 = short use distance (payload processed promptly);
#: class 1 = long use distance / payload rarely touched.
APP_CLASS_SHORT_USE = 0
APP_CLASS_LONG_USE = 1

_packet_ids = itertools.count()


@dataclass(frozen=True, slots=True)
class FiveTuple:
    """The flow identity Flow Director hashes (§II-C)."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: int = 6  # TCP


@dataclass(slots=True)
class Packet:
    """One network frame (RX direction unless noted)."""

    size_bytes: int = MTU_FRAME_BYTES
    flow: FiveTuple = field(default_factory=lambda: FiveTuple(1, 2, 1000, 2000))
    app_class: int = APP_CLASS_SHORT_USE
    #: Wall-clock (simulator tick) the last bit arrived at the NIC.
    arrival_time: int = 0
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    #: Filled by the NIC once DMA-ed: byte address of the buffer.
    buffer_addr: Optional[int] = None
    #: Wall-clock the PMD started processing this packet (service start).
    service_start_time: Optional[int] = None
    #: Filled by the application when processing completes (for latency).
    completion_time: Optional[int] = None

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {self.size_bytes}")
        if self.app_class not in (APP_CLASS_SHORT_USE, APP_CLASS_LONG_USE):
            raise ValueError(f"app_class must be 0 or 1, got {self.app_class}")

    @property
    def num_lines(self) -> int:
        """Cachelines this packet's buffer spans (24 for a 1514 B frame)."""
        return num_lines(self.size_bytes)

    @property
    def latency(self) -> Optional[int]:
        """Arrival-to-completion latency in ticks (None until processed)."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.arrival_time

    @property
    def queueing_delay(self) -> Optional[int]:
        """Arrival to service start: NIC pipeline + ring wait + batching."""
        if self.service_start_time is None:
            return None
        return self.service_start_time - self.arrival_time

    @property
    def service_time(self) -> Optional[int]:
        """Service start to completion: the pure processing component."""
        if self.completion_time is None or self.service_start_time is None:
            return None
        return self.completion_time - self.service_start_time
