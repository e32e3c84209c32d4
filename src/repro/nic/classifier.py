"""IDIO classifier (§V-A): NIC-side per-packet metadata extraction.

The classifier produces, for every DMA write transaction, the metadata
tuple the IDIO controller consumes (Alg. 1 data plane):

1. the *application class* from the packet's DSCP field;
2. whether the transaction carries the packet *header* (the first line);
3. the *destination core* (Flow Director / ADQ lookup);
4. whether the packet belongs to an RX *burst*.

Burst detection keeps one 32-bit byte counter per physical core, reset
every 1 us; while a counter exceeds ``rx_burst_threshold_bytes`` the
classifier flags transactions to that core as burst traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..net.packet import Packet
from ..pcie.tlp import IdioTag
from ..sim import PeriodicTask, Simulator, units


#: Burst-counter reset period (paper: 1 us).
COUNTER_INTERVAL = units.microseconds(1)


def gbps_to_bytes_per_interval(gbps: float, interval: int) -> int:
    """Convert a Gbps threshold into bytes per counter interval."""
    return int(units.gbps_to_bytes_per_tick(gbps) * interval)


@dataclass
class ClassifierConfig:
    """Tunables of the classifier (paper defaults in §VI)."""

    #: rxBurstTHR, expressed as a bandwidth (paper: 10 Gbps).
    rx_burst_threshold_gbps: float = 10.0
    num_cores: int = 64


class IdioClassifier:
    """Per-core burst counters plus per-transaction tag generation."""

    def __init__(self, sim: Simulator, config: ClassifierConfig) -> None:
        self.sim = sim
        self.config = config
        self._threshold_bytes = gbps_to_bytes_per_interval(
            config.rx_burst_threshold_gbps, COUNTER_INTERVAL
        )
        self._burst_counters: List[int] = [0] * config.num_cores
        self._window_crossed: List[bool] = [False] * config.num_cores
        self._burst_latched: List[bool] = [False] * config.num_cores
        self.bursts_detected = 0
        self._reset_task = PeriodicTask(
            sim, COUNTER_INTERVAL, self._reset_counters, "classifier-reset"
        )

    def _reset_counters(self) -> None:
        for core in range(self.config.num_cores):
            # A window that did NOT cross the threshold ends any ongoing
            # burst: the next crossing is a fresh burst *arrival*.
            if not self._window_crossed[core]:
                self._burst_latched[core] = False
            self._burst_counters[core] = 0
            self._window_crossed[core] = False

    def observe_packet(self, packet: Packet, dest_core: int) -> bool:
        """Account an arriving packet; returns True on a burst *arrival*.

        Burst notification is edge-triggered: the controller is notified
        once when a core's byte counter first crosses ``rxBurstTHR``, and
        a sustained burst (every 1 us window crossing) produces no further
        notifications — otherwise the FSM of Fig. 8 would be pinned at
        0b00 and could never throttle prefetching under MLC pressure.

        The 32-bit counter wraps exactly as hardware would; in practice a
        1 us window at 100 Gbps accumulates ~12.5 KB so wrap never occurs.
        """
        counter = (self._burst_counters[dest_core] + packet.size_bytes) & 0xFFFFFFFF
        self._burst_counters[dest_core] = counter
        if counter <= self._threshold_bytes:
            return False
        self._window_crossed[dest_core] = True
        if self._burst_latched[dest_core]:
            return False
        self._burst_latched[dest_core] = True
        self.bursts_detected += 1
        return True

    def tag_for_line(
        self,
        packet: Packet,
        dest_core: int,
        line_offset: int,
        burst_active: bool,
    ) -> IdioTag:
        """The IDIO tag for the ``line_offset``-th DMA line of ``packet``.

        The first transaction of a packet carries the protocol header
        (headers of all common protocols fit in 64 bytes, §V-A).
        """
        return IdioTag(
            dest_core=dest_core if packet.app_class == 0 else 0,
            app_class=packet.app_class,
            is_header=(line_offset == 0),
            is_burst=burst_active,
        )

    def stop(self) -> None:
        """Stop the periodic reset task (end of experiment)."""
        self._reset_task.stop()
