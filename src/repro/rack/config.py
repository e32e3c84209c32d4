"""Rack-level configuration: the fleet above one ``ServerConfig``.

A :class:`RackConfig` describes everything a ToR-switch-scale experiment
needs: how many servers the rack holds, the (shared, unmodified) server
configuration each of them runs, how many concurrent flows the ToR's
flow table tracks, how those flows steer to servers, and the traffic
profile the load balancer spreads across the fleet.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..core.policies import PolicyConfig
from ..harness.server import ServerConfig
from ..net.flow import MAX_FLOWS, STEERING_MODES
from ..net.traffic import TRAFFIC_KINDS

#: Traffic kinds a rack can offer.  All are *rate*-based: the aggregate
#: ``offered_gbps`` is split across servers by their flow share, then
#: across each server's NF cores.  (``bursty`` is deliberately absent —
#: its unit is ring fills per burst, which has no aggregate-rate split.)
RACK_TRAFFIC_KINDS = tuple(k for k in TRAFFIC_KINDS if k != "bursty")

#: Peak-to-trough ratio for ``traffic="diurnal"``.
DIURNAL_PEAK_RATIO = 2.0
#: One compressed simulated "day" for ``traffic="diurnal"`` (us).
DIURNAL_PERIOD_US = 500.0


@dataclass
class RackConfig:
    """One rack: N servers behind a ToR switch / load balancer."""

    name: str = "rack"
    num_servers: int = 4
    #: The per-server configuration; every server runs this unmodified
    #: (the rack tier varies *load*, not hardware).
    server: ServerConfig = field(default_factory=ServerConfig)
    #: Concurrent flows the ToR flow table tracks and steers.
    total_flows: int = 8192
    #: ``"rss"`` (indirection table) or ``"rendezvous"`` (consistent hash).
    steering: str = "rss"
    #: Indirection-table size exponent for RSS steering; 17 bits models a
    #: 128K-entry table, enough that million-flow populations spread
    #: without visible quantization.
    table_bits: int = 17
    #: One of :data:`RACK_TRAFFIC_KINDS`.
    traffic: str = "heavytail"
    #: Aggregate inbound load across the whole rack (Gbps).  Each server
    #: receives its flow share of this; each NF core its equal split.
    offered_gbps: float = 100.0
    #: Traffic duration per server (microseconds of simulated time).
    duration_us: float = 200.0
    #: Pareto shape for ``traffic="heavytail"``.
    heavy_tail_alpha: float = 1.5
    #: Master seed; every per-server stream derives from it.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_servers <= 0:
            raise ValueError(
                f"num_servers must be positive, got {self.num_servers}"
            )
        if not 0 < self.total_flows <= MAX_FLOWS:
            raise ValueError(
                f"total_flows must be in (0, {MAX_FLOWS}], got {self.total_flows}"
            )
        if self.steering not in STEERING_MODES:
            raise ValueError(
                f"unknown steering {self.steering!r}; choose from {STEERING_MODES}"
            )
        if self.traffic not in RACK_TRAFFIC_KINDS:
            raise ValueError(
                f"unknown rack traffic {self.traffic!r}; choose from "
                f"{RACK_TRAFFIC_KINDS}"
            )
        if self.offered_gbps <= 0:
            raise ValueError(
                f"offered_gbps must be positive, got {self.offered_gbps}"
            )
        if self.duration_us <= 0:
            raise ValueError(
                f"duration_us must be positive, got {self.duration_us}"
            )

    def with_policy(self, policy: PolicyConfig) -> "RackConfig":
        """The same rack with every server under a different policy."""
        return replace(self, server=replace(self.server, policy=policy))
