"""Network substrate: packets, flows, and load generators."""

from .flow import (
    FLOW_LANE_SPAN,
    MAX_FLOWS,
    make_flow,
)
from .packet import (
    APP_CLASS_LONG_USE,
    APP_CLASS_SHORT_USE,
    HEADER_BYTES,
    MTU_FRAME_BYTES,
    WIRE_OVERHEAD_BYTES,
    FiveTuple,
    Packet,
)
from .traffic import (
    IMIX_DISTRIBUTION,
    TRAFFIC_KINDS,
    BurstProfile,
    DiurnalProfile,
    HeavyTailProfile,
    ImixProfile,
    PoissonProfile,
    SteadyProfile,
    TrafficGenerator,
)

__all__ = [
    "APP_CLASS_LONG_USE",
    "APP_CLASS_SHORT_USE",
    "BurstProfile",
    "DiurnalProfile",
    "FLOW_LANE_SPAN",
    "FiveTuple",
    "HEADER_BYTES",
    "HeavyTailProfile",
    "IMIX_DISTRIBUTION",
    "ImixProfile",
    "MAX_FLOWS",
    "MTU_FRAME_BYTES",
    "Packet",
    "PoissonProfile",
    "SteadyProfile",
    "TRAFFIC_KINDS",
    "TrafficGenerator",
    "WIRE_OVERHEAD_BYTES",
    "make_flow",
]
