"""Network substrate: packets, flows, steering, and load generators."""

from .flow import (
    FLOW_LANE_SPAN,
    MAX_FLOWS,
    STEERING_MODES,
    FlowSteering,
    flow_key,
    make_flow,
    make_flows,
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
    "FlowSteering",
    "HEADER_BYTES",
    "HeavyTailProfile",
    "IMIX_DISTRIBUTION",
    "ImixProfile",
    "MAX_FLOWS",
    "MTU_FRAME_BYTES",
    "Packet",
    "PoissonProfile",
    "STEERING_MODES",
    "SteadyProfile",
    "TRAFFIC_KINDS",
    "TrafficGenerator",
    "WIRE_OVERHEAD_BYTES",
    "flow_key",
    "make_flow",
    "make_flows",
]
