"""NIC substrate: descriptor rings, Flow Director, DMA engine, classifier."""

from .classifier import ClassifierConfig, IdioClassifier, gbps_to_bytes_per_interval
from .descriptor import DESCRIPTOR_BYTES, DescriptorRing, RingFullError, RxDescriptor
from .dma import DMAEngine
from .flow_director import FlowDirector
from .nic import NIC, NicQueue

__all__ = [
    "ClassifierConfig",
    "DESCRIPTOR_BYTES",
    "DMAEngine",
    "DescriptorRing",
    "FlowDirector",
    "IdioClassifier",
    "NIC",
    "NicQueue",
    "RingFullError",
    "RxDescriptor",
    "gbps_to_bytes_per_interval",
]
