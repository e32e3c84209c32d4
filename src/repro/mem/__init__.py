"""Memory-hierarchy substrate: caches, DRAM, and the non-inclusive data paths."""

from .cache import CacheConfig, SetAssociativeCache
from .dram import DRAM
from .hierarchy import (
    HierarchyConfig,
    MemoryHierarchy,
    default_l1_config,
    default_llc_config,
    default_mlc_config,
)
from .line import LINE_SIZE, CacheLine, line_address, lines_spanning, num_lines
from .llc import NonInclusiveLLC, SnoopFilterDirectory
from .stats import Counter, EventLog, StatsBundle
from .transaction import (
    CPU_LOAD,
    CPU_STORE,
    DMA_READ,
    DMA_WRITE,
    INVALIDATE,
    KINDS,
    PREFETCH_FILL,
    Hop,
    MemoryTransaction,
)

__all__ = [
    "CPU_LOAD",
    "CPU_STORE",
    "CacheConfig",
    "CacheLine",
    "Counter",
    "DMA_READ",
    "DMA_WRITE",
    "DRAM",
    "EventLog",
    "HierarchyConfig",
    "Hop",
    "INVALIDATE",
    "KINDS",
    "LINE_SIZE",
    "MemoryHierarchy",
    "MemoryTransaction",
    "NonInclusiveLLC",
    "PREFETCH_FILL",
    "SetAssociativeCache",
    "SnoopFilterDirectory",
    "StatsBundle",
    "default_l1_config",
    "default_llc_config",
    "default_mlc_config",
    "line_address",
    "lines_spanning",
    "num_lines",
]
