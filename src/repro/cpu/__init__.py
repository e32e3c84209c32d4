"""CPU-side substrate: cores, the DPDK-style stack, apps, maintenance ops."""

from .apps import (
    L2Fwd,
    L2FwdPayloadDrop,
    LLCAntagonist,
    NetworkFunction,
    TouchDrop,
)
from .core import Core, CoreStats
from .dpdk import AntagonistDriver, PollModeDriver
from .maintenance import MaintenanceUnit
from .pagetable import (
    PAGE_SIZE,
    InvalidatePermissionError,
    PageTable,
    PageTableEntry,
)

__all__ = [
    "AntagonistDriver",
    "Core",
    "CoreStats",
    "InvalidatePermissionError",
    "L2Fwd",
    "L2FwdPayloadDrop",
    "LLCAntagonist",
    "MaintenanceUnit",
    "NetworkFunction",
    "PAGE_SIZE",
    "PageTable",
    "PageTableEntry",
    "PollModeDriver",
    "TouchDrop",
]
