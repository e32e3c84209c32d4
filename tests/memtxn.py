"""Free-function shorthands for driving a ``MemoryHierarchy`` in tests.

The 0.4 line carried deprecated convenience wrappers on the hierarchy
itself (``h.cpu_access(...)`` etc.); 0.5.0 removed them in favor of the
one typed entry point, ``MemoryHierarchy.access(txn)``.  These helpers
keep the tests terse while showing the one-line migration for each
retired wrapper: build the :class:`MemoryTransaction`, call ``access``,
read the fields off the transaction.
"""

from dataclasses import dataclass

from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.transaction import (
    CPU_LOAD,
    CPU_STORE,
    DMA_READ,
    DMA_WRITE,
    INVALIDATE,
    PREFETCH_FILL,
    MemoryTransaction,
)


@dataclass
class AccessResult:
    """Outcome of one demand access: latency plus the serving level."""

    latency: int
    level: str  # "l1" | "mlc" | "llc" | "c2c" | "dram"


def cpu_access_txn(core: int, addr: int, is_write: bool, now: int) -> MemoryTransaction:
    """A demand load/store transaction, not yet issued."""
    return MemoryTransaction(CPU_STORE if is_write else CPU_LOAD, addr, now, core=core)


def cpu_access(
    h: MemoryHierarchy, core: int, addr: int, is_write: bool, now: int
) -> AccessResult:
    """A demand load/store from ``core``; returns latency and hit level."""
    txn = cpu_access_txn(core, addr, is_write, now)
    h.access(txn)
    return AccessResult(txn.latency, txn.level or "dram")


def pcie_write(h: MemoryHierarchy, addr: int, now: int, placement: str = "llc") -> int:
    """A full-cacheline inbound DMA write; returns the latency."""
    txn = MemoryTransaction(DMA_WRITE, addr, now, placement=placement)
    h.access(txn)
    return txn.latency


def pcie_read(h: MemoryHierarchy, addr: int, now: int) -> int:
    """An outbound DMA read (NIC TX); returns the latency."""
    txn = MemoryTransaction(DMA_READ, addr, now)
    h.access(txn)
    return txn.latency


def prefetch_fill(h: MemoryHierarchy, core: int, addr: int, now: int) -> bool:
    """MLC prefetch; ``True`` when a fill actually happened."""
    txn = MemoryTransaction(PREFETCH_FILL, addr, now, core=core)
    h.access(txn)
    return txn.level != "dropped"


def invalidate(
    h: MemoryHierarchy, core: int, addr: int, now: int, scope: str = "all"
) -> None:
    """Invalidate-without-writeback of one line."""
    h.access(MemoryTransaction(INVALIDATE, addr, now, core=core, scope=scope))
