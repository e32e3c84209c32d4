"""Typed memory transactions: the unit of work of the unified access path.

Every data movement the paper reasons about — a demand load/store, an
inbound DMA write (DDIO or direct-DRAM), an outbound DMA read, an IDIO
MLC prefetch fill, an invalidate-without-writeback — is described by one
:class:`MemoryTransaction` and executed by
:meth:`repro.mem.hierarchy.MemoryHierarchy.access`.

The hierarchy fills in the outcome fields as the transaction traverses
the machine: the total ``latency``, the serving ``level``, and — while
the owning hierarchy is observed
(:meth:`~repro.mem.hierarchy.MemoryHierarchy.observe`) — a ``hops`` list
of :class:`Hop` records, one per component the transaction touched.
Hop records are what the :class:`repro.obs.trace.TraceRecorder` turns
into Chrome-trace events and per-component latency breakdowns (the
telemetry IOCA/5GC²ache-style analyses need), and what the invariant
sanitizer checks.

An unobserved hierarchy records no hops, so the hot path stays a plain
attribute-assignment sequence; the records exist only while somebody
(tracing, checked mode, tests) watches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple, Optional, Tuple

from .line import LINE_SIZE

if TYPE_CHECKING:  # import at runtime would cycle through repro.pcie
    from ..pcie.tlp import IdioTag

# line_address(), inlined as a mask: the constructor runs once per memory
# access, so even one function call here is measurable.
_LINE_MASK = ~(LINE_SIZE - 1)

#: Transaction kinds (``MemoryTransaction.kind``).
CPU_LOAD = "cpu-load"
CPU_STORE = "cpu-store"
DMA_WRITE = "dma-write"
DMA_READ = "dma-read"
PREFETCH_FILL = "prefetch-fill"
INVALIDATE = "invalidate"

KINDS: Tuple[str, ...] = (
    CPU_LOAD,
    CPU_STORE,
    DMA_WRITE,
    DMA_READ,
    PREFETCH_FILL,
    INVALIDATE,
)

#: ``kind`` -> originator, for grouping in traces and breakdowns.
ORIGIN_BY_KIND = {
    CPU_LOAD: "cpu",
    CPU_STORE: "cpu",
    DMA_WRITE: "io",
    DMA_READ: "io",
    PREFETCH_FILL: "prefetcher",
    INVALIDATE: "cpu",
}


class Hop(NamedTuple):
    """One component interaction along a transaction's path.

    ``latency`` is the hop's *contribution to the transaction's critical
    path* in ticks — background work (victim writebacks, back-
    invalidations) is recorded with a zero contribution so the hop list
    sums to the transaction latency.
    """

    component: str  #: "l1" | "mlc" | "llc" | "dram" | "directory"
    action: str  #: "hit" | "miss" | "fill" | "evict" | "writeback" | "drop" | ...
    latency: int


class MemoryTransaction:
    """One typed request against the memory hierarchy.

    Request fields (caller-set): ``kind``, ``addr`` (normalized to a line
    address), ``now``, destination ``core`` (-1 when the transaction has
    no core affinity, e.g. a DMA write before steering), the decoded
    :class:`~repro.pcie.tlp.IdioTag` (DMA writes only), ``placement``
    ("llc"/"dram", DMA writes only) and ``scope`` ("all"/"private",
    invalidates only).

    Outcome fields (hierarchy-set): ``latency`` in ticks, ``level`` (the
    serving level or terminal state) and ``hops``.
    """

    __slots__ = (
        "kind",
        "addr",
        "now",
        "core",
        "tag",
        "placement",
        "scope",
        "latency",
        "level",
        "hops",
    )

    def __init__(
        self,
        kind: str,
        addr: int,
        now: int,
        core: int = -1,
        tag: Optional[IdioTag] = None,
        placement: str = "llc",
        scope: str = "all",
    ) -> None:
        self.kind = kind
        self.addr = addr & _LINE_MASK
        self.now = now
        self.core = core
        self.tag = tag
        self.placement = placement
        self.scope = scope
        self.latency = 0
        self.level: Optional[str] = None
        self.hops: List[Hop] = []

    @property
    def origin(self) -> str:
        """The originating agent class ("cpu", "io", or "prefetcher")."""
        return ORIGIN_BY_KIND[self.kind]

    @property
    def is_write(self) -> bool:
        return self.kind in (CPU_STORE, DMA_WRITE)

    def __repr__(self) -> str:
        hops = ", ".join(f"{h.component}:{h.action}" for h in self.hops)
        return (
            f"MemoryTransaction({self.kind}, addr={self.addr:#x}, "
            f"core={self.core}, level={self.level}, latency={self.latency}"
            f"{', hops=[' + hops + ']' if hops else ''})"
        )
