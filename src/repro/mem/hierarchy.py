"""The non-inclusive memory hierarchy: data paths of Fig. 1 and Fig. 2.

This module wires per-core private caches (optional L1D + MLC), the shared
non-inclusive LLC with DDIO ways, and DRAM into one object exposing a
typed entry point and two bulk ones:

* :meth:`MemoryHierarchy.access` — execute one
  :class:`~repro.mem.transaction.MemoryTransaction` (demand load/store,
  inbound DMA write, outbound DMA read, IDIO MLC prefetch fill, or the
  paper's invalidate-without-writeback maintenance operation, §IV-A/§V-D)
  and fill in its outcome: total latency, serving level, and — while the
  hierarchy is observed — a per-component hop list.
* :meth:`MemoryHierarchy.demand_lines` — one core's demand loads or
  stores to a run of lines (a packet's touch loop, an antagonist
  iteration, a warm-up buffer), returning each load's latency.
* :meth:`MemoryHierarchy.dma_write_lines` — one DDIO burst of inbound
  DMA writes with LLC placement.

Each bulk entry point leaves the hierarchy exactly as one transaction per
line would, in one pass that fuses the common cases and sums their
statistics; it falls back to the per-line handler wherever an observer or
a model variant could tell the difference.

All traffic flows through one handler per kind: callers construct the
:class:`MemoryTransaction` themselves (simlint's SIM005 flags any
reintroduction of per-kind wrapper methods outside ``repro.mem``; tests
use the free-function helpers in ``tests/memtxn.py``).  The per-line
callers (cores, the root complex, the maintenance unit) reuse one scratch
transaction and call the ``_run_*`` handler directly.

:meth:`MemoryHierarchy.observe` is the one way to watch transactions: it
rebinds the ``_run_*`` handlers to wrappers that run a fresh copy of each
request with hops recorded and hand the copy to every observer.  The
callers' loops do not change, and no observer ever holds a scratch
object.

The hierarchy counts every MLC and LLC writeback inline, as it counts
its other transitions; the IDIO, IAT and IOCA controllers read those
counters at each tick (``mlcWB`` in Alg. 1).  It also publishes
:class:`~repro.obs.events.MlcWritebackEvent` /
:class:`~repro.obs.events.LlcWritebackEvent` on a typed pub/sub bus
(:class:`repro.obs.bus.EventBus`), building the event only when someone
subscribes, which only a trace recorder does.  A subscriber always sees
the counters already bumped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..obs.bus import EventBus
from ..obs.events import LlcWritebackEvent, MlcWritebackEvent
from ..sim import units
from .cache import CacheConfig, SetAssociativeCache
from .dram import DRAM, DRAM_LATENCY
from .line import _LINE_MASK, CacheLine, line_address
from .llc import NonInclusiveLLC, owner_cores
from .stats import StatsBundle
from .transaction import (
    CPU_LOAD,
    CPU_STORE,
    DMA_READ,
    DMA_WRITE,
    INVALIDATE,
    PREFETCH_FILL,
    Hop,
    MemoryTransaction,
)

if TYPE_CHECKING:  # import at runtime would cycle through repro.pcie
    from ..pcie.tlp import IdioTag


#: Per-ring-hop latency of the NUCA LLC (``HierarchyConfig.llc_slices``).
LLC_HOP_LATENCY = units.cycles(2)


def default_l1_config() -> CacheConfig:
    """Table I L1D: 64 KB, 2-way, 2 cycles."""
    return CacheConfig("l1d", 64 * 1024, 2, units.cycles(2))


def default_mlc_config(size_bytes: int = 1024 * 1024) -> CacheConfig:
    """Table I L2 (MLC): 1 MB, 8-way, 12 cycles."""
    return CacheConfig("mlc", size_bytes, 8, units.cycles(12))


def default_llc_config(size_bytes: int = 3 * 1024 * 1024, assoc: int = 12) -> CacheConfig:
    """Table I L3: 1.5 MB/core, 12-way, 24 cycles.

    The evaluation (§III Obs. 4) scales the LLC to 3 MB total for the
    two-NF-core experiments; that is the default here.
    """
    return CacheConfig("llc", size_bytes, assoc, units.cycles(24))


@dataclass
class HierarchyConfig:
    """Full hierarchy geometry.  Defaults reproduce Table I (scaled LLC)."""

    num_cores: int = 2
    l1: Optional[CacheConfig] = None
    #: Per-core MLC configs; entries may be ``None`` to take the default.
    #: (The LLCAntagonist core uses a 256 KB MLC per §VI.)
    mlc_sizes: Optional[List[int]] = None
    mlc: Optional[CacheConfig] = None
    llc: Optional[CacheConfig] = None
    ddio_ways: int = 2
    llc_inclusive: bool = False
    #: NUCA slice count (0 = monolithic LLC); see ``LLC_HOP_LATENCY``.
    llc_slices: int = 0

    def resolved_l1(self) -> CacheConfig:
        return self.l1 or default_l1_config()

    def resolved_mlc(self, core: int) -> CacheConfig:
        if self.mlc is not None:
            return self.mlc
        size = 1024 * 1024
        if self.mlc_sizes is not None and core < len(self.mlc_sizes):
            override = self.mlc_sizes[core]
            if override:
                size = override
        return default_mlc_config(size)

    def resolved_llc(self) -> CacheConfig:
        return self.llc or default_llc_config()


#: A per-kind handler, or an observer (see :meth:`MemoryHierarchy.observe`).
TxnHandler = Callable[[MemoryTransaction], None]

#: The per-kind handler of each transaction kind, by attribute name:
#: :meth:`MemoryHierarchy.access` looks the handler up on every call, so
#: it finds the observed wrappers too and the hierarchy keeps no bound
#: method of itself (which would pin it in a reference cycle).
_HANDLER_NAMES = {
    CPU_LOAD: "_run_cpu",
    CPU_STORE: "_run_cpu",
    DMA_WRITE: "_run_dma_write",
    DMA_READ: "_run_dma_read",
    PREFETCH_FILL: "_run_prefetch_fill",
    INVALIDATE: "_run_invalidate",
}

#: The per-kind handlers an observed hierarchy wraps.
_RUN_HANDLERS = (
    "_run_cpu",
    "_run_dma_write",
    "_run_dma_read",
    "_run_prefetch_fill",
    "_run_invalidate",
)


class MemoryHierarchy:
    """Cacheline-granular model of the non-inclusive hierarchy."""

    def __init__(
        self,
        config: HierarchyConfig,
        stats: Optional[StatsBundle] = None,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.config = config
        self.stats = stats or StatsBundle()
        #: The observability bus (writeback events).
        self.bus = bus or EventBus()
        # Hot-path counter/event-log access: the handlers below perform
        # one unlogged increment (or one increment + one timestamp
        # append) per state transition, so they hit the bundle's
        # underlying dicts directly (they survive reset(); see
        # StatsBundle.bump, whose semantics each inline site preserves).
        self._counter_values = self.stats._counter_values
        self._event_streams = self.stats._event_streams
        # Freelist of dead CacheLine objects.  Lines churn at a few per
        # access (fills allocate, evictions/drops free); recycling at the
        # provably-dead sites flattens the allocation profile.
        self._line_pool: List[CacheLine] = []
        # Hot-path caches of the live subscriber lists: publishing is a
        # truthiness check plus a loop, and the event object is only
        # constructed when somebody listens.
        self._mlc_wb_subs = self.bus.live(MlcWritebackEvent)
        self._llc_wb_subs = self.bus.live(LlcWritebackEvent)
        #: Per-tenant DMA attribution ranges ``(start, end, tenant)``.
        #: Empty (the default) keeps the DMA-write hot path tenant-free:
        #: one falsy check and no per-write work.
        self._tenant_ranges: List[Tuple[int, int, int]] = []
        self._tenant_dma_names: Dict[int, str] = {}
        #: Transaction observers (see :meth:`observe`), and the hop list
        #: of the observed transaction in flight (None when unobserved).
        self._observers: List[TxnHandler] = []
        self._active_hops: Optional[List[Hop]] = None

        #: Per-core private caches: the L1D and the MLC.
        self.l1: List[SetAssociativeCache] = [
            SetAssociativeCache(config.resolved_l1()) for _ in range(config.num_cores)
        ]
        self.mlc: List[SetAssociativeCache] = [
            SetAssociativeCache(config.resolved_mlc(core))
            for core in range(config.num_cores)
        ]
        self.llc = NonInclusiveLLC(
            config.resolved_llc(),
            self.stats,
            ddio_ways=config.ddio_ways,
            inclusive=config.llc_inclusive,
            slices=config.llc_slices,
            hop_latency=LLC_HOP_LATENCY,
        )
        self.dram = DRAM(self.stats)
        # Direct references into the LLC for the demand and DMA paths:
        # each access otherwise pays a delegation hop (NonInclusiveLLC ->
        # data array, SnoopFilterDirectory -> entry dict).  Nothing in the
        # package replaces these objects after construction, so one
        # attribute load per access replaces a method call per hop.
        self._llc_data = self.llc.data
        self._l1_lat = [c.config.latency for c in self.l1]
        self._mlc_lat = [c.config.latency for c in self.mlc]
        self._llc_lat = self.llc.config.latency
        # Monolithic LLC: access latency is a constant; only the NUCA
        # model (slices > 0) needs the per-(core, addr) hop computation.
        self._flat_llc = self.llc.slices <= 0
        self._dir_entries = self.llc.directory._entries
        # Per-core counter names, pre-formatted once (these are bumped on
        # every invalidation; f-strings there are measurable).
        self._mlc_inval_names = [
            f"mlc_invalidations_c{core}" for core in range(config.num_cores)
        ]
        self._mlc_wb_names = [
            f"mlc_writebacks_c{core}" for core in range(config.num_cores)
        ]
        self._l1_evict_names = [f"{c.config.name}_evictions" for c in self.l1]
        self._mlc_evict_names = [f"{c.config.name}_evictions" for c in self.mlc]

    # ------------------------------------------------------------------
    # the unified entry point
    # ------------------------------------------------------------------

    def access(self, txn: MemoryTransaction) -> MemoryTransaction:
        """Execute one transaction; fills ``latency``/``level`` (and
        ``hops`` while observed) and returns it."""
        try:
            name = _HANDLER_NAMES[txn.kind]
        except KeyError:
            raise ValueError(
                f"unknown transaction kind {txn.kind!r}; "
                f"expected one of {sorted(_HANDLER_NAMES)}"
            ) from None
        getattr(self, name)(txn)
        return txn

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    def observe(self, observer: TxnHandler) -> None:
        """Call ``observer`` with every completed transaction, hops recorded.

        Observers run in attach order, each with the same private copy of
        the transaction; the caller's transaction gets the copy's
        ``latency``, ``level`` and ``hops``.  The first observer swaps
        the ``_run_*`` instance attributes for recording wrappers.
        """
        self._observers.append(observer)
        if len(self._observers) == 1:
            for name in _RUN_HANDLERS:
                setattr(self, name, self._observed(getattr(self, name)))

    def unobserve(self, observer: TxnHandler) -> None:
        """Stop calling ``observer`` (no-op when absent); the last one to
        leave restores the bare handlers and with them the unrecorded
        hot path."""
        try:
            self._observers.remove(observer)
        except ValueError:
            return
        if not self._observers:
            for name in _RUN_HANDLERS:
                delattr(self, name)  # the class's method shows through again

    def _observed(self, run: TxnHandler) -> TxnHandler:
        """Wrap one bare handler: run a fresh copy with hops recorded,
        copy the outcome back, then hand the copy to every observer."""
        observers = self._observers

        def observed_run(txn: MemoryTransaction) -> None:
            copy = MemoryTransaction(
                txn.kind, txn.addr, txn.now, txn.core, txn.tag, txn.placement, txn.scope
            )
            self._active_hops = copy.hops
            try:
                run(copy)
            finally:
                self._active_hops = None
            txn.latency = copy.latency
            txn.level = copy.level
            txn.hops = copy.hops
            for fn in observers:
                fn(copy)

        return observed_run

    # Hop recording is inlined at each site as
    #   ``if hops is not None: hops.append(Hop(...))``
    # with ``hops = self._active_hops`` loaded once per handler — a local
    # None-check is all an unobserved access pays for it.

    # ------------------------------------------------------------------
    # writebacks
    # ------------------------------------------------------------------

    def _mlc_writeback(self, core: int, now: int) -> None:
        """Count one MLC writeback, then publish it to any subscriber."""
        cv = self._counter_values
        cv["mlc_writebacks"] += 1
        self._event_streams["mlc_writebacks"].append(now)
        cv[self._mlc_wb_names[core]] += 1
        subs = self._mlc_wb_subs
        if subs:
            event = MlcWritebackEvent(core, now)
            for fn in subs:
                fn(event)

    def _llc_writeback(self, addr: int, now: int) -> None:
        """Count one LLC writeback, then publish it to any subscriber."""
        self._counter_values["llc_writebacks"] += 1
        self._event_streams["llc_writebacks"].append(now)
        subs = self._llc_wb_subs
        if subs:
            event = LlcWritebackEvent(addr, now)
            for fn in subs:
                fn(event)

    @property
    def watched(self) -> bool:
        """True while a transaction observer could see this hierarchy's
        traffic (the one writeback subscriber, the trace recorder, also
        observes transactions)."""
        return bool(self._observers)

    # ------------------------------------------------------------------
    # tenant attribution
    # ------------------------------------------------------------------

    def set_tenant_ranges(self, ranges: Sequence[Tuple[int, int, int]]) -> None:
        """Register per-tenant DMA attribution ranges.

        ``ranges`` is ``(start, end, tenant)`` triples (half-open byte
        ranges) covering each tenant's descriptor/buffer regions.  Every
        inbound DMA write landing in a range is attributed to its tenant:
        the ``tenant_dma_writes_t<id>`` counter is bumped, and the
        write-allocate is confined to the tenant's I/O ways when a
        partition is installed.  Ranges must be non-empty, disjoint, and
        tenant ids non-negative.
        """
        cleaned: List[Tuple[int, int, int]] = []
        for start, end, tenant in ranges:
            if start < 0 or end <= start:
                raise ValueError(f"bad tenant range [{start:#x}, {end:#x})")
            if tenant < 0:
                raise ValueError(f"tenant must be non-negative, got {tenant}")
            cleaned.append((start, end, tenant))
        cleaned.sort()
        for (s0, e0, t0), (s1, e1, t1) in zip(cleaned, cleaned[1:]):
            if s1 < e0:
                raise ValueError(
                    f"tenant ranges overlap: [{s0:#x}, {e0:#x}) (tenant {t0}) "
                    f"and [{s1:#x}, {e1:#x}) (tenant {t1})"
                )
        self._tenant_ranges = cleaned
        self._tenant_dma_names = {
            t: f"tenant_dma_writes_t{t}" for _, _, t in cleaned
        }

    def tenant_of_addr(self, addr: int) -> int:
        """The tenant owning ``addr`` (-1 when unattributed)."""
        for start, end, tenant in self._tenant_ranges:
            if start <= addr < end:
                return tenant
        return -1

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------

    def _make_line(self, addr: int, dirty: bool, origin: str, owner: int) -> CacheLine:
        """A CacheLine from the freelist (or fresh when the pool is dry)."""
        pool = self._line_pool
        if pool:
            line = pool.pop()
            line.addr = addr
            line.dirty = dirty
            line.origin = origin
            line.owner = owner
            return line
        return CacheLine(addr, dirty, origin, owner)

    def _retire_line(self, line: CacheLine) -> None:
        """Recycle a line no cache, directory, or caller references."""
        pool = self._line_pool
        if len(pool) < 256:
            pool.append(line)

    def _drop_private(self, core: int, addr: int) -> Optional[CacheLine]:
        """Remove ``addr`` from core's L1+MLC; returns the line (dirtiest view)."""
        merged = self.l1[core].remove(addr)
        mlc_line = self.mlc[core].remove(addr)
        if mlc_line is not None:
            if merged is not None:
                mlc_line.dirty = mlc_line.dirty or merged.dirty
                self._retire_line(merged)  # superseded by the MLC copy
            merged = mlc_line
        return merged

    def _llc_victim_to_dram(self, victim: CacheLine, now: int) -> None:
        """Handle a line evicted from the LLC data array."""
        if self.llc.inclusive:
            # Inclusive LLC: eviction back-invalidates private copies.
            for core in owner_cores(self.llc.directory.get(victim.addr)):
                private = self._drop_private(core, victim.addr)
                self._counter_values["back_invalidations"] += 1
                if private is not None:
                    if private.dirty:
                        victim.dirty = True
                    self._retire_line(private)
            self.llc.directory.remove(victim.addr)
        if victim.dirty:
            hops = self._active_hops
            if hops is not None:
                hops.append(Hop("llc", "evict", 0))
                hops.append(Hop("dram", "writeback", 0))
            self.dram.write(victim.addr, now)
            self._llc_writeback(victim.addr, now)
        else:
            hops = self._active_hops
            if hops is not None:
                hops.append(Hop("llc", "drop", 0))
            self._counter_values["llc_clean_drops"] += 1
        self._retire_line(victim)

    def _fill_mlc(self, core: int, line: CacheLine, now: int) -> None:
        """Fill ``line`` into core's MLC, handling the non-inclusive victim path."""
        hops = self._active_hops
        if hops is not None:
            hops.append(Hop("mlc", "fill", 0))
        line.owner = core
        victim = self.mlc[core].insert(line)
        if victim is None:
            return
        self._counter_values[self._mlc_evict_names[core]] += 1
        # Keep L1 included in MLC: back-invalidate the victim's L1 copy.
        l1_copy = self.l1[core].remove(victim.addr)
        if l1_copy is not None:
            if l1_copy.dirty:
                victim.dirty = True
            self._retire_line(l1_copy)
        self.llc.directory.remove(victim.addr, core)
        if self.llc.inclusive:
            # The LLC already holds a copy; just propagate dirtiness.
            resident = self.llc.peek(victim.addr)
            if resident is not None:
                if victim.dirty:
                    resident.dirty = True
                    self._mlc_writeback(core, now)
                else:
                    self._counter_values["mlc_clean_drops"] += 1
                self._retire_line(victim)
                return
            # Fall through (copy may have been evicted already).
        # Non-inclusive victim-cache fill: the LLC is populated by MLC
        # evictions, clean or dirty, and the fill may land in ANY way,
        # including non-DDIO ways -> DMA bloating (§III Obs. 3).  This
        # MLC->LLC transaction is what the paper's "MLC writeback" counters
        # measure.
        if hops is not None:
            hops.append(Hop("mlc", "evict", 0))
            hops.append(Hop("llc", "writeback", 0))
        self._mlc_writeback(core, now)
        if victim.dirty:
            self._counter_values["mlc_writebacks_dirty"] += 1
        else:
            self._counter_values["mlc_writebacks_clean"] += 1
        llc_victim = self.llc.fill_cpu(victim, now, core=core)
        if llc_victim is not None:
            self._llc_victim_to_dram(llc_victim, now)

    def _fill_l1(self, core: int, addr: int, dirty: bool, now: int) -> None:
        victim = self.l1[core].insert(self._make_line(addr, dirty, "cpu", core))
        if victim is None:
            return
        self._counter_values[self._l1_evict_names[core]] += 1
        if victim.dirty:
            # Dirty L1 victim merges into the MLC copy (L1 ⊆ MLC by design).
            mlc_line = self.mlc[core].peek(victim.addr)
            if mlc_line is not None:
                mlc_line.dirty = True
                self._retire_line(victim)
            else:
                # MLC copy already gone; push straight to LLC.
                hops = self._active_hops
                if hops is not None:
                    hops.append(Hop("llc", "writeback", 0))
                self._mlc_writeback(core, now)
                llc_victim = self.llc.fill_cpu(victim, now, core=core)
                if llc_victim is not None:
                    self._llc_victim_to_dram(llc_victim, now)
        else:
            # Clean L1 victim: silently dropped (MLC still holds it).
            self._retire_line(victim)

    # ------------------------------------------------------------------
    # demand path (Fig. 2)
    # ------------------------------------------------------------------

    def _run_cpu(self, txn: MemoryTransaction) -> None:
        """A demand load/store from ``txn.core``."""
        core = txn.core
        addr = txn.addr
        now = txn.now
        is_write = txn.kind == CPU_STORE
        hops = self._active_hops
        cv = self._counter_values
        latency = self._l1_lat[core]
        hit = self.l1[core].lookup(addr)
        if hit is not None:
            if is_write:
                hit.dirty = True
                mlc_copy = self.mlc[core].peek(addr)
                if mlc_copy is not None:
                    mlc_copy.dirty = True
            cv["l1_hits"] += 1
            if hops is not None:
                hops.append(Hop("l1", "hit", latency))
            txn.latency = latency
            txn.level = "l1"
            return
        if hops is not None:
            hops.append(Hop("l1", "miss", latency))

        mlc_lat = self._mlc_lat[core]
        latency += mlc_lat
        hit = self.mlc[core].lookup(addr)
        if hit is not None:
            if is_write:
                hit.dirty = True
            if hops is not None:
                hops.append(Hop("mlc", "hit", mlc_lat))
            self._fill_l1(core, addr, False, now)
            cv["mlc_hits"] += 1
            txn.latency = latency
            txn.level = "mlc"
            return
        if hops is not None:
            hops.append(Hop("mlc", "miss", mlc_lat))

        # Another core's private caches may own the line: the directory
        # filters the snoop and the data migrates cache-to-cache (our
        # workloads never share lines, but the model must stay coherent
        # for ones that do).
        remote_mask = self._dir_entries.get(addr, 0) & ~(1 << core)
        if remote_mask:
            migrated: Optional[CacheLine] = None
            for owner in owner_cores(remote_mask):
                line = self._drop_private(owner, addr)
                self.llc.directory.remove(addr, owner)
                if line is not None and (migrated is None or line.dirty):
                    migrated = line
            if migrated is not None:
                cv["c2c_transfers"] += 1
                latency += self._llc_lat  # snoop round trip
                if hops is not None:
                    hops.append(Hop("directory", "c2c", self._llc_lat))
                migrated.owner = core
                if is_write:
                    migrated.dirty = True
                self._fill_mlc(core, migrated, now)
                self.llc.directory.add(addr, core)
                self._fill_l1(core, addr, False, now)
                txn.latency = latency
                txn.level = "c2c"
                return

        llc_latency = (
            self._llc_lat if self._flat_llc else self.llc.access_latency(core, addr)
        )
        latency += llc_latency
        llc_line = self._llc_data.lookup(addr)
        if llc_line is not None:
            level = "llc"
            cv["llc_hits"] += 1
            if hops is not None:
                hops.append(Hop("llc", "hit", llc_latency))
            if self.llc.inclusive:
                new_line = self._make_line(addr, False, llc_line.origin, core)
            else:
                # Non-inclusive: data moves up, tag moves to the directory
                # (steps A-2.1/B-2.1 of Fig. 2).  The removed LLC line
                # object itself migrates — no copy is allocated.
                self._llc_data.remove(addr)
                new_line = llc_line
                new_line.owner = core
        else:
            level = "dram"
            dram_latency = self.dram.read(addr, now)
            latency += dram_latency
            if hops is not None:
                hops.append(Hop("llc", "miss", llc_latency))
                hops.append(Hop("dram", "read", dram_latency))
            cv["llc_misses"] += 1
            new_line = self._make_line(addr, False, "cpu", core)
            if self.llc.inclusive:
                llc_victim = self.llc.fill_cpu(
                    self._make_line(addr, False, "cpu", core), now, core=core
                )
                if llc_victim is not None:
                    self._llc_victim_to_dram(llc_victim, now)

        if is_write:
            new_line.dirty = True
        self._fill_mlc(core, new_line, now)
        self.llc.directory.add(addr, core)
        self._fill_l1(core, addr, False, now)
        txn.latency = latency
        txn.level = level

    def demand_lines(
        self, core: int, kind: str, addrs: Iterable[int], now: int
    ) -> Optional[List[int]]:
        """Demand-load or -store (``kind``) every line of ``addrs`` from
        ``core`` at ``now``, in order.

        The caches, recency stamps, directory, freelist, counters and
        event streams end exactly as one ``kind`` :meth:`_run_cpu` per
        address would leave them.  Loads return each line's latency;
        stores return ``None``.

        Two cases of a line no directory entry holds (so no private
        cache either) are fused: the full miss (DRAM read, MLC fill and
        its victim's way to the LLC, L1 fill), and the non-inclusive LLC
        hit (the LLC line migrates to the MLC, then the L1 fill).  Their
        latencies are constants, and their counter and event-stream
        updates are summed and applied once at the end.  Any other line takes
        :meth:`_run_cpu`, and so does every line while an inclusive LLC,
        an observer, a writeback subscriber or a DRAM fault injector
        could tell the difference, and every load under NUCA (whose LLC
        latency depends on the line's slice).

        The fused lines repeat :meth:`_fill_mlc`'s non-inclusive victim
        path and :meth:`_fill_l1`'s victim handling, so a change to
        either policy must be made here too
        (``tests/test_mem_bulk_store.py`` fails on a mismatch).  A
        version that called the two helpers left the tenant server's
        start about 0.09 s slower ("Bulk line runs" in
        ``docs/performance.md``).
        """
        if kind == CPU_LOAD:
            is_load = True
        elif kind == CPU_STORE:
            is_load = False
        else:
            raise ValueError(f"demand_lines takes {CPU_LOAD!r} or {CPU_STORE!r}, got {kind!r}")
        per_line = (
            self.llc.inclusive
            or bool(self._observers)
            or bool(self._mlc_wb_subs)
            or bool(self._llc_wb_subs)
            or self.dram.faults is not None
            or (is_load and not self._flat_llc)
        )
        latencies: List[int] = []
        hit_latency = self._l1_lat[core] + self._mlc_lat[core] + self._llc_lat
        miss_latency = hit_latency + DRAM_LATENCY
        txn: Optional[MemoryTransaction] = None
        pool = self._line_pool
        l1 = self.l1[core]
        mlc = self.mlc[core]
        llc_data = self._llc_data
        l1_where = l1._where
        llc_where = llc_data._where
        dir_entries = self._dir_entries
        llc_mask = self.llc._core_masks.get(core, self.llc._cpu_fill_order)
        bit = 1 << core
        misses = llc_hits = l1_evictions = mlc_evictions = dirty_wbs = clean_wbs = 0
        llc_evictions = llc_wbs = llc_drops = 0
        # The directory holds every line some core's MLC holds, and each
        # L1 lies inside its MLC, so a line it lacks is in no private
        # cache.  The freelist pops and pushes below are _make_line and
        # _retire_line, inlined.
        for addr in addrs:
            addr &= _LINE_MASK
            if per_line or addr in dir_entries:
                if txn is None:
                    txn = MemoryTransaction(kind, addr, now, core=core)
                txn.addr = addr
                self._run_cpu(txn)
                if is_load:
                    latencies.append(txn.latency)
                continue
            if addr in llc_where:
                # _run_cpu's non-inclusive LLC hit: the LLC line migrates.
                llc_hits += 1
                llc_data.lookup(addr)
                line = llc_data.remove(addr)
                assert line is not None
                line.owner = core
                if is_load:
                    latencies.append(hit_latency)
                else:
                    line.dirty = True
            else:
                misses += 1
                if is_load:
                    latencies.append(miss_latency)
                if pool:
                    line = pool.pop()
                    line.addr = addr
                    line.dirty = not is_load
                    line.origin = "cpu"
                    line.owner = core
                else:
                    line = CacheLine(addr, not is_load, "cpu", core)
            victim = mlc.insert(line)
            if victim is not None:
                # _fill_mlc's non-inclusive victim path.
                mlc_evictions += 1
                vaddr = victim.addr
                if vaddr in l1_where:
                    l1_copy = l1.remove(vaddr)
                    assert l1_copy is not None
                    if l1_copy.dirty:
                        victim.dirty = True
                    if len(pool) < 256:
                        pool.append(l1_copy)
                mask = dir_entries.get(vaddr, 0) & ~bit
                if mask:
                    dir_entries[vaddr] = mask
                else:
                    dir_entries.pop(vaddr, None)
                if victim.dirty:
                    dirty_wbs += 1
                else:
                    clean_wbs += 1
                llc_victim = llc_data.insert(victim, llc_mask)
                if llc_victim is not None:
                    llc_evictions += 1
                    if llc_victim.dirty:
                        llc_wbs += 1
                    else:
                        llc_drops += 1
                    if len(pool) < 256:
                        pool.append(llc_victim)
            dir_entries[addr] = bit
            if pool:
                line = pool.pop()
                line.addr = addr
                line.dirty = False
                line.origin = "cpu"
                line.owner = core
            else:
                line = CacheLine(addr, False, "cpu", core)
            victim = l1.insert(line)
            if victim is None:
                continue
            l1_evictions += 1
            if not victim.dirty:
                if len(pool) < 256:
                    pool.append(victim)
                continue
            # _fill_l1's dirty-victim path (only a line that was already
            # dirty in the L1 can take it).
            mlc_line = mlc.peek(victim.addr)
            if mlc_line is not None:
                mlc_line.dirty = True
                self._retire_line(victim)
            else:
                self._mlc_writeback(core, now)
                llc_victim = self.llc.fill_cpu(victim, now, core=core)
                if llc_victim is not None:
                    self._llc_victim_to_dram(llc_victim, now)
        mlc_wbs = dirty_wbs + clean_wbs
        self._apply_counts(
            now,
            (
                ("dram_reads", misses, True),
                ("llc_misses", misses, False),
                ("llc_hits", llc_hits, False),
                (self._mlc_evict_names[core], mlc_evictions, False),
                ("mlc_writebacks", mlc_wbs, True),
                (self._mlc_wb_names[core], mlc_wbs, False),
                ("mlc_writebacks_dirty", dirty_wbs, False),
                ("mlc_writebacks_clean", clean_wbs, False),
                ("llc_evictions", llc_evictions, False),
                ("dram_writes", llc_wbs, True),
                ("llc_writebacks", llc_wbs, True),
                ("llc_clean_drops", llc_drops, False),
                (self._l1_evict_names[core], l1_evictions, False),
            ),
        )
        return latencies if is_load else None

    def _apply_counts(self, now: int, counts: Iterable[Tuple[str, int, bool]]) -> None:
        """Add a fused run's summed ``(counter, count, logged)`` updates.

        Every deferred event is at ``now``, so appending them last leaves
        each stream as the per-line handlers' interleaved appends would.
        """
        cv = self._counter_values
        streams = self._event_streams
        for name, count, logged in counts:
            if count:
                cv[name] += count
                if logged:
                    streams[name].extend([now] * count)

    # ------------------------------------------------------------------
    # PCIe ingress (Fig. 1, DDIO write path)
    # ------------------------------------------------------------------

    def _run_dma_write(self, txn: MemoryTransaction) -> None:
        """A full-cacheline inbound DMA write.

        ``txn.placement`` is ``"llc"`` for the normal DDIO path or
        ``"dram"`` for IDIO's selective direct DRAM access (M3).
        """
        addr = txn.addr
        now = txn.now
        placement = txn.placement
        hops = self._active_hops
        cv = self._counter_values
        cv["pcie_writes"] += 1
        self._event_streams["pcie_writes"].append(now)
        latency = self._llc_lat

        # Tenant attribution: one falsy check when tenancy is off; with
        # tenants the range list is tiny (one entry per tenant region).
        tenant = -1
        if self._tenant_ranges:
            for start, end, t in self._tenant_ranges:
                if start <= addr < end:
                    tenant = t
                    cv[self._tenant_dma_names[t]] += 1
                    break

        # Invalidate any private (MLC/L1) copies — steps P1-1/P2-1 of Fig. 1.
        owner_mask = self._dir_entries.get(addr, 0)
        if owner_mask:
            inval_stream = self._event_streams["mlc_invalidations"]
            for core in owner_cores(owner_mask):
                dropped = self._drop_private(core, addr)
                if dropped is not None:
                    self._retire_line(dropped)
                if hops is not None:
                    hops.append(Hop("mlc", "inval", 0))
                cv["mlc_invalidations"] += 1
                inval_stream.append(now)
                cv[self._mlc_inval_names[core]] += 1
            self.llc.directory.remove(addr)

        if placement == "dram":
            # Selective direct DRAM access: drop any (stale) LLC copy and
            # write the line straight to memory.
            stale = self._llc_data.remove(addr)
            if stale is not None:
                if hops is not None:
                    hops.append(Hop("llc", "drop", 0))
                cv["llc_drop_on_direct_dram"] += 1
                self._retire_line(stale)
            latency = self.dram.write(addr, now)
            if hops is not None:
                hops.append(Hop("dram", "write", latency))
            cv["direct_dram_writes"] += 1
            self._event_streams["direct_dram_writes"].append(now)
            txn.latency = latency
            txn.level = "dram"
            return
        if placement != "llc":
            raise ValueError(f"unknown placement {placement!r}")

        resident = self._llc_data.lookup(addr)
        if resident is not None:
            # In-place update (P2-2 / P3-1): the line stays in whatever way
            # it occupies and becomes dirty I/O data.
            resident.dirty = True
            resident.origin = "io"
            if hops is not None:
                hops.append(Hop("llc", "update", latency))
            cv["ddio_updates"] += 1
        else:
            # Write-allocate into the DDIO ways (P1-2 / P5-1).
            if hops is not None:
                hops.append(Hop("llc", "fill", latency))
            victim = self.llc.fill_io(
                self._make_line(addr, True, "io", -1), now, tenant
            )
            cv["ddio_allocations"] += 1
            if victim is not None:
                self._llc_victim_to_dram(victim, now)
        txn.latency = latency
        txn.level = "llc"

    def dma_write_lines(
        self,
        addrs: Iterable[int],
        now: int,
        core: int = -1,
        tag: Optional[IdioTag] = None,
    ) -> None:
        """DMA-write every line of ``addrs`` at ``now`` with LLC placement,
        in order: one DDIO burst.

        The caches, recency stamps, directory, freelist, counters and
        event streams end exactly as one ``DMA_WRITE``
        :meth:`_run_dma_write` per address would leave them.  A line no
        directory entry holds is fused: the in-place update of a resident
        line, or the write-allocate into the DDIO ways (the tenant's I/O
        ways when a partition is installed) and its victim's way to DRAM,
        with the tenant attribution.  Its counter and event-stream
        updates are summed and applied once at the end.  A line with
        private owners takes :meth:`_run_dma_write`, and so does every
        line while an inclusive LLC, an observer, an LLC writeback
        subscriber or a DRAM fault injector could tell the difference (no
        DMA write writes an MLC line back, and none reports a NUCA
        latency).  ``core`` and ``tag`` are the request fields those
        transactions carry, so observers see what per-line writes would
        show them.
        """
        per_line = (
            self.llc.inclusive
            or bool(self._observers)
            or bool(self._llc_wb_subs)
            or self.dram.faults is not None
        )
        txn: Optional[MemoryTransaction] = None
        cv = self._counter_values
        pool = self._line_pool
        llc_data = self._llc_data
        llc_where = llc_data._where
        dir_entries = self._dir_entries
        ranges = self._tenant_ranges
        tenant_names = self._tenant_dma_names
        io_mask = self.llc._io_mask
        tenant_masks = self.llc._tenant_io_masks
        writes = updates = allocations = llc_evictions = llc_wbs = llc_drops = 0
        for addr in addrs:
            addr &= _LINE_MASK
            if per_line or addr in dir_entries:
                if txn is None:
                    txn = MemoryTransaction(DMA_WRITE, addr, now, core=core, tag=tag)
                txn.addr = addr
                self._run_dma_write(txn)
                continue
            writes += 1
            mask = io_mask
            if ranges:
                for start, end, tenant in ranges:
                    if start <= addr < end:
                        cv[tenant_names[tenant]] += 1
                        if tenant_masks:
                            mask = tenant_masks.get(tenant, io_mask)
                        break
            if addr in llc_where:
                # In-place update (P2-2 / P3-1).
                resident = llc_data.lookup(addr)
                assert resident is not None
                resident.dirty = True
                resident.origin = "io"
                updates += 1
                continue
            # Write-allocate (P1-2 / P5-1): fill_io and _make_line, inlined.
            allocations += 1
            if pool:
                line = pool.pop()
                line.addr = addr
                line.dirty = True
                line.origin = "io"
                line.owner = -1
            else:
                line = CacheLine(addr, True, "io", -1)
            victim = llc_data.insert(line, mask)
            if victim is not None:
                # _llc_victim_to_dram, non-inclusive.
                llc_evictions += 1
                if victim.dirty:
                    llc_wbs += 1
                else:
                    llc_drops += 1
                if len(pool) < 256:
                    pool.append(victim)
        self._apply_counts(
            now,
            (
                ("pcie_writes", writes, True),
                ("ddio_updates", updates, False),
                ("ddio_allocations", allocations, False),
                ("llc_evictions", llc_evictions, False),
                ("dram_writes", llc_wbs, True),
                ("llc_writebacks", llc_wbs, True),
                ("llc_clean_drops", llc_drops, False),
            ),
        )

    # ------------------------------------------------------------------
    # PCIe egress (Fig. 1, read path)
    # ------------------------------------------------------------------

    def _run_dma_read(self, txn: MemoryTransaction) -> None:
        """An outbound DMA read (NIC TX)."""
        addr = txn.addr
        now = txn.now
        hops = self._active_hops
        self._counter_values["pcie_reads"] += 1
        latency = self._llc_lat

        owner_mask = self._dir_entries.get(addr, 0)
        if owner_mask:
            for core in owner_cores(owner_mask):
                # MLC copies are invalidated and written back to LLC (Fig. 3
                # right): the egress read must observe the latest data.
                line = self._drop_private(core, addr)
                if line is None:
                    continue
                if hops is not None:
                    hops.append(Hop("mlc", "evict", 0))
                if line.dirty:
                    if hops is not None:
                        hops.append(Hop("llc", "writeback", 0))
                    self._mlc_writeback(core, now)
                line.owner = -1
                llc_victim = self.llc.fill_cpu(line, now, core=core)
                if llc_victim is not None:
                    self._llc_victim_to_dram(llc_victim, now)
            self.llc.directory.remove(addr)

        # One recency-touching lookup doubles as the presence check.
        if self._llc_data.lookup(addr) is not None:
            if hops is not None:
                hops.append(Hop("llc", "hit", latency))
            txn.latency = latency
            txn.level = "llc"
            return
        dram_latency = self.dram.read(addr, now)
        if hops is not None:
            hops.append(Hop("llc", "miss", latency))
            hops.append(Hop("dram", "read", dram_latency))
        latency += dram_latency
        txn.latency = latency
        txn.level = "dram"

    # ------------------------------------------------------------------
    # IDIO mechanisms
    # ------------------------------------------------------------------

    def _run_prefetch_fill(self, txn: MemoryTransaction) -> None:
        """Bring ``txn.addr`` into ``txn.core``'s MLC without stalling it.

        Used by the queued MLC prefetcher (§V-C).  Sets ``txn.level`` to
        the level the line came from ("llc"/"dram"), or "dropped" when
        the line is already private (no fill happened).
        """
        core = txn.core
        addr = txn.addr
        now = txn.now
        if addr in self.mlc[core]._where or addr in self.l1[core]._where:
            txn.level = "dropped"
            return
        hops = self._active_hops
        llc_line = self._llc_data.lookup(addr)
        if llc_line is not None:
            txn.level = "llc"
            if hops is not None:
                hops.append(Hop("llc", "hit", self._llc_lat))
            if self.llc.inclusive:
                new_line = self._make_line(addr, False, llc_line.origin, core)
            else:
                # The removed LLC line migrates up as-is (no copy).
                self._llc_data.remove(addr)
                new_line = llc_line
                new_line.owner = core
        else:
            txn.level = "dram"
            dram_latency = self.dram.read(addr, now)
            if hops is not None:
                hops.append(Hop("dram", "read", dram_latency))
            new_line = self._make_line(addr, False, "cpu", core)
        self._fill_mlc(core, new_line, now)
        self.llc.directory.add(addr, core)
        self._counter_values["mlc_prefetch_fills"] += 1
        self._event_streams["mlc_prefetch_fills"].append(now)

    def _run_invalidate(self, txn: MemoryTransaction) -> None:
        """The new invalidate-without-writeback maintenance operation.

        ``txn.scope="private"`` drops only the core's L1/MLC copy (the
        literal instruction semantics of §V-D); ``"all"`` additionally
        drops any LLC copy, which is the behavior the L2Fwd evaluation
        relies on ("invalidating consumed LLC-resident buffers", §VII).
        Neither scope ever writes data back — that is the entire point.
        """
        core = txn.core
        addr = txn.addr
        now = txn.now
        scope = txn.scope
        hops = self._active_hops
        dropped = self._drop_private(core, addr)
        if dropped is not None:
            if hops is not None:
                hops.append(Hop("mlc", "drop", 0))
            self.llc.directory.remove(addr, core)
            self._counter_values["self_invalidations"] += 1
            self._event_streams["self_invalidations"].append(now)
            self._retire_line(dropped)
        if scope == "all":
            removed = self._llc_data.remove(addr)
            if removed is not None:
                if hops is not None:
                    hops.append(Hop("llc", "drop", 0))
                self._counter_values["self_invalidations_llc"] += 1
                self._event_streams["self_invalidations_llc"].append(now)
                self._retire_line(removed)
        elif scope != "private":
            raise ValueError(f"unknown invalidate scope {scope!r}")
        txn.level = "invalidated" if dropped is not None else "absent"

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def where(self, addr: int) -> Dict[str, object]:
        """Locate a line for tests/diagnostics (levels holding a copy)."""
        addr = line_address(addr)
        holders: Dict[str, object] = {
            "mlc": [c for c in range(self.config.num_cores) if addr in self.mlc[c]],
            "l1": [c for c in range(self.config.num_cores) if addr in self.l1[c]],
            "llc": addr in self.llc,
            "directory": addr in self.llc.directory,
        }
        return holders
