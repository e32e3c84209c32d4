"""Opt-in runtime invariant sanitizer for the simulated memory system.

The :class:`InvariantSanitizer` is the ASan analog for the simulator: it
observes the hierarchy (:meth:`~repro.mem.hierarchy.MemoryHierarchy.observe`
hands it every completed
:class:`~repro.mem.transaction.MemoryTransaction`, hops recorded) and checks

* **per transaction** — kind/outcome well-formedness, monotone virtual
  timestamps, hop-chain legality (known components/actions, critical-path
  hops ordered by depth, hop latencies summing to the transaction
  latency), and DMA writes never landing in a currently-free mempool
  buffer;
* **at barriers** (every ``barrier_interval`` transactions, and on
  :meth:`check_all`) — MLC/LLC exclusivity for the non-inclusive
  hierarchy, L1 ⊆ MLC inclusion, directory coverage and exactness,
  cache/LRU structural consistency, 2-bit FSM state legality,
  and mempool buffer-lifecycle accounting (no leak / double free).

Every failure raises :class:`InvariantViolation` naming the violated
invariant, so a seeded-bug test (or a CI ``repro check`` run) points at
the broken model property, not a downstream symptom.

The sanitizer deliberately reads private fields of the cache containers
(``_sets``/``_last_use``, the directory's ``_entries``): it is a white-box
checker and the structural invariants *are* statements about that state.

Checked mode is strictly opt-in (``ServerConfig.checked_mode``); with it
off, no sanitizer exists and the transaction hot path is untouched.
With it on, the callers run the same loops: observing changes how each
transaction is recorded, never which transactions run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..core.fsm import STATE_MAX, STATE_MIN
from ..faults.events import FaultEvent
from ..mem.cache import SetAssociativeCache
from ..mem.hierarchy import MemoryHierarchy
from ..mem.llc import owner_cores
from ..mem.transaction import DMA_WRITE, KINDS, PREFETCH_FILL, MemoryTransaction


class InvariantViolation(AssertionError):
    """A model invariant does not hold; ``invariant`` names which one."""

    def __init__(self, invariant: str, message: str) -> None:
        super().__init__(f"[{invariant}] {message}")
        self.invariant = invariant


#: Every (component, action) pair the hierarchy's hop recording emits.
_LEGAL_HOPS: Set[Tuple[str, str]] = {
    ("l1", "hit"), ("l1", "miss"),
    ("mlc", "hit"), ("mlc", "miss"), ("mlc", "fill"),
    ("mlc", "evict"), ("mlc", "inval"), ("mlc", "drop"),
    ("directory", "c2c"),
    ("llc", "hit"), ("llc", "miss"), ("llc", "fill"), ("llc", "update"),
    ("llc", "writeback"), ("llc", "evict"), ("llc", "drop"),
    ("dram", "read"), ("dram", "write"), ("dram", "writeback"),
}

#: Topological depth of each component on the demand path; critical-path
#: hops (latency > 0) must visit components in non-decreasing depth.
_DEPTH = {"l1": 0, "mlc": 1, "directory": 2, "llc": 3, "dram": 4}

#: Levels a transaction may legally terminate at, per outcome semantics.
_LEGAL_LEVELS = {"l1", "mlc", "llc", "c2c", "dram", "dropped", "invalidated", "absent"}


class InvariantSanitizer:
    """Observes a hierarchy and asserts model invariants."""

    def __init__(
        self,
        hierarchy: MemoryHierarchy,
        barrier_interval: int = 4096,
    ) -> None:
        if barrier_interval <= 0:
            raise ValueError("barrier_interval must be positive")
        self.hierarchy = hierarchy
        self.barrier_interval = barrier_interval
        self.transactions_checked = 0
        self.barriers_run = 0
        self.violations_raised = 0
        self._last_now = 0
        self._countdown = barrier_interval
        self._pools: List = []  # repro.cpu.mempool.BufferPool
        self._controller = None  # repro.core.controller.IDIOController
        self._tenants = None  # repro.tenants.config.TenantSet
        self._attached = False
        #: Fault kinds the registered plan declares (None = no plan).
        self._declared_faults: Optional[Set[str]] = None
        #: Observed injections by kind (checked-mode fault accounting).
        self.fault_events_seen: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def attach(self) -> "InvariantSanitizer":
        """Observe the hierarchy's transactions and its bus's faults."""
        if self._attached:
            raise RuntimeError("sanitizer already attached")
        self._attached = True
        self.hierarchy.observe(self.on_transaction)
        self.hierarchy.bus.subscribe(FaultEvent, self.on_fault)
        return self

    def detach(self) -> None:
        """Stop observing; the hierarchy records no hops once its last
        observer is gone."""
        if not self._attached:
            return
        self._attached = False
        self.hierarchy.unobserve(self.on_transaction)
        self.hierarchy.bus.unsubscribe(FaultEvent, self.on_fault)

    def register_pool(self, pool) -> None:
        """Track a :class:`~repro.cpu.mempool.BufferPool`'s lifecycle."""
        self._pools.append(pool)

    def register_controller(self, controller) -> None:
        """Track an IDIO controller's per-core status FSMs."""
        self._controller = controller

    def register_tenants(self, tenants) -> None:
        """Track a :class:`~repro.tenants.config.TenantSet`'s way quotas.

        With tenants registered, every barrier additionally asserts the
        way-partition conservation invariant: per-tenant I/O way masks
        stay inside the DDIO partition, never overlap (no LLC way — and
        hence no line placement — attributed to two tenants), and their
        union never exceeds the partition.
        """
        self._tenants = tenants

    def register_faults(self, plan) -> None:
        """Declare the run's :class:`~repro.faults.plan.FaultPlan`.

        With a plan registered, every observed :class:`FaultEvent` must
        carry a kind the plan actually schedules — an event outside the
        plan means an injector is firing without provenance.
        """
        self._declared_faults = {spec.kind for spec in plan.specs}

    # ------------------------------------------------------------------
    # fault provenance
    # ------------------------------------------------------------------

    def on_fault(self, event: FaultEvent) -> None:
        self.fault_events_seen[event.kind] = (
            self.fault_events_seen.get(event.kind, 0) + 1
        )
        expected_layer = event.kind.split(".", 1)[0]
        if event.layer != expected_layer:
            self.violations_raised += 1
            raise InvariantViolation(
                "fault-provenance",
                f"fault {event.kind!r} emitted by the {event.layer!r} "
                f"injector (kind belongs to {expected_layer!r})",
            )
        if self._declared_faults is not None and event.kind not in self._declared_faults:
            self.violations_raised += 1
            raise InvariantViolation(
                "fault-provenance",
                f"fault {event.kind!r} injected but the registered plan "
                f"only declares {sorted(self._declared_faults)}",
            )

    # ------------------------------------------------------------------
    # per-transaction checks
    # ------------------------------------------------------------------

    def on_transaction(self, txn: MemoryTransaction) -> None:
        self.transactions_checked += 1
        try:
            self._check_txn(txn)
        except InvariantViolation:
            self.violations_raised += 1
            raise
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = self.barrier_interval
            self.check_all()

    def _check_txn(self, txn: MemoryTransaction) -> None:
        if txn.kind not in KINDS:
            raise InvariantViolation(
                "hop-chain", f"unknown transaction kind {txn.kind!r}"
            )
        if txn.level is not None and txn.level not in _LEGAL_LEVELS:
            raise InvariantViolation(
                "hop-chain",
                f"{txn.kind} terminated at unknown level {txn.level!r}",
            )
        if txn.latency < 0:
            raise InvariantViolation(
                "hop-chain", f"negative latency {txn.latency} on {txn!r}"
            )
        if txn.now < self._last_now:
            raise InvariantViolation(
                "monotone-time",
                f"transaction timestamp went backwards: {txn.now} after "
                f"{self._last_now} ({txn!r})",
            )
        self._last_now = txn.now
        if txn.hops:
            self._check_hops(txn)
        if txn.kind == DMA_WRITE and self._pools:
            self._check_dma_target(txn)

    def _check_hops(self, txn: MemoryTransaction) -> None:
        total = 0
        last_depth = -1
        for hop in txn.hops:
            if (hop.component, hop.action) not in _LEGAL_HOPS:
                raise InvariantViolation(
                    "hop-chain",
                    f"illegal hop ({hop.component!r}, {hop.action!r}) in {txn!r}",
                )
            if hop.latency < 0:
                raise InvariantViolation(
                    "hop-chain", f"negative hop latency {hop.latency} in {txn!r}"
                )
            total += hop.latency
            if hop.latency > 0:
                depth = _DEPTH[hop.component]
                if depth < last_depth:
                    raise InvariantViolation(
                        "hop-chain",
                        f"critical-path hop order regressed "
                        f"({hop.component!r} after depth {last_depth}) in {txn!r}",
                    )
                last_depth = depth
        # Prefetch fills are background work: they record hops but never
        # charge latency to anyone, so their sum is not constrained.
        if txn.kind != PREFETCH_FILL and total != txn.latency:
            raise InvariantViolation(
                "hop-chain",
                f"hop latencies sum to {total} but transaction latency is "
                f"{txn.latency} ({txn!r})",
            )

    def _check_dma_target(self, txn: MemoryTransaction) -> None:
        addr = txn.addr
        for pool in self._pools:
            if not pool.base <= addr < pool.base + pool.count * pool.stride:
                continue
            buffer_addr = pool.base + ((addr - pool.base) // pool.stride) * pool.stride
            if buffer_addr in pool._free:
                raise InvariantViolation(
                    "mempool-lifecycle",
                    f"DMA write to {addr:#x} targets buffer {buffer_addr:#x} "
                    "which is currently on the pool's free list "
                    "(use-after-free of a DMA buffer)",
                )

    # ------------------------------------------------------------------
    # barrier checks
    # ------------------------------------------------------------------

    def check_all(self) -> None:
        """Run every structural invariant against the current state."""
        self.barriers_run += 1
        try:
            # Structures first: the cross-level checks below read the
            # location maps, so a desynced map is reported as itself.
            self._check_cache_structures()
            self._check_hierarchy_state()
            self._check_fsm_states()
            self._check_pools()
            self._check_tenant_ways()
        except InvariantViolation:
            self.violations_raised += 1
            raise

    def _check_hierarchy_state(self) -> None:
        h = self.hierarchy
        llc_data = h.llc.data
        for core in range(h.config.num_cores):
            mlc = h.mlc[core]
            # Non-inclusive exclusivity: a line in some private MLC must
            # not simultaneously occupy an LLC data way — duplication
            # would double-count LLC occupancy and distort every
            # DDIO-way / DMA-bloat statistic the figures report.
            if not h.llc.inclusive:
                for line in mlc.lines():
                    if line.addr in llc_data:
                        raise InvariantViolation(
                            "mlc-llc-exclusivity",
                            f"line {line.addr:#x} resident in core {core}'s "
                            "MLC and in the LLC data array at once "
                            "(non-inclusive hierarchy)",
                        )
            for line in h.l1[core].lines():
                # L1 ⊆ MLC by design (the hierarchy back-invalidates L1 on
                # MLC eviction).
                if line.addr not in mlc:
                    raise InvariantViolation(
                        "l1-inclusion",
                        f"line {line.addr:#x} in core {core}'s L1 has no "
                        "MLC copy (L1 must be inclusive in MLC)",
                    )
            # Snoop-filter coverage: every MLC-resident line must be
            # tracked by the directory, else coherence (DMA invalidation,
            # c2c) silently misses the copy.
            for line in mlc.lines():
                if core not in h.llc.directory.owners(line.addr):
                    raise InvariantViolation(
                        "directory-coverage",
                        f"line {line.addr:#x} in core {core}'s MLC is not "
                        "tracked by the snoop-filter directory",
                    )
        # Directory exactness, the converse: every owner bit names a core
        # whose MLC holds the line (else snoops chase absent copies).
        for addr, mask in h.llc.directory._entries.items():
            stale = [c for c in owner_cores(mask) if c >= len(h.mlc) or addr not in h.mlc[c]]
            if stale or not mask:
                raise InvariantViolation(
                    "directory-exactness",
                    f"directory entry {addr:#x} (owner mask {mask:#b}) names "
                    f"cores {stale} whose MLCs do not hold the line",
                )

    def _check_cache_structures(self) -> None:
        h = self.hierarchy
        caches = [("llc", h.llc.data)]
        for core in range(h.config.num_cores):
            caches.append((f"mlc[{core}]", h.mlc[core]))
            caches.append((f"l1[{core}]", h.l1[core]))
        for name, cache in caches:
            self._check_one_cache(name, cache)

    def _check_one_cache(self, name: str, cache: SetAssociativeCache) -> None:
        occupied = 0
        for set_idx, cache_set in enumerate(cache._sets):
            for way, line in enumerate(cache_set):
                if line is None:
                    continue
                occupied += 1
                # location() derives the set from the address, so this
                # also catches a line parked in a set it does not hash to.
                loc = cache.location(line.addr)
                if loc != (set_idx, way):
                    raise InvariantViolation(
                        "cache-structure",
                        f"{name}: line {line.addr:#x} stored at "
                        f"({set_idx}, {way}) but located at {loc}",
                    )
        if occupied != len(cache):
            raise InvariantViolation(
                "cache-structure",
                f"{name}: {occupied} occupied ways but "
                f"{len(cache)} index entries",
            )
        for set_idx, cache_set in enumerate(cache._sets):
            row = cache._last_use[set_idx]
            for way, line in enumerate(cache_set):
                if line is not None and row[way] <= 0:
                    raise InvariantViolation(
                        "lru-consistency",
                        f"{name}: occupied way ({set_idx}, {way}) has no "
                        "LRU recency stamp",
                    )
                if line is None and row[way] != 0:
                    raise InvariantViolation(
                        "lru-consistency",
                        f"{name}: empty way ({set_idx}, {way}) carries a "
                        f"stale LRU stamp {row[way]}",
                    )

    def _check_fsm_states(self) -> None:
        if self._controller is None:
            return
        for core, fsm in enumerate(self._controller.fsm):
            if not STATE_MIN <= fsm.state <= STATE_MAX:
                raise InvariantViolation(
                    "fsm-state",
                    f"core {core}'s status FSM holds illegal state "
                    f"{fsm.state:#x}; the 2-bit counter must stay in "
                    f"[{STATE_MIN:#04b}, {STATE_MAX:#04b}]",
                )

    def _check_pools(self) -> None:
        for pool in self._pools:
            seen: Set[int] = set()
            for addr in pool._free:
                if not pool.base <= addr < pool.base + pool.count * pool.stride:
                    raise InvariantViolation(
                        "mempool-lifecycle",
                        f"free-list address {addr:#x} outside the pool range",
                    )
                if (addr - pool.base) % pool.stride:
                    raise InvariantViolation(
                        "mempool-lifecycle",
                        f"free-list address {addr:#x} is not stride-aligned",
                    )
                if addr in seen:
                    raise InvariantViolation(
                        "mempool-lifecycle",
                        f"buffer {addr:#x} appears twice on the free list "
                        "(double free)",
                    )
                seen.add(addr)
            outstanding = pool.allocations - pool.frees
            if outstanding != pool.count - len(pool._free):
                raise InvariantViolation(
                    "mempool-lifecycle",
                    f"pool accounting leak: {pool.allocations} allocs - "
                    f"{pool.frees} frees = {outstanding} outstanding, but "
                    f"{pool.count - len(pool._free)} buffers are off the "
                    "free list",
                )

    def _check_tenant_ways(self) -> None:
        if self._tenants is None:
            return
        llc = self.hierarchy.llc
        table = llc.tenant_way_table()
        if not table:
            return
        claimed: Dict[int, int] = {}
        total = 0
        for tenant, ways in sorted(table.items()):
            total += len(ways)
            for way in ways:
                if not 0 <= way < llc.ddio_ways:
                    raise InvariantViolation(
                        "tenant-way-quota",
                        f"tenant {tenant}'s mask claims way {way} outside "
                        f"the {llc.ddio_ways}-way DDIO partition",
                    )
                if way in claimed:
                    raise InvariantViolation(
                        "tenant-way-quota",
                        f"LLC way {way} claimed by tenants {claimed[way]} "
                        f"and {tenant} at once (a line in that way would be "
                        "attributed to two tenants)",
                    )
                claimed[way] = tenant
        if total > llc.ddio_ways:
            raise InvariantViolation(
                "tenant-way-quota",
                f"tenant way masks cover {total} ways but the DDIO "
                f"partition has only {llc.ddio_ways}",
            )
        # Dynamic apportionment may never starve a tenant below its
        # quota floor.
        for tenant in self._tenants:
            ways = table.get(tenant.tenant_id)
            if ways is not None and len(ways) < tenant.llc_way_quota:
                raise InvariantViolation(
                    "tenant-way-quota",
                    f"tenant {tenant.tenant_id} holds {len(ways)} ways, "
                    f"below its quota floor of {tenant.llc_way_quota}",
                )

    # ------------------------------------------------------------------

    def summary_line(self) -> str:
        faults = sum(self.fault_events_seen.values())
        fault_note = f", {faults} faults seen" if faults else ""
        return (
            f"sanitizer: {self.transactions_checked} transactions, "
            f"{self.barriers_run} barriers, "
            f"{self.violations_raised} violations{fault_note}"
        )
