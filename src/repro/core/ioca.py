"""An IOCA-style multi-tenant I/O way-partitioning controller.

IOCA ("High-Speed I/O-Aware LLC Management for Network-Centric
Multi-Tenant Platform", PAPERS.md) attacks the problem IDIO leaves open:
co-located tenants share one DDIO partition, so one tenant's inbound
burst evicts another's I/O lines and blows up its tail latency.  The
controller here is our reconstruction of that idea's control loop, not a
port of any artifact:

* every tenant owns a private slice of the DDIO partition
  (:meth:`~repro.mem.llc.NonInclusiveLLC.set_tenant_io_ways`), so DMA
  write-allocates can only evict the owner's lines;
* each epoch it reads the growth of the hierarchy's per-tenant
  ``tenant_dma_writes_t<id>`` counters and reapportions the ways above
  each tenant's quota floor toward the tenants actually moving inbound
  data, weighted by priority class.

Apportionment is deterministic (largest remainder, tenant-id
tie-break), so runs fingerprint identically across processes.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..mem.hierarchy import MemoryHierarchy
from ..sim import PeriodicTask, Simulator, units
from ..tenants.config import TenantSet

#: Priority-class weights applied to sampled DMA rates before
#: apportionment: latency-class tenants win contended ways first.
PRIORITY_WEIGHTS = {"latency": 2.0, "normal": 1.0, "bulk": 0.5}


class IOCAController:
    """Epoch-based per-tenant DDIO way reapportionment."""

    def __init__(
        self,
        sim: Simulator,
        hierarchy: MemoryHierarchy,
        tenants: TenantSet,
        interval: int = units.microseconds(10),
    ) -> None:
        llc = hierarchy.llc
        budget = llc.ddio_ways
        floors = [t.llc_way_quota for t in tenants]
        if sum(floors) > budget:
            raise ValueError(
                f"tenant way quotas sum to {sum(floors)} but the DDIO "
                f"partition has only {budget} ways"
            )
        self.sim = sim
        self.hierarchy = hierarchy
        self.tenants = tenants
        self._floors = floors
        self._dma_names = [f"tenant_dma_writes_t{t.tenant_id}" for t in tenants]
        #: Each tenant's DMA-write counter at the last epoch
        #: (``SimulatedServer.start`` resets them before the first).
        self._dma_seen = [0] * len(self._dma_names)
        #: way-count vector applied at each reallocation epoch.
        self.reallocations: List[Tuple[int, ...]] = []
        # Initial allocation: quota-proportional over the full budget.
        self._apply(self._apportion([float(f) for f in floors]))
        self._task = PeriodicTask(sim, interval, self._tick, "ioca-control")

    # -- apportionment --------------------------------------------------

    def _apportion(self, weights: Sequence[float]) -> List[int]:
        """Way counts per tenant: quota floors + largest-remainder spread.

        Each tenant keeps its ``llc_way_quota`` floor; the ways above the
        floors are split proportionally to ``weights`` with deterministic
        largest-remainder rounding (ties broken by tenant id).
        """
        budget = self.hierarchy.llc.ddio_ways
        floors = self._floors
        spare = budget - sum(floors)
        total = sum(weights)
        if total <= 0:
            weights = [1.0] * len(floors)
            total = float(len(floors))
        quotas = [w / total * spare for w in weights]
        extra = [int(q) for q in quotas]
        leftover = spare - sum(extra)
        order = sorted(
            range(len(floors)), key=lambda i: (-(quotas[i] - extra[i]), i)
        )
        for i in order[:leftover]:
            extra[i] += 1
        return [f + e for f, e in zip(floors, extra)]

    def _apply(self, counts: Sequence[int]) -> None:
        """Install contiguous per-tenant way masks in tenant order."""
        llc = self.hierarchy.llc
        start = 0
        for tenant, count in zip(self.tenants, counts):
            llc.set_tenant_io_ways(tenant.tenant_id, range(start, start + count))
            start += count
        self.reallocations.append(tuple(counts))

    def _tick(self) -> None:
        counters = self.hierarchy.stats.counters
        seen = self._dma_seen
        weights = []
        for i, tenant in enumerate(self.tenants):
            count = counters.get(self._dma_names[i])
            writes = count - seen[i]
            seen[i] = count
            weights.append(PRIORITY_WEIGHTS[tenant.priority] * (writes + 1.0))
        counts = self._apportion(weights)
        if not self.reallocations or tuple(counts) != self.reallocations[-1]:
            self._apply(counts)

    # -- teardown -------------------------------------------------------

    def stop(self) -> None:
        self._task.stop()
