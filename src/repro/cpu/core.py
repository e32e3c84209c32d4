"""The core model: a timed agent issuing memory accesses.

The paper's platform simulates 3-wide out-of-order aarch64 cores in gem5
(Table I).  We replace the microarchitectural pipeline with a cost model:
software work is charged in cycles, and every memory access is charged the
hierarchy's level-dependent latency.  The model is calibrated (see
``repro.harness.server``) so a core saturates near the paper's observed
~12 Gbps per-core TouchDrop capacity (§VII, steady-traffic experiment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from ..mem.hierarchy import MemoryHierarchy
from ..mem.transaction import CPU_LOAD, CPU_STORE, _LINE_MASK, MemoryTransaction
from ..sim import Simulator, units


@dataclass
class CoreStats:
    """Per-core execution statistics (CPI-style accounting)."""

    mem_accesses: int = 0
    mem_ticks: int = 0
    compute_ticks: int = 0

    def average_access_ns(self) -> float:
        """Average memory access latency in ns (the antagonist's CPI proxy)."""
        if self.mem_accesses == 0:
            return 0.0
        return units.to_nanoseconds(self.mem_ticks) / self.mem_accesses


class Core:
    """One physical core bound to the shared memory hierarchy."""

    def __init__(
        self,
        sim: Simulator,
        core_id: int,
        hierarchy: MemoryHierarchy,
    ) -> None:
        self.sim = sim
        self.core_id = core_id
        self.hierarchy = hierarchy
        self.stats = CoreStats()
        # Scratch transaction for demand accesses.  A core issues one
        # access at a time and the hierarchy executes it synchronously,
        # so the same object is re-initialized per access instead of
        # allocated, and the demand handler is invoked directly (access()
        # would only add the dispatch on kind).  Observers never see it:
        # an observed hierarchy runs and publishes a copy.
        self._scratch_txn = MemoryTransaction(CPU_LOAD, 0, 0, core=core_id)

    def _issue(self, kind: str, addr: int) -> int:
        """Issue one demand access; returns its latency in ticks.

        Body of :meth:`mem_read`/:meth:`mem_write` with the transaction
        construction and stats recording inlined (one call per access
        outside :meth:`read_lines` runs: PMD polls, headers, copies).
        """
        txn = self._scratch_txn
        txn.kind = kind
        txn.addr = addr & _LINE_MASK
        txn.now = self.sim._now
        txn.latency = 0
        txn.level = None
        self.hierarchy._run_cpu(txn)
        st = self.stats
        st.mem_accesses += 1
        latency = txn.latency
        st.mem_ticks += latency
        return latency

    def mem_read(self, addr: int) -> int:
        """Issue a demand load; returns its latency in ticks."""
        return self._issue(CPU_LOAD, addr)

    def mem_write(self, addr: int) -> int:
        """Issue a demand store; returns its latency in ticks."""
        return self._issue(CPU_STORE, addr)

    def read_lines(self, addrs: Iterable[int]) -> List[int]:
        """Issue a demand load to every line of ``addrs``, in order, in one
        :meth:`~repro.mem.hierarchy.MemoryHierarchy.demand_lines` run;
        returns each load's latency in ticks, as :meth:`mem_read` would."""
        latencies = self.hierarchy.demand_lines(self.core_id, CPU_LOAD, addrs, self.sim._now)
        assert latencies is not None
        st = self.stats
        st.mem_accesses += len(latencies)
        st.mem_ticks += sum(latencies)
        return latencies

    def compute(self, num_cycles: float) -> int:
        """Charge ``num_cycles`` of non-memory work; returns ticks."""
        ticks = units.cycles(num_cycles)
        self.stats.compute_ticks += ticks
        return ticks
