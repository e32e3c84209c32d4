"""The unified transaction entry point: access(txn), observers, hop records.

Covers the egress DMA (``pcie_read``) and invalidate maintenance paths
through :meth:`MemoryHierarchy.access` explicitly — including the hop
records each one produces while the hierarchy is observed — plus the
transaction/wrapper equivalences the refactor must preserve and the
observe/unobserve contract itself.
"""

import pytest

from repro.mem import (
    CPU_LOAD,
    CPU_STORE,
    DMA_READ,
    DMA_WRITE,
    INVALIDATE,
    PREFETCH_FILL,
    Hop,
    MemoryTransaction,
)
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.mem.line import LINE_SIZE
from tests.memtxn import cpu_access, cpu_access_txn, invalidate, pcie_read, pcie_write


def ignore(txn):
    pass


def make_hierarchy(num_cores=2, observed=True):
    """A hierarchy, observed by default so every access records hops."""
    h = MemoryHierarchy(HierarchyConfig(num_cores=num_cores))
    if observed:
        h.observe(ignore)
    return h


ADDR = 0x100000


def hops_of(txn):
    return [(hop.component, hop.action) for hop in txn.hops]


class TestTransactionObject:
    def test_addr_normalized_to_line(self):
        txn = MemoryTransaction(CPU_LOAD, ADDR + 17, 0)
        assert txn.addr == ADDR

    def test_origin_and_is_write(self):
        assert MemoryTransaction(DMA_WRITE, ADDR, 0).origin == "io"
        assert MemoryTransaction(PREFETCH_FILL, ADDR, 0).origin == "prefetcher"
        assert MemoryTransaction(CPU_STORE, ADDR, 0).is_write
        assert not MemoryTransaction(DMA_READ, ADDR, 0).is_write

    def test_cpu_access_txn_constructor(self):
        txn = cpu_access_txn(1, ADDR, True, 42)
        assert (txn.kind, txn.core, txn.now) == (CPU_STORE, 1, 42)

    def test_unknown_kind_rejected(self):
        h = make_hierarchy()
        with pytest.raises(ValueError, match="unknown transaction kind"):
            h.access(MemoryTransaction("teleport", ADDR, 0))

    def test_hop_latencies_sum_to_txn_latency(self):
        h = make_hierarchy()
        txn = cpu_access_txn(0, ADDR, False, 0)
        h.access(txn)
        assert txn.level == "dram"
        assert sum(hop.latency for hop in txn.hops) == txn.latency

    def test_hops_empty_when_recording_disabled(self):
        h = make_hierarchy(observed=False)
        txn = cpu_access_txn(0, ADDR, False, 0)
        h.access(txn)
        assert txn.hops == []
        assert txn.latency > 0


class TestEgressDmaPath:
    """pcie_read (NIC TX) through the typed entry point."""

    def test_llc_hit_hops(self):
        h = make_hierarchy()
        h.access(MemoryTransaction(DMA_WRITE, ADDR, 0))  # DDIO fill
        txn = MemoryTransaction(DMA_READ, ADDR, 10)
        h.access(txn)
        assert txn.level == "llc"
        assert hops_of(txn) == [("llc", "hit")]
        assert txn.latency == h.llc.config.latency

    def test_miss_goes_to_dram(self):
        h = make_hierarchy()
        txn = MemoryTransaction(DMA_READ, ADDR, 0)
        h.access(txn)
        assert txn.level == "dram"
        assert hops_of(txn) == [("llc", "miss"), ("dram", "read")]
        assert txn.latency > h.llc.config.latency
        assert txn.hops[1].latency > 0

    def test_dirty_private_copy_written_back_first(self):
        """Fig. 3 right: the egress read forces the MLC copy out via LLC."""
        h = make_hierarchy()
        cpu_access(h, 0, ADDR, True, 0)  # dirty in core 0's MLC
        txn = MemoryTransaction(DMA_READ, ADDR, 10)
        h.access(txn)
        assert hops_of(txn) == [
            ("mlc", "evict"),
            ("llc", "writeback"),
            ("llc", "hit"),
        ]
        assert txn.level == "llc"
        assert h.stats.counters.get("mlc_writebacks") == 1
        assert h.where(ADDR)["mlc"] == []

    def test_wrapper_matches_transaction(self):
        a = make_hierarchy(observed=False)
        b = make_hierarchy(observed=False)
        pcie_write(a, ADDR, 0)
        pcie_write(b, ADDR, 0)
        txn = MemoryTransaction(DMA_READ, ADDR, 10)
        b.access(txn)
        assert pcie_read(a, ADDR, 10) == txn.latency
        assert a.stats.counters.snapshot() == b.stats.counters.snapshot()


class TestInvalidatePath:
    """Invalidate-without-writeback (M1) through the typed entry point."""

    def test_drops_private_and_llc_copies(self):
        h = make_hierarchy()
        h.access(MemoryTransaction(DMA_WRITE, ADDR, 0))
        cpu_access(h, 0, ADDR, True, 1)  # dirty private copy
        txn = MemoryTransaction(INVALIDATE, ADDR, 10, core=0)
        h.access(txn)
        assert txn.level == "invalidated"
        assert hops_of(txn) == [("mlc", "drop")]
        where = h.where(ADDR)
        assert where["mlc"] == [] and where["llc"] is False
        # The whole point: no data ever moved to DRAM.
        assert h.stats.counters.get("dram_writes") == 0

    def test_llc_only_copy_dropped(self):
        h = make_hierarchy()
        h.access(MemoryTransaction(DMA_WRITE, ADDR, 0))  # LLC copy only
        txn = MemoryTransaction(INVALIDATE, ADDR, 10, core=0)
        h.access(txn)
        assert txn.level == "absent"  # nothing private was held
        assert hops_of(txn) == [("llc", "drop")]
        assert h.stats.counters.get("self_invalidations_llc") == 1

    def test_private_scope_leaves_llc_copy(self):
        h = make_hierarchy()
        h.access(MemoryTransaction(DMA_WRITE, ADDR, 0))
        cpu_access(h, 0, ADDR, False, 1)
        txn = MemoryTransaction(INVALIDATE, ADDR, 10, core=0, scope="private")
        h.access(txn)
        assert txn.level == "invalidated"
        assert hops_of(txn) == [("mlc", "drop")]

    def test_unknown_scope_rejected(self):
        h = make_hierarchy()
        with pytest.raises(ValueError, match="unknown invalidate scope"):
            h.access(MemoryTransaction(INVALIDATE, ADDR, 0, core=0, scope="bogus"))

    def test_wrapper_matches_transaction(self):
        a = make_hierarchy(observed=False)
        b = make_hierarchy(observed=False)
        for h in (a, b):
            pcie_write(h, ADDR, 0)
            cpu_access(h, 0, ADDR, True, 1)
        invalidate(a, 0, ADDR, 10)
        b.access(MemoryTransaction(INVALIDATE, ADDR, 10, core=0))
        assert a.stats.counters.snapshot() == b.stats.counters.snapshot()
        assert a.where(ADDR) == b.where(ADDR)


class TestDmaWriteHops:
    def test_ddio_fill_hop(self):
        h = make_hierarchy()
        txn = MemoryTransaction(DMA_WRITE, ADDR, 0)
        h.access(txn)
        assert ("llc", "fill") in hops_of(txn)
        assert txn.level == "llc"

    def test_ddio_update_hop(self):
        h = make_hierarchy()
        h.access(MemoryTransaction(DMA_WRITE, ADDR, 0))
        txn = MemoryTransaction(DMA_WRITE, ADDR, 5)
        h.access(txn)
        assert hops_of(txn) == [("llc", "update")]

    def test_direct_dram_hop(self):
        h = make_hierarchy()
        txn = MemoryTransaction(DMA_WRITE, ADDR, 0, placement="dram")
        h.access(txn)
        assert txn.level == "dram"
        assert hops_of(txn) == [("dram", "write")]

    def test_mlc_invalidation_hop(self):
        h = make_hierarchy()
        cpu_access(h, 0, ADDR, False, 0)  # line lands in core 0's MLC
        txn = MemoryTransaction(DMA_WRITE, ADDR, 5)
        h.access(txn)
        assert hops_of(txn)[0] == ("mlc", "inval")

    def test_unknown_placement_rejected(self):
        h = make_hierarchy()
        with pytest.raises(ValueError, match="unknown placement"):
            h.access(MemoryTransaction(DMA_WRITE, ADDR, 0, placement="moon"))


class TestCpuPathHops:
    def test_miss_path_components(self):
        h = make_hierarchy()
        txn = cpu_access_txn(0, ADDR, False, 0)
        h.access(txn)
        assert hops_of(txn) == [
            ("l1", "miss"),
            ("mlc", "miss"),
            ("llc", "miss"),
            ("dram", "read"),
            ("mlc", "fill"),
        ]

    def test_hit_after_fill(self):
        h = make_hierarchy()
        cpu_access(h, 0, ADDR, False, 0)
        txn = cpu_access_txn(0, ADDR, False, 1)
        h.access(txn)
        assert txn.level == "l1"
        assert hops_of(txn) == [("l1", "hit")]


class TestHop:
    def test_is_named_tuple(self):
        hop = Hop("llc", "fill", 7)
        assert hop.component == "llc"
        assert tuple(hop) == ("llc", "fill", 7)


class TestObserve:
    """observe()/unobserve(): the one way to watch transactions."""

    def test_hops_filled_while_observed_and_empty_after_unobserve(self):
        h = make_hierarchy(observed=False)
        h.observe(ignore)
        txn = cpu_access_txn(0, ADDR, False, 0)
        h.access(txn)
        assert hops_of(txn)[0] == ("l1", "miss")
        h.unobserve(ignore)
        txn = cpu_access_txn(0, ADDR + LINE_SIZE, False, 1)
        h.access(txn)
        assert txn.hops == []
        assert txn.level == "dram"

    def test_observers_get_one_copy_and_caller_gets_outcome(self):
        h = make_hierarchy(observed=False)
        first, second = [], []
        h.observe(first.append)
        h.observe(second.append)
        txn = MemoryTransaction(DMA_WRITE, ADDR, 7, core=1, placement="dram")
        h.access(txn)
        assert len(first) == len(second) == 1
        seen = first[0]
        assert seen is second[0]  # every observer sees the same copy
        assert seen is not txn
        assert (seen.kind, seen.addr, seen.now, seen.core, seen.placement) == (
            DMA_WRITE, ADDR, 7, 1, "dram"
        )
        assert (txn.latency, txn.level, txn.hops) == (
            seen.latency, seen.level, seen.hops
        )
        assert hops_of(seen) == [("dram", "write")]

    def test_last_unobserve_restores_class_handlers(self):
        h = make_hierarchy(observed=False)
        other = []
        h.observe(ignore)
        h.observe(other.append)
        assert "_run_cpu" in vars(h)
        h.unobserve(ignore)
        assert "_run_cpu" in vars(h)  # one observer is still watching
        h.unobserve(other.append)
        for name in ("_run_cpu", "_run_dma_write", "_run_dma_read",
                     "_run_prefetch_fill", "_run_invalidate"):
            assert name not in vars(h), name
        assert h._run_cpu.__func__ is MemoryHierarchy._run_cpu
        assert h._run_invalidate.__func__ is MemoryHierarchy._run_invalidate

    def test_unobserve_unknown_is_noop(self):
        h = make_hierarchy(observed=False)
        h.unobserve(ignore)
        h.observe(ignore)
        h.unobserve(lambda txn: None)
        assert "_run_cpu" in vars(h)

    def test_observed_and_bare_hierarchies_agree(self):
        """Observing changes what is recorded, never what happens."""
        bare = make_hierarchy(observed=False)
        watched = make_hierarchy()
        outcomes = {id(bare): [], id(watched): []}
        for h in (bare, watched):
            for i in range(200):
                addr = ADDR + (i * 7 % 48) * LINE_SIZE
                if i % 5 == 0:
                    txn = MemoryTransaction(DMA_WRITE, addr, i)
                elif i % 7 == 0:
                    txn = MemoryTransaction(DMA_READ, addr, i)
                elif i % 11 == 0:
                    txn = MemoryTransaction(INVALIDATE, addr, i, core=i % 2)
                elif i % 13 == 0:
                    txn = MemoryTransaction(PREFETCH_FILL, addr, i, core=i % 2)
                else:
                    txn = cpu_access_txn(i % 2, addr, i % 3 == 0, i)
                h.access(txn)
                outcomes[id(h)].append((txn.latency, txn.level))
        assert outcomes[id(bare)] == outcomes[id(watched)]
        assert bare.stats.counters.snapshot() == watched.stats.counters.snapshot()

    def test_scratch_callers_never_hand_out_their_scratch(self):
        """Core, root complex and maintenance unit reuse one scratch
        transaction each; observers must only ever see fresh copies."""
        from repro.cpu.core import Core
        from repro.cpu.maintenance import MaintenanceUnit
        from repro.pcie.root_complex import RootComplex
        from repro.sim import Simulator

        sim = Simulator()
        h = make_hierarchy(observed=False)
        kept = []
        h.observe(kept.append)
        core = Core(sim, 0, h)
        rc = RootComplex(sim, h)
        unit = MaintenanceUnit(0, h)
        addrs = [ADDR + i * LINE_SIZE for i in range(4)]
        rc.memory_write_batch(addrs)
        for addr in addrs:
            core.mem_read(addr)
        rc.memory_read_batch(addrs)
        unit.invalidate_range(ADDR, 4 * LINE_SIZE, 0)
        scratch = {id(core._scratch_txn), id(rc._scratch_write),
                   id(rc._scratch_read), id(unit._scratch_txn)}
        assert len(kept) == 16
        assert len({id(t) for t in kept}) == 16
        assert not scratch & {id(t) for t in kept}
        assert [t.kind for t in kept] == (
            [DMA_WRITE] * 4 + [CPU_LOAD] * 4 + [DMA_READ] * 4 + [INVALIDATE] * 4
        )
        assert [t.addr for t in kept] == addrs * 4
