"""Seeded-bug tests: every sanitizer invariant fires on a planted violation.

Each test corrupts one specific piece of model state (or feeds one
malformed transaction) and asserts the :class:`InvariantSanitizer` raises
:class:`InvariantViolation` naming exactly that invariant — the checker
must point at the broken property, not a downstream symptom.  The final
tests prove the other direction: real simulated traffic stays clean.
"""

from types import SimpleNamespace

import pytest

from repro.analysis import InvariantSanitizer, InvariantViolation
from repro.core.fsm import StatusFSM
from repro.cpu.mempool import BufferPool
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.mem.line import CacheLine
from repro.mem.transaction import (
    CPU_LOAD,
    DMA_WRITE,
    Hop,
    MemoryTransaction,
)
from tests.traffic import offer_bursts


def make_hierarchy(**kwargs):
    kwargs.setdefault("num_cores", 2)
    return MemoryHierarchy(HierarchyConfig(**kwargs))


def make_sanitizer(h=None, **kwargs):
    h = h or make_hierarchy(**kwargs)
    return h, InvariantSanitizer(h).attach()


def warm(h, core=0, addrs=range(0, 0x4000, 64)):
    for addr in addrs:
        h.access(MemoryTransaction(CPU_LOAD, addr, 0, core=core))


def expect(invariant):
    return pytest.raises(InvariantViolation, match=rf"\[{invariant}\]")


# ---------------------------------------------------------------------------
# structural barriers on corrupted state
# ---------------------------------------------------------------------------


class TestHierarchyState:
    def test_mlc_llc_duplicate_line(self):
        h, san = make_sanitizer()
        warm(h)
        line = next(h.mlc[0].lines())
        # Plant the non-inclusive violation: the same address resident in
        # both a private MLC and the LLC data array.
        h.llc.data.insert(CacheLine(line.addr))
        with expect("mlc-llc-exclusivity") as excinfo:
            san.check_all()
        assert excinfo.value.invariant == "mlc-llc-exclusivity"
        assert f"{line.addr:#x}" in str(excinfo.value)

    def test_l1_without_mlc_copy(self):
        h, san = make_sanitizer()
        warm(h)
        l1_line = next(h.l1[0].lines())
        # Drop the MLC copy behind the hierarchy's back; L1 ⊆ MLC breaks.
        h.mlc[0].remove(l1_line.addr)
        h.llc.directory.remove(l1_line.addr, 0)
        with expect("l1-inclusion"):
            san.check_all()

    def test_untracked_mlc_line(self):
        h, san = make_sanitizer()
        warm(h)
        line = next(h.mlc[0].lines())
        # A coherence bug: the snoop filter forgets an MLC-resident line.
        h.llc.directory.remove(line.addr, 0)
        with expect("directory-coverage"):
            san.check_all()

    def test_stale_directory_owner_bit(self):
        h, san = make_sanitizer()
        warm(h)
        line = next(h.mlc[0].lines())
        # The converse bug: the snoop filter names core 1 as an owner of
        # a line only core 0's MLC holds.
        h.llc.directory.add(line.addr, 1)
        with expect("directory-exactness") as excinfo:
            san.check_all()
        assert "[1]" in str(excinfo.value)


class TestCacheStructure:
    def test_where_index_desync(self):
        h, san = make_sanitizer()
        warm(h)
        cache = h.mlc[0]
        addr = next(cache.lines()).addr
        del cache._where[addr]
        with expect("cache-structure"):
            san.check_all()

    def test_lru_stamp_cleared_on_occupied_way(self):
        h, san = make_sanitizer()
        warm(h)
        cache = h.mlc[0]
        addr = next(cache.lines()).addr
        set_idx, way = cache.location(addr)
        cache._last_use[set_idx][way] = 0
        with expect("lru-consistency"):
            san.check_all()


class TestFsmAndPools:
    def test_illegal_fsm_state(self):
        h, san = make_sanitizer()
        fsm = StatusFSM()
        fsm.state = 0b111  # beyond the 2-bit saturating range
        san.register_controller(SimpleNamespace(fsm=[fsm]))
        with expect("fsm-state"):
            san.check_all()

    def test_double_free(self):
        h, san = make_sanitizer()
        pool = BufferPool(0x10000, 2048, 4)
        san.register_pool(pool)
        addr = pool.alloc()
        pool.free(addr)
        pool.free(addr)
        with expect("mempool-lifecycle") as excinfo:
            san.check_all()
        assert "double free" in str(excinfo.value)

    def test_accounting_leak(self):
        h, san = make_sanitizer()
        pool = BufferPool(0x10000, 2048, 4)
        san.register_pool(pool)
        # A buffer vanishes without going through alloc(): leak.
        pool._free.pop()
        with expect("mempool-lifecycle") as excinfo:
            san.check_all()
        assert "leak" in str(excinfo.value)


# ---------------------------------------------------------------------------
# per-transaction checks on malformed transactions
# ---------------------------------------------------------------------------


class TestTransactionChecks:
    def test_non_monotone_timestamps(self):
        h, san = make_sanitizer()
        san.on_transaction(MemoryTransaction(CPU_LOAD, 0x100, 1000, core=0))
        with expect("monotone-time"):
            san.on_transaction(MemoryTransaction(CPU_LOAD, 0x140, 500, core=0))

    def test_reversed_hop_depth(self):
        h, san = make_sanitizer()
        txn = MemoryTransaction(CPU_LOAD, 0x100, 0, core=0)
        txn.level = "mlc"
        txn.latency = 15
        # dram (depth 4) before mlc (depth 1) on the critical path.
        txn.hops = [Hop("dram", "read", 10), Hop("mlc", "hit", 5)]
        with expect("hop-chain") as excinfo:
            san.on_transaction(txn)
        assert "regressed" in str(excinfo.value)

    def test_hop_sum_mismatch(self):
        h, san = make_sanitizer()
        txn = MemoryTransaction(CPU_LOAD, 0x100, 0, core=0)
        txn.level = "mlc"
        txn.latency = 99
        txn.hops = [Hop("mlc", "hit", 5)]
        with expect("hop-chain") as excinfo:
            san.on_transaction(txn)
        assert "sum" in str(excinfo.value)

    def test_illegal_hop_pair(self):
        h, san = make_sanitizer()
        txn = MemoryTransaction(CPU_LOAD, 0x100, 0, core=0)
        txn.level = "mlc"
        txn.latency = 5
        txn.hops = [Hop("mlc", "teleport", 5)]
        with expect("hop-chain"):
            san.on_transaction(txn)

    def test_unknown_level(self):
        h, san = make_sanitizer()
        txn = MemoryTransaction(CPU_LOAD, 0x100, 0, core=0)
        txn.level = "l9"
        with expect("hop-chain"):
            san.on_transaction(txn)

    def test_dma_write_into_free_buffer(self):
        h, san = make_sanitizer()
        pool = BufferPool(0x10000, 2048, 4)
        san.register_pool(pool)
        keep = pool.alloc()  # 0x11800 (LIFO pops the top)
        # DMA into a buffer still on the free list: use-after-free.
        txn = MemoryTransaction(DMA_WRITE, pool.base + 64, 0)
        with expect("mempool-lifecycle") as excinfo:
            san.on_transaction(txn)
        assert "free list" in str(excinfo.value)
        # DMA into the allocated buffer is fine.
        san.on_transaction(MemoryTransaction(DMA_WRITE, keep, 10))


# ---------------------------------------------------------------------------
# the other direction: real traffic stays clean
# ---------------------------------------------------------------------------


class TestCleanRuns:
    def test_real_traffic_is_clean(self):
        h, san = make_sanitizer()
        warm(h, core=0)
        warm(h, core=1, addrs=range(0x2000, 0x6000, 64))
        for addr in range(0, 0x1000, 64):
            h.access(MemoryTransaction(DMA_WRITE, addr, 100))
        san.check_all()
        assert san.violations_raised == 0
        # attach() put the sanitizer on the bus, so the accesses above were
        # checked per-transaction too.
        assert san.transactions_checked > 0

    def test_barrier_fires_from_bus_traffic(self):
        h = make_hierarchy()
        san = InvariantSanitizer(h, barrier_interval=16).attach()
        warm(h)
        assert san.barriers_run > 0
        assert san.violations_raised == 0

    def test_detach_restores_hop_recording(self):
        h = make_hierarchy()
        before = h.access(MemoryTransaction(CPU_LOAD, 0x10000, 0, core=0))
        assert before.hops == []
        san = InvariantSanitizer(h, barrier_interval=8).attach()
        during = h.access(MemoryTransaction(CPU_LOAD, 0x10040, 0, core=0))
        assert during.hops and sum(hop.latency for hop in during.hops) == during.latency
        san.detach()
        after = h.access(MemoryTransaction(CPU_LOAD, 0x10080, 0, core=0))
        assert after.hops == []
        checked = san.transactions_checked
        warm(h)
        assert san.transactions_checked == checked

    def test_checked_mode_server_wiring(self):
        from repro.core import policies
        from repro.harness.server import ServerConfig, SimulatedServer
        from repro.sim import units

        server = SimulatedServer(
            ServerConfig(
                policy=policies.idio(),
                ring_size=256,
                recycle_mode="reallocate",
                checked_mode=True,
                checked_barrier_interval=256,
            )
        )
        assert server.sanitizer is not None
        assert server.sanitizer._controller is server.steering
        assert server.sanitizer._pools  # reallocate mode has buffer pools
        server.start()
        offer_bursts(server, rate_gbps=25.0, start=units.microseconds(20))
        server.run_until_drained(deadline=units.milliseconds(12))
        server.sanitizer.check_all()
        assert server.sanitizer.violations_raised == 0
        assert server.sanitizer.barriers_run > 0

    def test_unchecked_server_has_no_sanitizer(self):
        from repro.harness.server import ServerConfig, SimulatedServer

        server = SimulatedServer(ServerConfig())
        assert server.sanitizer is None
        txn = server.hierarchy.access(MemoryTransaction(CPU_LOAD, 0x1000, 0, core=0))
        assert txn.hops == []
