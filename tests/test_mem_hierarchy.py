"""Tests for the memory hierarchy: the Fig. 1 / Fig. 2 data paths.

These tests pin down the exact state transitions the paper describes for
PCIe writes/reads and demand misses in a non-inclusive hierarchy, plus the
invalidate-without-writeback operation.
"""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.experiment import Experiment, run_experiment
from repro.harness.server import ServerConfig
from repro.mem.cache import CacheConfig
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.mem.line import LINE_SIZE
from repro.obs.events import MlcWritebackEvent
from tests.memtxn import cpu_access, invalidate, pcie_read, pcie_write, prefetch_fill


def make_hierarchy(num_cores=2, llc_bytes=None, ddio_ways=2, inclusive=False):
    cfg = HierarchyConfig(
        num_cores=num_cores,
        ddio_ways=ddio_ways,
        llc_inclusive=inclusive,
    )
    if llc_bytes is not None:
        cfg.llc = CacheConfig("llc", llc_bytes, 4, latency=1000)
    return MemoryHierarchy(cfg)


ADDR = 0x100000  # line-aligned test address


class TestPcieWriteIngress:
    """Fig. 1 ingress: P1-P5 cases."""

    def test_uncached_write_allocates_in_ddio_ways(self):
        h = make_hierarchy()
        pcie_write(h, ADDR, 0)
        line = h.llc.peek(ADDR)
        assert line is not None and line.dirty and line.origin == "io"
        _, way = h.llc.data.location(ADDR)
        assert way < h.llc.ddio_ways  # P5-1: write-allocate in DDIO ways

    def test_llc_resident_line_updated_in_place(self):
        h = make_hierarchy()
        # Put the line in a non-DDIO way via the CPU victim path.
        h.llc.fill_cpu(__import__("repro.mem.line", fromlist=["CacheLine"]).CacheLine(ADDR), 0)
        _, way_before = h.llc.data.location(ADDR)
        pcie_write(h, ADDR, 0)
        _, way_after = h.llc.data.location(ADDR)
        assert way_before == way_after  # P3-1: in-place update
        assert h.llc.peek(ADDR).dirty

    def test_mlc_resident_line_invalidated(self):
        h = make_hierarchy()
        # Demand-read pulls the line into core 0's MLC.
        pcie_write(h, ADDR, 0)
        cpu_access(h, 0, ADDR, False, 0)
        assert ADDR in h.mlc[0]
        pcie_write(h, ADDR, 10)
        assert ADDR not in h.mlc[0]  # P1-1: MLC copy invalidated
        assert h.stats.counters.get("mlc_invalidations") == 1
        assert ADDR in h.llc  # reallocated in DDIO ways

    def test_direct_dram_placement(self):
        h = make_hierarchy()
        pcie_write(h, ADDR, 0, placement="dram")
        assert ADDR not in h.llc
        assert h.dram.writes == 1
        assert h.stats.counters.get("direct_dram_writes") == 1

    def test_direct_dram_drops_stale_llc_copy(self):
        h = make_hierarchy()
        pcie_write(h, ADDR, 0)  # in LLC
        pcie_write(h, ADDR, 10, placement="dram")
        assert ADDR not in h.llc

    def test_direct_dram_invalidates_mlc_copy(self):
        h = make_hierarchy()
        pcie_write(h, ADDR, 0)
        cpu_access(h, 0, ADDR, False, 0)
        pcie_write(h, ADDR, 10, placement="dram")
        assert ADDR not in h.mlc[0]

    def test_unknown_placement_rejected(self):
        h = make_hierarchy()
        with pytest.raises(ValueError):
            pcie_write(h, ADDR, 0, placement="l1")

    def test_ddio_overflow_evicts_dirty_io_to_dram(self):
        # Small LLC: 4 ways x N sets, 2 DDIO ways. Overfill one set.
        h = make_hierarchy(llc_bytes=4 * 4 * LINE_SIZE)
        sets = h.llc.data.num_sets
        target_set = 0
        addrs = [(t * sets + target_set) * LINE_SIZE for t in range(3)]
        for a in addrs:
            pcie_write(h, a, 0)
        # Two DDIO ways -> third write evicted the first (dirty -> DRAM).
        assert h.dram.writes == 1
        assert h.stats.counters.get("llc_writebacks") == 1


class TestPcieReadEgress:
    """Fig. 1 egress + Fig. 3 (right): TX pulls MLC copies back to LLC."""

    def test_read_from_llc(self):
        h = make_hierarchy()
        pcie_write(h, ADDR, 0)
        pcie_read(h, ADDR, 10)
        assert h.dram.reads == 0
        assert h.stats.counters.get("pcie_reads") == 1

    def test_read_uncached_goes_to_dram(self):
        h = make_hierarchy()
        pcie_read(h, ADDR, 0)
        assert h.dram.reads == 1

    def test_read_pulls_mlc_copy_back_to_llc(self):
        h = make_hierarchy()
        pcie_write(h, ADDR, 0)
        cpu_access(h, 0, ADDR, False, 0)   # line now (dirty) in MLC
        assert ADDR in h.mlc[0] and ADDR not in h.llc
        pcie_read(h, ADDR, 10)
        assert ADDR not in h.mlc[0]
        assert ADDR in h.llc  # invalidated from MLC, back in LLC
        assert h.stats.counters.get("mlc_writebacks") == 1


class TestDemandPath:
    """Fig. 2: demand misses move data up; tags move to the directory."""

    def test_llc_hit_moves_line_to_mlc_noninclusive(self):
        h = make_hierarchy()
        pcie_write(h, ADDR, 0)
        result = cpu_access(h, 0, ADDR, False, 0)
        assert result.level == "llc"
        assert ADDR in h.mlc[0]
        assert ADDR not in h.llc           # data left the LLC
        assert ADDR in h.llc.directory     # tag moved to the directory
        assert h.mlc[0].peek(ADDR).dirty   # dirtiness carried upward

    def test_miss_everywhere_reads_dram(self):
        h = make_hierarchy()
        result = cpu_access(h, 0, ADDR, False, 0)
        assert result.level == "dram"
        assert h.dram.reads == 1
        assert ADDR in h.mlc[0]

    def test_mlc_hit(self):
        h = make_hierarchy()
        cpu_access(h, 0, ADDR, False, 0)
        # Two more lines in ADDR's L1 set evict its clean L1 copy; the
        # MLC, with more sets, keeps all three.
        l1 = h.l1[0]
        stride = l1.num_sets * LINE_SIZE
        for k in range(1, l1.assoc + 1):
            cpu_access(h, 0, ADDR + k * stride, False, k)
        assert ADDR not in l1 and ADDR in h.mlc[0]
        result = cpu_access(h, 0, ADDR, False, 10)
        assert result.level == "mlc"

    def test_write_marks_dirty(self):
        h = make_hierarchy()
        cpu_access(h, 0, ADDR, True, 0)
        assert h.mlc[0].peek(ADDR).dirty

    def test_latency_ordering(self):
        h = make_hierarchy()
        dram_lat = cpu_access(h, 0, ADDR, False, 0).latency
        mlc_lat = cpu_access(h, 0, ADDR, False, 1).latency
        assert dram_lat > mlc_lat

    def test_mlc_victim_fills_llc_any_dirtiness(self):
        """Non-inclusive victim cache: clean AND dirty MLC victims fill LLC."""
        h = make_hierarchy(num_cores=1)
        mlc_lines = h.mlc[0].config.size_bytes // LINE_SIZE
        for i in range(mlc_lines + 10):
            cpu_access(h, 0, i * LINE_SIZE, False, i)
        assert h.stats.counters.get("mlc_writebacks") == 10
        # The victims were clean (read-only): counted as clean writebacks.
        assert h.stats.counters.get("mlc_writebacks_clean") == 10

    def test_mlc_writeback_listener_called(self):
        h = make_hierarchy(num_cores=1)
        calls = []
        h.bus.subscribe(MlcWritebackEvent, lambda event: calls.append(event.core))
        mlc_lines = h.mlc[0].config.size_bytes // LINE_SIZE
        for i in range(mlc_lines + 1):
            cpu_access(h, 0, i * LINE_SIZE, False, i)
        assert calls == [0]

    def test_dma_bloating_mlc_victim_lands_in_non_ddio_way(self):
        """Obs. 3: after an MLC writeback, I/O data occupies non-DDIO ways."""
        h = make_hierarchy(num_cores=1, llc_bytes=4 * 64 * LINE_SIZE)
        pcie_write(h, ADDR, 0)
        cpu_access(h, 0, ADDR, False, 0)
        # Force the line out of the MLC by filling it with other lines
        # mapping to the same MLC set.
        mlc = h.mlc[0]
        set_idx = mlc.set_index(ADDR)
        base_tag = (ADDR // LINE_SIZE) // mlc.num_sets
        for t in range(1, mlc.assoc + 1):
            conflict = ((base_tag + t) * mlc.num_sets + set_idx) * LINE_SIZE
            cpu_access(h, 0, conflict, False, t)
        assert ADDR not in mlc
        assert ADDR in h.llc
        _, way = h.llc.data.location(ADDR)
        assert way >= h.llc.ddio_ways  # bloated into a non-DDIO way


class TestInvalidate:
    def test_invalidate_drops_without_writeback(self):
        h = make_hierarchy()
        pcie_write(h, ADDR, 0)
        cpu_access(h, 0, ADDR, True, 0)  # dirty in MLC
        dram_writes_before = h.dram.writes
        invalidate(h, 0, ADDR, 10)
        assert ADDR not in h.mlc[0]
        assert ADDR not in h.llc
        assert ADDR not in h.llc.directory
        assert h.dram.writes == dram_writes_before  # NO writeback
        assert h.stats.counters.get("self_invalidations") == 1

    def test_invalidate_private_scope_keeps_llc_copy(self):
        h = make_hierarchy()
        pcie_write(h, ADDR, 0)
        invalidate(h, 0, ADDR, 10, scope="private")
        assert ADDR in h.llc  # only private copies are dropped

    def test_invalidate_unknown_scope(self):
        h = make_hierarchy()
        with pytest.raises(ValueError):
            invalidate(h, 0, ADDR, 0, scope="everything")

    def test_invalidate_missing_line_is_noop(self):
        h = make_hierarchy()
        invalidate(h, 0, ADDR, 0)
        assert h.stats.counters.get("self_invalidations") == 0


class TestPrefetchFill:
    def test_prefetch_moves_llc_line_to_mlc(self):
        h = make_hierarchy()
        pcie_write(h, ADDR, 0)
        assert prefetch_fill(h, 0, ADDR, 10)
        assert ADDR in h.mlc[0]
        assert ADDR not in h.llc
        assert h.stats.counters.get("mlc_prefetch_fills") == 1

    def test_prefetch_noop_when_already_in_mlc(self):
        h = make_hierarchy()
        cpu_access(h, 0, ADDR, False, 0)
        assert not prefetch_fill(h, 0, ADDR, 10)

    def test_prefetch_miss_reads_dram(self):
        h = make_hierarchy()
        assert prefetch_fill(h, 0, ADDR, 0)
        assert h.dram.reads == 1


class TestL1:
    def test_l1_hit_after_first_access(self):
        h = make_hierarchy()
        cpu_access(h, 0, ADDR, False, 0)
        result = cpu_access(h, 0, ADDR, False, 1)
        assert result.level == "l1"

    def test_pcie_write_invalidates_l1_copy(self):
        h = make_hierarchy()
        pcie_write(h, ADDR, 0)
        cpu_access(h, 0, ADDR, False, 0)
        assert ADDR in h.l1[0]
        pcie_write(h, ADDR, 10)
        assert ADDR not in h.l1[0]

    def test_l1_write_propagates_dirty_to_mlc(self):
        h = make_hierarchy()
        cpu_access(h, 0, ADDR, False, 0)
        cpu_access(h, 0, ADDR, True, 1)  # L1 hit write
        assert h.mlc[0].peek(ADDR).dirty


class TestInclusiveCounterfactual:
    def test_llc_keeps_copy_on_demand_hit(self):
        h = make_hierarchy(inclusive=True)
        pcie_write(h, ADDR, 0)
        cpu_access(h, 0, ADDR, False, 0)
        assert ADDR in h.mlc[0]
        assert ADDR in h.llc  # inclusive: copy stays

    def test_llc_eviction_back_invalidates_mlc(self):
        h = make_hierarchy(num_cores=1, llc_bytes=4 * 4 * LINE_SIZE, inclusive=True)
        sets = h.llc.data.num_sets
        target = 0
        addrs = [(t * sets + target) * LINE_SIZE for t in range(6)]
        for i, a in enumerate(addrs):
            cpu_access(h, 0, a, False, i)
        # The set only holds 4 lines; earlier ones were evicted and must
        # have been back-invalidated from the MLC.
        resident_in_mlc = [a for a in addrs if a in h.mlc[0]]
        resident_in_llc = [a for a in addrs if a in h.llc]
        assert set(resident_in_mlc) <= set(resident_in_llc)

    def test_clean_mlc_victim_needs_no_llc_fill(self):
        h = make_hierarchy(num_cores=1, inclusive=True)
        mlc_lines = h.mlc[0].config.size_bytes // LINE_SIZE
        for i in range(mlc_lines + 5):
            cpu_access(h, 0, i * LINE_SIZE, False, i)
        assert h.stats.counters.get("mlc_writebacks") == 0  # clean drops


class TestConservation:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["pcie_write", "cpu_read", "cpu_write", "pcie_read", "invalidate", "prefetch"]),
        st.integers(min_value=0, max_value=63),
    ), min_size=1, max_size=200))
    def test_single_copy_location_invariant(self, ops):
        """A line is never in both the LLC data array and an MLC
        (non-inclusive), and directory state matches MLC residency."""
        h = make_hierarchy(num_cores=2, llc_bytes=4 * 8 * LINE_SIZE)
        for op, slot in ops:
            addr = slot * LINE_SIZE
            if op == "pcie_write":
                pcie_write(h, addr, 0)
            elif op == "cpu_read":
                cpu_access(h, slot % 2, addr, False, 0)
            elif op == "cpu_write":
                cpu_access(h, slot % 2, addr, True, 0)
            elif op == "pcie_read":
                pcie_read(h, addr, 0)
            elif op == "invalidate":
                invalidate(h, slot % 2, addr, 0)
            else:
                prefetch_fill(h, slot % 2, addr, 0)
        for slot in range(64):
            addr = slot * LINE_SIZE
            in_llc = addr in h.llc
            in_mlc = any(addr in h.mlc[c] for c in range(2))
            assert not (in_llc and in_mlc), f"line {addr:#x} duplicated"
            # Directory lists exactly the cores whose MLC holds the line.
            dir_owners = h.llc.directory.owners(addr)
            mlc_owners = {c for c in range(2) if addr in h.mlc[c]}
            assert dir_owners == mlc_owners


class TestPerLineState:
    def test_no_per_line_containers_after_a_burst(self):
        # The directory and the location maps hold plain ints per line
        # (owner bitmasks, ways): nothing the cyclic GC has to walk.
        result = run_experiment(
            Experiment(
                name="gc-guard",
                server=ServerConfig(ring_size=64),
                burst_rate_gbps=100.0,
                traffic="bursty",
            )
        )
        h = result.server.hierarchy
        assert len(h.llc.directory) > 0
        maps = [h.llc.directory._entries, h.llc.data._where]
        maps += [c._where for c in h.mlc]
        maps += [c._where for c in h.l1 if c is not None]
        for per_line in maps:
            assert per_line
            assert not any(gc.is_tracked(v) for v in per_line.values())
