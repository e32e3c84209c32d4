"""Cross-core coherence: directory-filtered cache-to-cache transfers."""

import pytest

from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from tests.memtxn import cpu_access, pcie_write

ADDR = 0x200000


def make_hierarchy(num_cores=2):
    return MemoryHierarchy(HierarchyConfig(num_cores=num_cores))


class TestCacheToCache:
    def test_remote_dirty_line_migrates(self):
        h = make_hierarchy()
        cpu_access(h, 0, ADDR, True, 0)  # dirty in core 0's MLC
        result = cpu_access(h, 1, ADDR, False, 10)
        assert result.level == "c2c"
        assert ADDR not in h.mlc[0]
        assert ADDR in h.mlc[1]
        assert h.mlc[1].peek(ADDR).dirty  # dirtiness migrates, no DRAM trip
        assert h.dram.reads == 1  # only core 0's original fill

    def test_directory_tracks_migration(self):
        h = make_hierarchy()
        cpu_access(h, 0, ADDR, False, 0)
        cpu_access(h, 1, ADDR, False, 10)
        assert h.llc.directory.owners(ADDR) == {1}

    def test_no_stale_read_after_remote_write(self):
        """The bug this path fixes: without C2C, core 1 would read DRAM's
        stale copy while core 0 holds dirty data."""
        h = make_hierarchy()
        cpu_access(h, 0, ADDR, True, 0)
        dram_reads_before = h.dram.reads
        cpu_access(h, 1, ADDR, False, 10)
        assert h.dram.reads == dram_reads_before  # served cache-to-cache

    def test_c2c_slower_than_own_mlc_hit(self):
        h = make_hierarchy()
        cpu_access(h, 0, ADDR, False, 0)
        c2c = cpu_access(h, 1, ADDR, False, 10).latency
        own = cpu_access(h, 1, ADDR, False, 20).latency
        assert c2c > own

    def test_write_after_migration_dirties(self):
        h = make_hierarchy()
        cpu_access(h, 0, ADDR, False, 0)  # clean in core 0
        cpu_access(h, 1, ADDR, True, 10)  # migrate + write
        assert h.mlc[1].peek(ADDR).dirty

    def test_counter(self):
        h = make_hierarchy()
        cpu_access(h, 0, ADDR, False, 0)
        cpu_access(h, 1, ADDR, False, 10)
        cpu_access(h, 0, ADDR, False, 20)
        assert h.stats.counters.get("c2c_transfers") == 2

    def test_three_way_ping_pong_stays_consistent(self):
        h = make_hierarchy(num_cores=3)
        for step, core in enumerate([0, 1, 2, 0, 2, 1]):
            cpu_access(h, core, ADDR, step % 2 == 0, step)
            assert h.llc.directory.owners(ADDR) == {core}
            holders = [c for c in range(3) if ADDR in h.mlc[c]]
            assert holders == [core]


class TestWhereDiagnostic:
    def test_where_reports_holders(self):
        h = make_hierarchy()
        pcie_write(h, ADDR, 0)
        loc = h.where(ADDR)
        assert loc["llc"] is True and loc["mlc"] == []
        cpu_access(h, 1, ADDR, False, 10)
        loc = h.where(ADDR)
        assert loc["llc"] is False
        assert loc["mlc"] == [1]
        assert loc["directory"] is True

    def test_where_uncached(self):
        h = make_hierarchy()
        loc = h.where(ADDR)
        assert loc["llc"] is False and loc["mlc"] == [] and loc["directory"] is False
