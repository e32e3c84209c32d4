"""Unit tests for the cache-maintenance unit (invalidate-without-WB)."""

import pytest

from repro.cpu.maintenance import MaintenanceUnit
from repro.cpu.pagetable import InvalidatePermissionError, PageTable
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from tests.memtxn import cpu_access, pcie_write

BUF = 0x40000  # page- and line-aligned


def make_unit(with_page_table=False, scope="all"):
    h = MemoryHierarchy(HierarchyConfig(num_cores=1))
    pt = None
    if with_page_table:
        pt = PageTable()
        pt.allocate_invalidatable(BUF, 8192)
    return h, MaintenanceUnit(0, h, page_table=pt, scope=scope)


class TestInvalidateRange:
    def test_invalidates_every_line(self):
        h, unit = make_unit()
        for i in range(24):
            cpu_access(h, 0, BUF + i * 64, True, 0)
        unit.invalidate_range(BUF, 1514, 0)
        assert unit.invalidated_lines == 24
        for i in range(24):
            assert BUF + i * 64 not in h.mlc[0]

    def test_no_writeback_happens(self):
        h, unit = make_unit()
        for i in range(4):
            cpu_access(h, 0, BUF + i * 64, True, 0)  # dirty lines
        unit.invalidate_range(BUF, 256, 0)
        assert h.dram.writes == 0
        assert h.stats.counters.get("mlc_writebacks") == 0

    def test_cost_scales_with_lines(self):
        h, unit = make_unit()
        cost = unit.invalidate_range(BUF, 1514, 0)
        assert cost == 24 * MaintenanceUnit.INVALIDATE_LINE_COST

    def test_pte_check_enforced(self):
        h, unit = make_unit(with_page_table=True)
        unit.invalidate_range(BUF, 1514, 0)  # allowed
        with pytest.raises(InvalidatePermissionError):
            unit.invalidate_range(0x90000, 64, 0)  # unmapped page

    def test_private_scope_leaves_llc(self):
        h, unit = make_unit(scope="private")
        pcie_write(h, BUF, 0)
        unit.invalidate_range(BUF, 64, 0)
        assert BUF in h.llc

