"""Unit tests for the page table and the Invalidatable PTE bit (§V-D)."""

import pytest

from repro.cpu.pagetable import (
    PAGE_SIZE,
    InvalidatePermissionError,
    PageTable,
)


class TestMapping:
    def test_map_range_covers_pages(self):
        pt = PageTable()
        pt.map_range(0, 3 * PAGE_SIZE)
        for addr in (0, PAGE_SIZE, 2 * PAGE_SIZE, 3 * PAGE_SIZE - 1):
            assert pt.entry(addr) is not None

    def test_unmapped_address_has_no_entry(self):
        pt = PageTable()
        pt.map_range(0, PAGE_SIZE)
        assert pt.entry(PAGE_SIZE) is None

    def test_partial_page_rounds_up(self):
        pt = PageTable()
        pt.map_range(100, 10)  # inside page 0
        assert pt.entry(0) is not None

    def test_zero_bytes_maps_nothing(self):
        pt = PageTable()
        pt.map_range(0, 0)
        assert pt.entry(0) is None


class TestInvalidatableBit:
    def test_ordinary_pages_not_invalidatable(self):
        pt = PageTable()
        pt.map_range(0, PAGE_SIZE)
        assert not pt.is_invalidatable(0)
        with pytest.raises(InvalidatePermissionError):
            pt.check_invalidate(0)

    def test_allocated_buffers_invalidatable(self):
        pt = PageTable()
        pt.allocate_invalidatable(0, 2 * PAGE_SIZE)
        assert pt.is_invalidatable(0)
        assert pt.is_invalidatable(PAGE_SIZE + 5)
        pt.check_invalidate(0)  # must not raise

    def test_kernel_flushes_before_marking(self):
        """§V-D: the kernel flushes pages to DRAM before setting the bit,
        so a new owner can never observe stale data via invalidate."""
        flushed = []
        pt = PageTable()
        pt.allocate_invalidatable(0, 3 * PAGE_SIZE, flush=flushed.append)
        assert flushed == [0, PAGE_SIZE, 2 * PAGE_SIZE]

    def test_unmapped_address_not_invalidatable(self):
        pt = PageTable()
        with pytest.raises(InvalidatePermissionError):
            pt.check_invalidate(0x5000)

    def test_remap_clears_bit(self):
        pt = PageTable()
        pt.allocate_invalidatable(0, PAGE_SIZE)
        pt.map_range(0, PAGE_SIZE)  # remapped as ordinary memory
        assert not pt.is_invalidatable(0)
