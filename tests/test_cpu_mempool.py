"""Unit + property tests for the DPDK-style buffer pool."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.mempool import BufferPool, BufferPoolExhausted


class TestBufferPool:
    def test_alloc_free_roundtrip(self):
        pool = BufferPool(0x1000, 2048, 4)
        addr = pool.alloc()
        assert 0x1000 <= addr < 0x1000 + 4 * 2048
        pool.free(addr)
        assert len(pool) == 4

    def test_exhaustion_raises(self):
        pool = BufferPool(0x1000, 2048, 2)
        pool.alloc()
        pool.alloc()
        with pytest.raises(BufferPoolExhausted):
            pool.alloc()

    def test_lifo_recycling(self):
        pool = BufferPool(0x1000, 2048, 4)
        addr = pool.alloc()
        pool.free(addr)
        assert pool.alloc() == addr  # most recently freed comes back first

    def test_reserve_specific(self):
        pool = BufferPool(0x1000, 2048, 4)
        pool.reserve(0x1000)
        remaining = {pool.alloc() for _ in range(3)}
        assert 0x1000 not in remaining

    def test_reserve_unavailable_raises(self):
        pool = BufferPool(0x1000, 2048, 2)
        pool.reserve(0x1000)
        with pytest.raises(ValueError):
            pool.reserve(0x1000)

    def test_foreign_address_rejected(self):
        pool = BufferPool(0x1000, 2048, 2)
        with pytest.raises(ValueError):
            pool.free(0x9000000)

    def test_misaligned_address_rejected(self):
        pool = BufferPool(0x1000, 2048, 2)
        with pytest.raises(ValueError):
            pool.free(0x1000 + 100)

    def test_span_and_addresses(self):
        pool = BufferPool(0, 2048, 3)
        assert pool.count * pool.stride == 6144
        assert pool.addresses() == [0, 2048, 4096]

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            BufferPool(0, 0, 4)
        with pytest.raises(ValueError):
            BufferPool(0, 2048, 0)

    @settings(max_examples=30)
    @given(st.lists(st.sampled_from(["alloc", "free"]), min_size=1, max_size=100))
    def test_conservation_property(self, ops):
        pool = BufferPool(0, 2048, 8)
        held = []
        for op in ops:
            if op == "alloc":
                if len(pool):
                    held.append(pool.alloc())
                else:
                    with pytest.raises(BufferPoolExhausted):
                        pool.alloc()
            elif held:
                pool.free(held.pop())
            assert len(pool) + len(held) == 8
            assert len(set(held)) == len(held)  # no double allocation
