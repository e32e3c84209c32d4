"""Unit + property tests for the generic set-associative cache."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.cache import CacheConfig, SetAssociativeCache
from repro.mem.line import LINE_SIZE, CacheLine
from repro.mem.llc import NonInclusiveLLC
from repro.mem.stats import StatsBundle


def small_cache(assoc=4, sets=4):
    return SetAssociativeCache(CacheConfig("test", sets * assoc * LINE_SIZE, assoc, latency=1))


def addr_for_set(cache, set_idx, tag=0):
    """Line address mapping to set ``set_idx`` with distinct tag."""
    return (tag * cache.num_sets + set_idx) * LINE_SIZE


class TestGeometry:
    def test_num_sets(self):
        cfg = CacheConfig("c", 1024 * 1024, 8, 1)
        assert cfg.num_sets == 2048

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig("c", 1000, 3, 1).validate()

    def test_non_power_of_two_set_count_indexes_by_modulo(self):
        c = SetAssociativeCache(CacheConfig("llc", 4608 * 1024, 12, 1))
        assert c.num_sets == 6144
        addr = (7 * 6144 + 6143) * LINE_SIZE
        c.insert(CacheLine(addr))
        assert c.location(addr)[0] == 6143
        assert c.lookup(addr) is not None and c.remove(addr).addr == addr

    def test_table1_mlc_geometry(self):
        cfg = CacheConfig("mlc", 1024 * 1024, 8, 1)
        cfg.validate()
        assert cfg.num_sets * cfg.assoc == 16384  # 1 MB of 64 B lines


class TestBasicOps:
    def test_insert_then_lookup(self):
        c = small_cache()
        c.insert(CacheLine(0))
        assert c.lookup(0) is not None
        assert 0 in c

    def test_miss_returns_none(self):
        c = small_cache()
        assert c.lookup(0) is None

    def test_peek_does_not_touch_recency(self):
        c = small_cache(assoc=2, sets=1)
        a, b = addr_for_set(c, 0, 0), addr_for_set(c, 0, 1)
        c.insert(CacheLine(a))
        c.insert(CacheLine(b))
        c.peek(a)  # should NOT refresh a
        victim = c.insert(CacheLine(addr_for_set(c, 0, 2)))
        assert victim.addr == a

    def test_lookup_refreshes_recency(self):
        c = small_cache(assoc=2, sets=1)
        a, b = addr_for_set(c, 0, 0), addr_for_set(c, 0, 1)
        c.insert(CacheLine(a))
        c.insert(CacheLine(b))
        c.lookup(a)
        victim = c.insert(CacheLine(addr_for_set(c, 0, 2)))
        assert victim.addr == b

    def test_insert_existing_updates_in_place(self):
        c = small_cache()
        c.insert(CacheLine(0, dirty=False))
        victim = c.insert(CacheLine(0, dirty=True))
        assert victim is None
        assert c.peek(0).dirty
        assert len(c) == 1

    def test_dirty_is_sticky_on_update(self):
        c = small_cache()
        c.insert(CacheLine(0, dirty=True))
        c.insert(CacheLine(0, dirty=False))
        assert c.peek(0).dirty

    def test_remove(self):
        c = small_cache()
        c.insert(CacheLine(0))
        removed = c.remove(0)
        assert removed.addr == 0
        assert 0 not in c
        assert c.remove(0) is None

    def test_eviction_on_full_set(self):
        c = small_cache(assoc=2, sets=1)
        c.insert(CacheLine(addr_for_set(c, 0, 0)))
        c.insert(CacheLine(addr_for_set(c, 0, 1)))
        victim = c.insert(CacheLine(addr_for_set(c, 0, 2)))
        assert victim is not None
        assert len(c) == 2

    def test_clear(self):
        c = small_cache()
        c.insert(CacheLine(0))
        c.clear()
        assert len(c) == 0


class TestWayMasks:
    def test_fill_restricted_to_mask(self):
        c = small_cache(assoc=4, sets=1)
        # Fill ways 0-1 via mask, then verify victims come from the mask.
        a0, a1, a2 = (addr_for_set(c, 0, t) for t in range(3))
        c.insert(CacheLine(a0), way_mask=[0, 1])
        c.insert(CacheLine(a1), way_mask=[0, 1])
        victim = c.insert(CacheLine(a2), way_mask=[0, 1])
        assert victim is not None
        assert victim.addr == a0  # LRU within the mask

    def test_masked_fill_does_not_evict_outside_mask(self):
        c = small_cache(assoc=4, sets=1)
        outside = addr_for_set(c, 0, 9)
        c.insert(CacheLine(outside), way_mask=[2])
        for t in range(5):
            c.insert(CacheLine(addr_for_set(c, 0, t)), way_mask=[0, 1])
        assert outside in c

    # The cache trusts its masks: the LLC's setters validate each mask
    # once, when it is installed, so these checks live there.
    def test_empty_mask_rejected(self):
        llc = NonInclusiveLLC(CacheConfig("llc", 4 * 4 * LINE_SIZE, 4, 1), StatsBundle())
        with pytest.raises(ValueError, match="must not be empty"):
            llc.set_core_way_mask(0, [])
        with pytest.raises(ValueError, match="must not be empty"):
            llc.set_tenant_io_ways(0, [])

    def test_out_of_range_way_rejected(self):
        llc = NonInclusiveLLC(CacheConfig("llc", 2 * LINE_SIZE, 2, 1), StatsBundle(), ddio_ways=1)
        with pytest.raises(ValueError, match="outside the LLC's 2 ways"):
            llc.set_core_way_mask(0, [5])
        with pytest.raises(ValueError, match="outside the 1-way DDIO partition"):
            llc.set_tenant_io_ways(0, [1])

    def test_mask_order_controls_empty_slot_preference(self):
        c = small_cache(assoc=4, sets=1)
        c.insert(CacheLine(addr_for_set(c, 0, 0)), way_mask=[2, 3, 0, 1])
        # The line should occupy way 2 (first in the preference order).
        assert c.location(addr_for_set(c, 0, 0)) == (0, 2)


class TestOccupancy:
    def test_occupancy_by_origin(self):
        c = small_cache()
        c.insert(CacheLine(0, origin="io"))
        c.insert(CacheLine(64, origin="cpu"))
        c.insert(CacheLine(128, origin="io"))
        assert Counter(line.origin for line in c.lines()) == {"io": 2, "cpu": 1}


@st.composite
def op_sequences(draw):
    n_ops = draw(st.integers(min_value=1, max_value=120))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["insert", "remove", "lookup"]))
        addr = draw(st.integers(min_value=0, max_value=63)) * LINE_SIZE
        ops.append((kind, addr))
    return ops


class TestProperties:
    @settings(max_examples=50)
    @given(op_sequences())
    def test_capacity_and_consistency_invariants(self, ops):
        c = small_cache(assoc=2, sets=4)
        for kind, addr in ops:
            if kind == "insert":
                c.insert(CacheLine(addr))
            elif kind == "remove":
                c.remove(addr)
            else:
                c.lookup(addr)
            # Invariant 1: never exceed capacity (per set and total).
            assert len(c) <= c.num_sets * c.assoc
            # Invariant 2: the address index agrees with the stored lines.
            stored = sorted(line.addr for line in c.lines())
            assert stored == sorted(c._where.keys())
            # Invariant 3: each line sits in the set its address maps to,
            # in the way the location map records.
            for set_idx, cache_set in enumerate(c._sets):
                for way, line in enumerate(cache_set):
                    if line is not None:
                        assert c.location(line.addr) == (set_idx, way)

    @settings(max_examples=30)
    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=80))
    def test_most_recent_insert_always_resident(self, tags):
        c = small_cache(assoc=2, sets=2)
        for tag in tags:
            addr = tag * LINE_SIZE
            c.insert(CacheLine(addr))
            assert addr in c
