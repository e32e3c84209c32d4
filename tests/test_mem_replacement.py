"""Unit + property tests for the cache's true-LRU replacement."""

import pytest
from hypothesis import given, strategies as st

from repro.mem.cache import CacheConfig, SetAssociativeCache
from repro.mem.line import LINE_SIZE, CacheLine
from repro.mem.llc import NonInclusiveLLC
from repro.mem.stats import StatsBundle


def make_cache(sets, assoc):
    return SetAssociativeCache(CacheConfig("lru", sets * assoc * LINE_SIZE, assoc, 1))


def line_in_set(cache, set_idx, tag):
    return (tag * cache.num_sets + set_idx) * LINE_SIZE


def fill_set(cache, set_idx, count):
    """Fill ways ``0..count-1`` of one set; return the line addresses."""
    addrs = [line_in_set(cache, set_idx, tag) for tag in range(count)]
    for addr in addrs:
        assert cache.insert(CacheLine(addr)) is None
    return addrs


class TestLRU:
    def test_victim_is_least_recent(self):
        c = make_cache(4, 4)
        a = fill_set(c, 0, 4)
        c.lookup(a[0])  # refresh way 0
        victim = c.insert(CacheLine(line_in_set(c, 0, 9)))
        assert victim.addr == a[1]

    def test_victim_respects_eligibility(self):
        c = make_cache(1, 4)
        a = fill_set(c, 0, 4)
        # a[0] is the set's LRU line but its way is not eligible.
        victim = c.insert(CacheLine(line_in_set(c, 0, 9)), way_mask=(2, 3))
        assert victim.addr == a[2]

    def test_untouched_way_preferred(self):
        c = make_cache(1, 4)
        fill_set(c, 0, 2)
        new = line_in_set(c, 0, 9)
        assert c.insert(CacheLine(new), way_mask=(0, 1, 2)) is None
        assert c.location(new) == (0, 2)

    def test_sets_are_independent(self):
        c = make_cache(2, 2)
        x = fill_set(c, 0, 2)
        y = fill_set(c, 1, 2)
        c.lookup(y[1])
        for _ in range(3):
            c.lookup(x[0])  # recency in set 0 must not age set 1
        victim = c.insert(CacheLine(line_in_set(c, 1, 9)))
        assert victim.addr == y[0]

    def test_empty_eligible_raises(self):
        # Masks are validated once, when the LLC installs them.
        llc = NonInclusiveLLC(CacheConfig("llc", 4 * 4 * LINE_SIZE, 4, 1), StatsBundle())
        with pytest.raises(ValueError, match="must not be empty"):
            llc.set_tenant_io_ways(0, [])

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=64))
    def test_most_recent_way_never_victim(self, accesses):
        c = make_cache(1, 8)
        a = fill_set(c, 0, 8)
        for way in accesses:
            c.lookup(a[way])
        victim = c.insert(CacheLine(line_in_set(c, 0, 9)))
        assert victim.addr != a[accesses[-1]]
