"""Unit tests for the non-inclusive LLC and snoop-filter directory."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.cache import CacheConfig
from repro.mem.line import LINE_SIZE, CacheLine
from repro.mem.llc import NonInclusiveLLC, SnoopFilterDirectory, owner_cores
from repro.mem.stats import StatsBundle


def make_llc(assoc=4, sets=4, ddio_ways=2, **kwargs):
    cfg = CacheConfig("llc", sets * assoc * LINE_SIZE, assoc, latency=1)
    return NonInclusiveLLC(cfg, StatsBundle(), ddio_ways=ddio_ways, **kwargs)


def addr_in_set(llc, set_idx, tag):
    return (tag * llc.data.num_sets + set_idx) * LINE_SIZE


class TestDirectory:
    def test_add_and_owners(self):
        d = SnoopFilterDirectory()
        d.add(0, 1)
        d.add(0, 2)
        assert d.owners(0) == {1, 2}
        assert 0 in d

    def test_remove_single_owner(self):
        d = SnoopFilterDirectory()
        d.add(64, 0)
        d.add(64, 1)
        d.remove(64, 0)
        assert d.owners(64) == {1}

    def test_remove_last_owner_drops_entry(self):
        d = SnoopFilterDirectory()
        d.add(64, 0)
        d.remove(64, 0)
        assert 64 not in d
        assert len(d) == 0

    def test_remove_whole_entry(self):
        d = SnoopFilterDirectory()
        d.add(64, 0)
        d.add(64, 1)
        d.remove(64)
        assert 64 not in d

    def test_remove_unknown_is_noop(self):
        d = SnoopFilterDirectory()
        d.remove(128)  # must not raise

    def test_unbounded_never_evicts(self):
        d = SnoopFilterDirectory()
        for i in range(1000):
            d.add(i * 64, 0)
        assert len(d) == 1000
        assert all(d.get(i * 64) == 0b1 for i in range(1000))

    def test_get_returns_owner_mask(self):
        d = SnoopFilterDirectory()
        assert d.get(64) == 0
        d.add(64, 0)
        d.add(64, 3)
        assert d.get(64) == 0b1001
        assert owner_cores(d.get(64)) == [0, 3]


class _SetDirectory:
    """Reference model: the owner-set directory the bitmask one replaced,
    a dict from line address to a set of owner cores."""

    def __init__(self):
        self.entries = {}

    def add(self, addr, core):
        self.entries.setdefault(addr, set()).add(core)

    def remove(self, addr, core=None):
        owners = self.entries.get(addr)
        if owners is None:
            return
        if core is not None:
            owners.discard(core)
        if core is None or not owners:
            del self.entries[addr]


directory_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove-core", "remove"]),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=60,
)


class TestDirectoryDifferential:
    @settings(max_examples=200, deadline=None)
    @given(directory_ops)
    def test_bitmask_directory_matches_owner_sets(self, ops):
        d = SnoopFilterDirectory()
        ref = _SetDirectory()
        for op, line, core in ops:
            addr = line * LINE_SIZE
            if op == "add":
                d.add(addr, core)
                ref.add(addr, core)
            elif op == "remove-core":
                d.remove(addr, core)
                ref.remove(addr, core)
            else:
                d.remove(addr)
                ref.remove(addr)
            assert len(d) == len(ref.entries)
            for a in range(0, 8 * LINE_SIZE, LINE_SIZE):
                assert d.owners(a) == ref.entries.get(a, set())


class TestDDIOWayPartition:
    def test_io_fills_limited_to_ddio_ways(self):
        llc = make_llc(assoc=4, sets=1, ddio_ways=2)
        now = 0
        # Three IO fills into a set with 2 DDIO ways: third evicts the first.
        a0, a1, a2 = (addr_in_set(llc, 0, t) for t in range(3))
        assert llc.fill_io(CacheLine(a0, dirty=True), now) is None
        assert llc.fill_io(CacheLine(a1, dirty=True), now) is None
        victim = llc.fill_io(CacheLine(a2, dirty=True), now)
        assert victim is not None and victim.addr == a0

    def test_io_fill_never_evicts_cpu_lines_outside_ddio_ways(self):
        llc = make_llc(assoc=4, sets=1, ddio_ways=2)
        cpu_addr = addr_in_set(llc, 0, 10)
        llc.fill_cpu(CacheLine(cpu_addr), 0)
        for t in range(6):
            llc.fill_io(CacheLine(addr_in_set(llc, 0, t), dirty=True), 0)
        assert cpu_addr in llc

    def test_cpu_fill_prefers_non_ddio_ways(self):
        llc = make_llc(assoc=4, sets=1, ddio_ways=2)
        llc.fill_cpu(CacheLine(addr_in_set(llc, 0, 0)), 0)
        set_idx, way = llc.data.location(addr_in_set(llc, 0, 0))
        assert way >= llc.ddio_ways

    def test_cpu_fill_can_spill_into_ddio_ways_when_set_full(self):
        llc = make_llc(assoc=4, sets=1, ddio_ways=2)
        for t in range(3):
            llc.fill_cpu(CacheLine(addr_in_set(llc, 0, t)), 0)
        # Ways 2,3 full; third CPU line went into a DDIO way.
        ways = {llc.data.location(addr_in_set(llc, 0, t))[1] for t in range(3)}
        assert ways & {0, 1}

    def test_invalid_ddio_ways_rejected(self):
        with pytest.raises(ValueError):
            make_llc(assoc=4, ddio_ways=0)
        with pytest.raises(ValueError):
            make_llc(assoc=4, ddio_ways=5)

    def test_io_occupancy_counts_io_lines(self):
        llc = make_llc()
        llc.fill_io(CacheLine(0, dirty=True), 0)
        llc.fill_cpu(CacheLine(64), 0)
        assert [line.origin for line in llc.data.lines()].count("io") == 1


class TestCATMasks:
    def test_core_mask_restricts_fills(self):
        llc = make_llc(assoc=4, sets=1)
        llc.set_core_way_mask(0, [3])
        a0, a1 = addr_in_set(llc, 0, 0), addr_in_set(llc, 0, 1)
        llc.fill_cpu(CacheLine(a0), 0, core=0)
        victim = llc.fill_cpu(CacheLine(a1), 0, core=0)
        assert victim is not None and victim.addr == a0

    def test_unmasked_core_uses_full_order(self):
        llc = make_llc(assoc=4, sets=1)
        llc.set_core_way_mask(0, [3])
        # Core 1 has no mask: it can use the other ways freely.
        for t in range(3):
            assert llc.fill_cpu(CacheLine(addr_in_set(llc, 0, t)), 0, core=1) is None

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            make_llc().set_core_way_mask(0, [])

    def test_out_of_range_mask_rejected(self):
        with pytest.raises(ValueError):
            make_llc(assoc=4).set_core_way_mask(0, [4])


class TestUpdateInPlace:
    def test_existing_line_updated_not_reallocated(self):
        llc = make_llc(assoc=4, sets=1)
        addr = addr_in_set(llc, 0, 0)
        llc.fill_cpu(CacheLine(addr), 0)  # lands in a non-DDIO way
        _, way_before = llc.data.location(addr)
        llc.fill_io(CacheLine(addr, dirty=True), 0)  # in-place update
        _, way_after = llc.data.location(addr)
        assert way_before == way_after
        assert llc.peek(addr).dirty
