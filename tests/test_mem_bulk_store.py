"""Differential tests: ``MemoryHierarchy.store_lines`` equals per-line stores.

``store_lines`` is the warm-up entry point.  It fuses the full-miss
store of a line nothing holds and defers its counter and event-stream
updates, and it hands every other line to ``_run_cpu``.  The reference
is a twin hierarchy that gets one ``CPU_STORE`` transaction per address,
in order.  After both run, every cache (contents, ``_where`` order,
recency stamps and ``_tick``), the directory (in insertion order), the
line freelist, the counters and every event stream must be equal.

Hypothesis draws a small geometry (so fills evict at every level), an
inclusive or non-inclusive LLC, an optional CAT mask on the storing
core, a monolithic or sliced LLC, and a random pre-state of demand
loads and stores, DMA writes and reads, prefetch fills and invalidates
on random cores.  The store list always includes lines resident in the
storing core's L1, its MLC and the LLC, lines another core owns,
unaligned addresses and repeats.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mem.cache import CacheConfig
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.mem.line import LINE_SIZE
from repro.mem.transaction import (
    CPU_LOAD,
    CPU_STORE,
    DMA_READ,
    DMA_WRITE,
    INVALIDATE,
    PREFETCH_FILL,
    MemoryTransaction,
)

NUM_CORES = 3
NUM_LINES = 96
BASE = 0x4000_0000
NOW = 7


def _build(inclusive, cat, slices):
    h = MemoryHierarchy(
        HierarchyConfig(
            num_cores=NUM_CORES,
            l1=CacheConfig("l1d", 2 * 2 * LINE_SIZE, 2, 1),
            mlc=CacheConfig("mlc", 4 * 4 * LINE_SIZE, 4, 2),
            llc=CacheConfig("llc", 4 * 6 * LINE_SIZE, 6, 3),
            ddio_ways=2,
            llc_inclusive=inclusive,
            llc_slices=slices,
        )
    )
    if cat is not None:
        core, ways = cat
        h.llc.set_core_way_mask(core, ways)
    return h


def _addr(index):
    return BASE + index * LINE_SIZE


def _state(h):
    caches = h.l1 + h.mlc + [h.llc.data]
    return (
        [
            (
                [
                    [None if line is None else (line.addr, line.dirty, line.origin, line.owner)
                     for line in cache_set]
                    for cache_set in cache._sets
                ],
                list(cache._where.items()),
                cache._last_use,
                cache._tick,
            )
            for cache in caches
        ],
        list(h.llc.directory._entries.items()),
        len(h._line_pool),
        h.stats.counters.snapshot(),
        {name: list(times) for name, times in h.stats._event_streams.items()},
    )


def _targets(h, core):
    """One line of each kind the fused path must hand to ``_run_cpu``."""
    l1 = sorted(h.l1[core]._where)
    mlc_only = sorted(set(h.mlc[core]._where) - set(l1))
    llc = sorted(h.llc.data._where)
    remote = sorted(
        addr for addr, mask in h.llc.directory._entries.items() if mask & ~(1 << core)
    )
    return [kind[0] for kind in (l1, mlc_only, llc, remote) if kind]


#: Prefetch fills can leave a line in two MLCs, so an MLC victim of the
#: bulk stores may already sit in the LLC.
PRE_OP = st.tuples(
    st.sampled_from([CPU_LOAD, CPU_STORE, DMA_WRITE, DMA_READ, PREFETCH_FILL, INVALIDATE]),
    st.integers(0, NUM_CORES - 1),
    st.integers(0, NUM_LINES - 1),
)


@st.composite
def scenarios(draw):
    inclusive = draw(st.booleans())
    slices = draw(st.sampled_from([0, 2]))
    core = draw(st.integers(0, NUM_CORES - 1))
    # A CAT mask on the storing core confines its MLC victims' LLC fills.
    cat_ways = draw(
        st.one_of(st.none(), st.lists(st.integers(0, 5), min_size=1, max_size=5, unique=True))
    )
    cat = None if cat_ways is None else (core, cat_ways)
    pre = draw(st.lists(PRE_OP, max_size=80))
    stores = draw(
        st.lists(
            st.tuples(st.integers(0, NUM_LINES - 1), st.integers(0, LINE_SIZE - 1)),
            min_size=20,
            max_size=60,
        )
    )
    slots = draw(st.lists(st.integers(0, 60), min_size=4, max_size=4))
    return inclusive, slices, cat, pre, core, stores, slots


def _apply_pre(h, pre):
    for kind, core, index in pre:
        io = kind in (DMA_WRITE, DMA_READ)
        h.access(MemoryTransaction(kind, _addr(index), 1, core=-1 if io else core))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_store_lines_equals_per_line_stores(scenario):
    inclusive, slices, cat, pre, core, stores, slots = scenario
    bulk = _build(inclusive, cat, slices)
    ref = _build(inclusive, cat, slices)
    _apply_pre(bulk, pre)
    _apply_pre(ref, pre)
    assert _state(bulk) == _state(ref)

    addrs = [_addr(index) + offset for index, offset in stores]
    for slot, target in zip(slots, _targets(bulk, core)):
        addrs.insert(slot % (len(addrs) + 1), target)
    addrs.append(addrs[0])  # a repeat: by now the line is the core's own

    bulk.store_lines(core, iter(addrs), NOW)
    for addr in addrs:
        ref.access(MemoryTransaction(CPU_STORE, addr, NOW, core=core))
    assert _state(bulk) == _state(ref)


def test_every_kind_of_resident_line_takes_the_per_line_handler():
    """Pins the fallback kinds the property test only draws at random."""
    bulk = _build(False, None, 0)
    ref = _build(False, None, 0)
    pre = [
        (CPU_STORE, 0, 0),  # core 0's L1 and MLC
        (CPU_LOAD, 0, 1),
        (CPU_LOAD, 0, 3),  # evicts line 1 from core 0's 2-set, 2-way L1
        (CPU_LOAD, 0, 5),
        (DMA_WRITE, 0, 6),  # the LLC
        (CPU_STORE, 1, 7),  # core 1 owns it
    ]
    for h in (bulk, ref):
        _apply_pre(h, pre)
    targets = _targets(bulk, 0)
    assert len(targets) == 4
    addrs = targets + [_addr(i) for i in range(8, 40)] + targets
    bulk.store_lines(0, addrs, NOW)
    for addr in addrs:
        ref.access(MemoryTransaction(CPU_STORE, addr, NOW, core=0))
    assert _state(bulk) == _state(ref)
    assert bulk.stats.counters.get("c2c_transfers") == 1
    assert bulk.stats.counters.get("llc_hits") >= 1


def test_an_mlc_victim_already_in_the_llc_is_updated_in_place():
    """A prefetch fill can put a line in two MLCs; once one evicts it to
    the LLC, the other's eviction meets it there."""
    bulk = _build(False, None, 0)
    ref = _build(False, None, 0)
    # Lines 0, 4, 8, ... share MLC set 0.
    pre = [(CPU_LOAD, 0, 0), (PREFETCH_FILL, 1, 0)] + [(CPU_LOAD, 1, 4 * i) for i in range(1, 5)]
    for h in (bulk, ref):
        _apply_pre(h, pre)
    assert _addr(0) in bulk.llc.data and _addr(0) in bulk.mlc[0]
    addrs = [_addr(4 * i) for i in range(5, 9)]
    bulk.store_lines(0, addrs, NOW)
    for addr in addrs:
        ref.access(MemoryTransaction(CPU_STORE, addr, NOW, core=0))
    assert _addr(0) not in bulk.mlc[0]
    assert _state(bulk) == _state(ref)


def test_a_cold_pass_takes_a_range_and_logs_every_stream_at_now():
    bulk = _build(False, None, 0)
    ref = _build(False, None, 0)
    lines = range(_addr(0), _addr(NUM_LINES), LINE_SIZE)
    bulk.store_lines(2, lines, NOW)
    for addr in lines:
        ref.access(MemoryTransaction(CPU_STORE, addr, NOW, core=2))
    assert _state(bulk) == _state(ref)
    streams = bulk.stats._event_streams
    assert streams["dram_reads"] == [NOW] * NUM_LINES
    assert streams["mlc_writebacks"] and set(streams["mlc_writebacks"]) == {NOW}
    assert streams["llc_writebacks"] and set(streams["llc_writebacks"]) == {NOW}


def test_observers_see_one_store_per_line():
    h = _build(False, None, 0)
    seen = []
    h.observe(seen.append)
    h.store_lines(1, [_addr(i) for i in range(10)] + [_addr(9)], NOW)
    assert [(t.kind, t.addr, t.core, t.now) for t in seen] == [
        (CPU_STORE, _addr(i), 1, NOW) for i in list(range(10)) + [9]
    ]
    assert seen[-1].level == "l1"
