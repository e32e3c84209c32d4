"""Property tests: the cache's fused LRU scan matches the reference LRU.

:meth:`SetAssociativeCache.insert` finds the first free way in mask order,
or else the least recently used occupied way, with one ``min()`` over the
set's recency stamps (an empty way's stamp is 0).  The
reference in ``tests/lru_reference.py`` keeps the original dict +
``min()`` LRU and a separate free-way scan, including the tie-break
toward the *first* eligible way among never-touched ways.  Hypothesis
drives both with identical random traces and requires identical hits,
victims and placements throughout.

Way masks are drawn the way the LLC builds them (a contiguous DDIO,
tenant or CAT range of ways, or the CPU fill order that lists the
non-DDIO ways first) as well as arbitrary subsets in arbitrary order.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mem.cache import CacheConfig, SetAssociativeCache
from repro.mem.line import LINE_SIZE, CacheLine
from tests.lru_reference import ReferenceLRUCache


def way_masks(assoc):
    """``None`` (every way) or a non-empty mask over ``assoc`` ways."""
    contiguous = st.integers(0, assoc - 1).flatmap(
        lambda lo: st.integers(lo + 1, assoc).map(lambda hi: tuple(range(lo, hi)))
    )
    cpu_fill_order = st.integers(1, assoc).map(
        lambda ddio: tuple(range(ddio, assoc)) + tuple(range(ddio))
    )
    arbitrary = st.lists(
        st.integers(0, assoc - 1), min_size=1, max_size=assoc, unique=True
    ).map(tuple)
    return st.one_of(st.none(), contiguous, cpu_fill_order, arbitrary)


def build(sets, assoc):
    cache = SetAssociativeCache(
        CacheConfig("lru", size_bytes=sets * assoc * LINE_SIZE, assoc=assoc, latency=1)
    )
    return cache, ReferenceLRUCache(sets, assoc)


def assert_same_placement(cache, ref):
    assert cache._where == ref.where


@st.composite
def set_traces(draw):
    """A geometry plus per-set fills, hits and removals of a few tags."""
    num_sets = draw(st.sampled_from([1, 2, 4, 8]))
    assoc = draw(st.sampled_from([2, 4, 8, 12]))
    line = st.tuples(st.integers(0, num_sets - 1), st.integers(0, 2 * assoc - 1))
    op = st.one_of(
        st.tuples(st.just("access"), line, st.none()),
        st.tuples(st.just("evict"), line, st.none()),
        st.tuples(st.just("fill"), line, way_masks(assoc)),
    )
    return num_sets, assoc, draw(st.lists(op, min_size=1, max_size=200))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(set_traces())
def test_lru_matches_reference_on_random_traces(trace):
    num_sets, assoc, ops = trace
    cache, ref = build(num_sets, assoc)
    for kind, (set_idx, tag), mask in ops:
        addr = (tag * num_sets + set_idx) * LINE_SIZE
        if kind == "access":
            assert (cache.lookup(addr) is not None) == ref.lookup(addr)
        elif kind == "evict":
            assert (cache.remove(addr) is not None) == ref.remove(addr)
        else:
            victim = cache.insert(CacheLine(addr), way_mask=mask)
            assert (victim.addr if victim else None) == ref.insert(addr, mask)
        assert_same_placement(cache, ref)


@st.composite
def cache_traces(draw):
    """Random line-address insert/lookup traces, with optional way masks."""
    sets = draw(st.sampled_from([2, 4]))
    assoc = draw(st.sampled_from([4, 8, 12]))
    # Addresses covering ~4x the cache capacity force evictions.
    addr = st.integers(0, 4 * sets * assoc - 1).map(lambda i: i * LINE_SIZE)
    op = st.one_of(
        st.tuples(st.just("insert"), addr, way_masks(assoc)),
        st.tuples(st.just("lookup"), addr, st.none()),
    )
    return sets, assoc, draw(st.lists(op, min_size=1, max_size=150))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cache_traces())
def test_cache_evictions_identical_under_lru_and_reference(trace):
    sets, assoc, ops = trace
    cache, ref = build(sets, assoc)
    for kind, addr, mask in ops:
        if kind == "insert":
            victim = cache.insert(CacheLine(addr, dirty=True), way_mask=mask)
            assert (victim.addr if victim else None) == ref.insert(addr, mask)
        else:
            assert (cache.lookup(addr) is not None) == ref.lookup(addr)
    assert_same_placement(cache, ref)
