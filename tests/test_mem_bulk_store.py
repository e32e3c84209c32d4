"""Differential tests: the bulk entry points equal per-line transactions.

``MemoryHierarchy.demand_lines`` runs one core's demand loads or stores
to a run of lines (warm-up buffers, the TouchDrop touch loop, antagonist
iterations), and ``MemoryHierarchy.dma_write_lines`` one DDIO burst.
Each fuses the common cases and defers their counter and event-stream
updates, and hands every other line to the per-line handler.  The
reference is a twin hierarchy that gets one transaction per address, in
order.  After both run, every cache (contents, ``_where`` order, recency
stamps and ``_tick``), the directory (in insertion order), the line
freelist, the counters and every event stream must be equal, and so must
each load's latency.

Hypothesis draws a small geometry (so fills evict at every level), an
inclusive or non-inclusive LLC, an optional CAT mask on the demanding
core, a monolithic or sliced LLC, and a random pre-state of demand
loads and stores, DMA writes and reads, prefetch fills and invalidates
on random cores.  The demand list always includes lines resident in the
demanding core's L1, its MLC and the LLC, lines another core owns,
unaligned addresses and repeats; the DMA list adds tenant ranges, tenant
I/O way masks and a resized DDIO partition.  Under the ``deep`` profile
(``tests/conftest.py``, ``make fuzz-bulk``) each property draws 2000
examples.  Checked mode attaches an observer, which sends every line
down the per-line path, so these tests are the fused paths' only oracle.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.determinism import fingerprint_digest
from repro.core.policies import ioca
from repro.harness.experiment import Experiment, run_experiment
from repro.harness.server import ServerConfig, SimulatedServer
from repro.mem.cache import CacheConfig
from repro.mem.dram import DRAM_LATENCY
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
from repro.obs.events import LlcWritebackEvent, MlcWritebackEvent
from repro.tenants.scenarios import tenant_experiment, tenant_mix

NUM_CORES = 3
NUM_LINES = 96
BASE = 0x4000_0000
NOW = 7

#: Tier-1 budget per property; the ``deep`` profile raises it.
BUDGET = settings(
    max_examples=max(150, settings.default.max_examples),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _build(inclusive=False, cat=None, slices=0):
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
    """One line of each kind the fused path must hand to ``_run_cpu``
    (the L1, MLC-only and remote-owner lines) or fuse as an LLC hit."""
    l1 = sorted(h.l1[core]._where)
    mlc_only = sorted(set(h.mlc[core]._where) - set(l1))
    llc = sorted(h.llc.data._where)
    remote = sorted(
        addr for addr, mask in h.llc.directory._entries.items() if mask & ~(1 << core)
    )
    return [kind[0] for kind in (l1, mlc_only, llc, remote) if kind]


#: Prefetch fills can leave a line in two MLCs, so an MLC victim of the
#: bulk run may already sit in the LLC.
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
    # A CAT mask on the demanding core confines its MLC victims' LLC fills.
    cat_ways = draw(
        st.one_of(st.none(), st.lists(st.integers(0, 5), min_size=1, max_size=5, unique=True))
    )
    cat = None if cat_ways is None else (core, cat_ways)
    pre = draw(st.lists(PRE_OP, max_size=80))
    lines = draw(
        st.lists(
            st.tuples(st.integers(0, NUM_LINES - 1), st.integers(0, LINE_SIZE - 1)),
            min_size=20,
            max_size=60,
        )
    )
    slots = draw(st.lists(st.integers(0, 60), min_size=4, max_size=4))
    return inclusive, slices, cat, pre, core, lines, slots


def _apply_pre(h, pre):
    for kind, core, index in pre:
        io = kind in (DMA_WRITE, DMA_READ)
        h.access(MemoryTransaction(kind, _addr(index), 1, core=-1 if io else core))


def _twins(pre, **geometry):
    bulk = _build(**geometry)
    ref = _build(**geometry)
    _apply_pre(bulk, pre)
    _apply_pre(ref, pre)
    assert _state(bulk) == _state(ref)
    return bulk, ref


def _demand_addrs(h, core, lines, slots):
    addrs = [_addr(index) + offset for index, offset in lines]
    for slot, target in zip(slots, _targets(h, core)):
        addrs.insert(slot % (len(addrs) + 1), target)
    addrs.append(addrs[0])  # a repeat: by now the line is the core's own
    return addrs


def _per_line(h, kind, addrs, core=-1):
    """The reference: one transaction per address; returns the latencies."""
    return [h.access(MemoryTransaction(kind, addr, NOW, core=core)).latency for addr in addrs]


# ----------------------------------------------------------------------
# demand runs
# ----------------------------------------------------------------------


@BUDGET
@given(scenarios())
def test_store_lines_equals_per_line_stores(scenario):
    inclusive, slices, cat, pre, core, lines, slots = scenario
    bulk, ref = _twins(pre, inclusive=inclusive, cat=cat, slices=slices)
    addrs = _demand_addrs(bulk, core, lines, slots)
    assert bulk.demand_lines(core, CPU_STORE, iter(addrs), NOW) is None
    _per_line(ref, CPU_STORE, addrs, core)
    assert _state(bulk) == _state(ref)


@BUDGET
@given(scenarios())
def test_load_lines_equals_per_line_loads(scenario):
    inclusive, slices, cat, pre, core, lines, slots = scenario
    bulk, ref = _twins(pre, inclusive=inclusive, cat=cat, slices=slices)
    addrs = _demand_addrs(bulk, core, lines, slots)
    latencies = bulk.demand_lines(core, CPU_LOAD, iter(addrs), NOW)
    assert latencies == _per_line(ref, CPU_LOAD, addrs, core)
    assert _state(bulk) == _state(ref)


def test_every_kind_of_resident_line_takes_the_per_line_handler():
    """Pins the line kinds the property tests only draw at random."""
    pre = [
        (CPU_STORE, 0, 0),  # core 0's L1 and MLC
        (CPU_LOAD, 0, 1),
        (CPU_LOAD, 0, 3),  # evicts line 1 from core 0's 2-set, 2-way L1
        (CPU_LOAD, 0, 5),
        (DMA_WRITE, 0, 6),  # the LLC
        (CPU_STORE, 1, 7),  # core 1 owns it
    ]
    for kind in (CPU_LOAD, CPU_STORE):
        bulk, ref = _twins(pre)
        targets = _targets(bulk, 0)
        assert len(targets) == 4
        addrs = targets + [_addr(i) for i in range(8, 40)] + targets
        latencies = bulk.demand_lines(0, kind, addrs, NOW)
        expected = _per_line(ref, kind, addrs, 0)
        assert latencies == (expected if kind == CPU_LOAD else None)
        assert _state(bulk) == _state(ref)
        assert bulk.stats.counters.get("c2c_transfers") == 1
        assert bulk.stats.counters.get("llc_hits") >= 1


def test_an_llc_hit_migrates_the_line_dirty_or_clean():
    """A fused LLC hit moves the LLC's own line object up: a dirty DMA'd
    line stays dirty on a load, and a store dirties a clean one."""
    pre = [(DMA_WRITE, 0, i) for i in range(4)] + [(DMA_READ, 0, 0)]
    for kind in (CPU_LOAD, CPU_STORE):
        bulk, ref = _twins(pre)
        addrs = [_addr(i) for i in range(4)]
        latencies = bulk.demand_lines(2, kind, addrs, NOW)
        expected = _per_line(ref, kind, addrs, 2)
        if kind == CPU_LOAD:
            assert latencies == expected
            assert len(set(latencies)) == 1  # every line an LLC hit
        assert _state(bulk) == _state(ref)
        assert bulk.stats.counters.get("llc_hits") == 4
        assert not any(_addr(i) in bulk.llc.data for i in range(4))


def test_an_mlc_victim_already_in_the_llc_is_updated_in_place():
    """A prefetch fill can put a line in two MLCs; once one evicts it to
    the LLC, the other's eviction meets it there."""
    # Lines 0, 4, 8, ... share MLC set 0.
    pre = [(CPU_LOAD, 0, 0), (PREFETCH_FILL, 1, 0)] + [(CPU_LOAD, 1, 4 * i) for i in range(1, 5)]
    bulk, ref = _twins(pre)
    assert _addr(0) in bulk.llc.data and _addr(0) in bulk.mlc[0]
    addrs = [_addr(4 * i) for i in range(5, 9)]
    bulk.demand_lines(0, CPU_STORE, addrs, NOW)
    _per_line(ref, CPU_STORE, addrs, 0)
    assert _addr(0) not in bulk.mlc[0]
    assert _state(bulk) == _state(ref)


def test_a_cold_pass_takes_a_range_and_logs_every_stream_at_now():
    bulk, ref = _twins([])
    lines = range(_addr(0), _addr(NUM_LINES), LINE_SIZE)
    bulk.demand_lines(2, CPU_STORE, lines, NOW)
    _per_line(ref, CPU_STORE, lines, 2)
    assert _state(bulk) == _state(ref)
    streams = bulk.stats._event_streams
    assert streams["dram_reads"] == [NOW] * NUM_LINES
    assert streams["mlc_writebacks"] and set(streams["mlc_writebacks"]) == {NOW}
    assert streams["llc_writebacks"] and set(streams["llc_writebacks"]) == {NOW}


def test_demand_lines_rejects_other_kinds():
    with pytest.raises(ValueError, match="demand_lines takes"):
        _build().demand_lines(0, DMA_WRITE, [_addr(0)], NOW)


def test_observers_see_one_store_per_line():
    h = _build()
    seen = []
    h.observe(seen.append)
    h.demand_lines(1, CPU_STORE, [_addr(i) for i in range(10)] + [_addr(9)], NOW)
    assert [(t.kind, t.addr, t.core, t.now) for t in seen] == [
        (CPU_STORE, _addr(i), 1, NOW) for i in list(range(10)) + [9]
    ]
    assert seen[-1].level == "l1"


def test_observers_see_one_load_per_line_and_its_latency():
    h = _build()
    h.access(MemoryTransaction(CPU_STORE, _addr(3), 1, core=1))
    seen = []
    h.observe(seen.append)
    latencies = h.demand_lines(2, CPU_LOAD, [_addr(20), _addr(3)], NOW)
    assert [(t.kind, t.addr, t.core, t.now, t.level) for t in seen] == [
        (CPU_LOAD, _addr(20), 2, NOW, "dram"),
        (CPU_LOAD, _addr(3), 2, NOW, "c2c"),
    ]
    assert latencies == [t.latency for t in seen]


# ----------------------------------------------------------------------
# fallbacks: each condition under which a fused line would differ
# ----------------------------------------------------------------------


class _Spikes:
    """A DRAM fault injector stand-in: every third access is slow."""

    def __init__(self):
        self.calls = 0

    def dram_extra_ticks(self, now):
        self.calls += 1
        return 50 if self.calls % 3 == 0 else 0


#: A cold run with LLC hits, full misses, and MLC and LLC victims.
FALLBACK_PRE = [(DMA_WRITE, 0, i) for i in range(0, NUM_LINES, 5)]
FALLBACK_ADDRS = [_addr(i) for i in range(NUM_LINES)] + [_addr(1)]


#: Each writeback subscriber's event class, and the counter it tracks.
WRITEBACK_EVENTS = {
    "mlc-wb-subscriber": (MlcWritebackEvent, "mlc_writebacks"),
    "llc-wb-subscriber": (LlcWritebackEvent, "llc_writebacks"),
}
FALLBACKS = ["observer", *WRITEBACK_EVENTS, "inclusive", "nuca", "dram-faults"]


def _fallback_twins(fallback):
    """Twin hierarchies under ``fallback``, and what the bulk one's
    observer or writeback subscribers see (None for the other cases)."""
    bulk, ref = _twins(
        FALLBACK_PRE, inclusive=fallback == "inclusive", slices=4 if fallback == "nuca" else 0
    )
    seen = None
    if fallback == "dram-faults":
        bulk.dram.faults = _Spikes()
        ref.dram.faults = _Spikes()
    elif fallback == "observer":
        seen = []
        bulk.observe(seen.append)
    elif fallback in WRITEBACK_EVENTS:
        seen = []
        bulk.bus.subscribe(WRITEBACK_EVENTS[fallback][0], seen.append)
    return bulk, ref, seen


@pytest.mark.parametrize("fallback", FALLBACKS)
@pytest.mark.parametrize("kind", [CPU_LOAD, CPU_STORE])
def test_demand_fallbacks_run_per_line(fallback, kind):
    bulk, ref, seen = _fallback_twins(fallback)
    counters = bulk.stats.counters
    before = counters.snapshot()
    latencies = bulk.demand_lines(1, kind, FALLBACK_ADDRS, NOW)
    expected = _per_line(ref, kind, FALLBACK_ADDRS, 1)
    if kind == CPU_LOAD:
        assert latencies == expected
        # These fallbacks' latencies are not the fused constants.
        if fallback in ("nuca", "dram-faults"):
            assert set(latencies) - {6, 6 + DRAM_LATENCY}
    assert _state(bulk) == _state(ref)
    if fallback == "observer":
        assert [(t.kind, t.addr) for t in seen] == [(kind, a) for a in FALLBACK_ADDRS]
    if fallback in WRITEBACK_EVENTS:
        name = WRITEBACK_EVENTS[fallback][1]
        assert len(seen) == counters.get(name) - before.get(name, 0) > 0
    if fallback == "dram-faults":
        assert bulk.dram.faults.calls == ref.dram.faults.calls


def test_nuca_stores_stay_fused():
    """Stores report no latency, so a sliced LLC keeps them fused."""
    bulk, ref = _twins(FALLBACK_PRE, slices=4)
    calls = []
    run_cpu = bulk._run_cpu
    bulk._run_cpu = lambda txn: (calls.append(txn.addr), run_cpu(txn))
    bulk.demand_lines(1, CPU_STORE, FALLBACK_ADDRS, NOW)
    _per_line(ref, CPU_STORE, FALLBACK_ADDRS, 1)
    assert _state(bulk) == _state(ref)
    # No line is private when its turn comes (the repeat is long evicted),
    # so every one is a fused miss or LLC hit.
    assert calls == []


@pytest.mark.parametrize(
    "fallback", [f for f in FALLBACKS if f not in ("nuca", "mlc-wb-subscriber")]
)
def test_dma_fallbacks_run_per_line(fallback):
    """NUCA changes no DMA-write outcome the hierarchy keeps, and a DMA
    write never writes an MLC line back, so neither turns bursts per-line."""
    bulk, ref, seen = _fallback_twins(fallback)
    # Dirty the LLC first, so that the burst's fills write victims back.
    for h in (bulk, ref):
        for i in range(NUM_LINES):
            h.access(MemoryTransaction(DMA_WRITE, _addr(NUM_LINES + i), 1))
    if seen is not None:
        seen.clear()
    counters = bulk.stats.counters
    before = counters.get("llc_writebacks")
    bulk.dma_write_lines(FALLBACK_ADDRS, NOW)
    _per_line(ref, DMA_WRITE, FALLBACK_ADDRS)
    assert _state(bulk) == _state(ref)
    if fallback == "observer":
        assert [(t.kind, t.addr, t.core) for t in seen] == [
            (DMA_WRITE, a, -1) for a in FALLBACK_ADDRS
        ]
    if fallback == "llc-wb-subscriber":
        assert len(seen) == counters.get("llc_writebacks") - before > 0
    if fallback == "dram-faults":
        # The injector is asked once per DRAM access, victim writes too.
        assert bulk.dram.faults.calls == ref.dram.faults.calls


def test_dma_observers_see_the_callers_core_and_tag():
    h = _build()
    seen = []
    h.observe(seen.append)
    tag = object()
    h.dma_write_lines([_addr(0), _addr(1)], NOW, 0, tag)
    assert [(t.kind, t.addr, t.core, t.tag, t.placement) for t in seen] == [
        (DMA_WRITE, _addr(i), 0, tag, "llc") for i in range(2)
    ]


# ----------------------------------------------------------------------
# DDIO bursts
# ----------------------------------------------------------------------


@st.composite
def dma_scenarios(draw):
    inclusive = draw(st.booleans())
    ddio_ways = draw(st.integers(1, 3))
    pre = draw(st.lists(PRE_OP, max_size=80))
    # Up to three tenants over disjoint slices of the line range, each
    # with an optional I/O way mask inside the DDIO partition.
    cuts = sorted(draw(st.lists(st.integers(0, NUM_LINES), min_size=0, max_size=6, unique=True)))
    ranges = [
        (_addr(lo), _addr(hi), tenant)
        for tenant, (lo, hi) in enumerate(zip(cuts[::2], cuts[1::2]))
        if hi > lo
    ]
    masks = {
        tenant: draw(st.lists(st.integers(0, ddio_ways - 1), min_size=1, max_size=ddio_ways))
        for _, _, tenant in ranges
        if draw(st.booleans())
    }
    lines = draw(
        st.lists(
            st.tuples(st.integers(0, NUM_LINES - 1), st.integers(0, LINE_SIZE - 1)),
            min_size=20,
            max_size=60,
        )
    )
    slots = draw(st.lists(st.integers(0, 60), min_size=3, max_size=3))
    return inclusive, ddio_ways, pre, ranges, masks, lines, slots


def _dma_targets(h):
    """A line the LLC holds, one with private owners, and one both."""
    llc = set(h.llc.data._where)
    owned = set(h.llc.directory._entries)
    return [min(kind) for kind in (llc - owned, owned - llc, llc & owned) if kind]


@BUDGET
@given(dma_scenarios())
def test_dma_write_lines_equals_per_line_writes(scenario):
    inclusive, ddio_ways, pre, ranges, masks, lines, slots = scenario
    bulk, ref = _twins(pre, inclusive=inclusive)
    for h in (bulk, ref):
        h.llc.set_ddio_ways(ddio_ways)
        h.set_tenant_ranges(ranges)
        for tenant, ways in masks.items():
            h.llc.set_tenant_io_ways(tenant, ways)
    addrs = [_addr(index) + offset for index, offset in lines]
    for slot, target in zip(slots, _dma_targets(bulk)):
        addrs.insert(slot % (len(addrs) + 1), target)
    addrs.append(addrs[0])  # a repeat: by now the line is resident
    bulk.dma_write_lines(iter(addrs), NOW)
    _per_line(ref, DMA_WRITE, addrs)
    assert _state(bulk) == _state(ref)


def test_a_burst_meets_cpu_lines_in_the_llc():
    """MLC victims fill the LLC with clean CPU data, into the DDIO ways
    once the others are full: a burst updates one such line in place,
    making it dirty I/O data, and evicts others without writing back."""
    # Lines 0, 4, 8, ... share MLC set 0 and LLC set 0: seven of these
    # eleven loads' MLC victims fill all six ways of LLC set 0.
    bulk, ref = _twins([(CPU_LOAD, 0, 4 * i) for i in range(11)])
    resident = sorted(bulk.llc.data._where)
    assert len(resident) == 6
    assert all(bulk.llc.data.peek(a).origin == "cpu" for a in resident)
    addrs = [resident[0]] + [_addr(4 * i) for i in range(20, 24)] + [resident[0]]
    bulk.dma_write_lines(addrs, NOW)
    _per_line(ref, DMA_WRITE, addrs)
    assert _state(bulk) == _state(ref)
    line = bulk.llc.data.peek(resident[0])
    assert (line.origin, line.dirty) == ("io", True)
    counters = bulk.stats.counters
    assert counters.get("ddio_updates") >= 1
    assert counters.get("llc_clean_drops") >= 1


def test_a_burst_over_tenant_partitions_confines_each_fill():
    """Two tenants with one I/O way each: every fill lands in its
    tenant's way, and each write is attributed to its tenant."""
    bulk, ref = _twins([(CPU_STORE, 1, 40), (DMA_WRITE, 0, 2)])
    ranges = [(_addr(0), _addr(16), 0), (_addr(16), _addr(32), 1)]
    for h in (bulk, ref):
        h.set_tenant_ranges(ranges)
        h.llc.set_tenant_io_ways(0, [0])
        h.llc.set_tenant_io_ways(1, [1])
    addrs = [_addr(i) for i in range(0, 48)] + [_addr(2), _addr(40)]
    bulk.dma_write_lines(addrs, NOW)
    _per_line(ref, DMA_WRITE, addrs)
    assert _state(bulk) == _state(ref)
    counters = bulk.stats.counters
    assert counters.get("tenant_dma_writes_t0") == 17
    assert counters.get("tenant_dma_writes_t1") == 16
    assert counters.get("mlc_invalidations") == 1  # line 40, core 1's
    for addr, way in bulk.llc.data._where.items():
        tenant = bulk.tenant_of_addr(addr)
        if tenant >= 0:
            assert way == tenant


# ----------------------------------------------------------------------
# a whole server
# ----------------------------------------------------------------------


def _observed_run(experiment, monkeypatch):
    """Run ``experiment`` with an observer attached before ``start()``;
    returns the result and the kinds it saw after warm-up."""
    kinds = []
    marks = []
    start = SimulatedServer.start

    def observed_start(self, warm=None):
        self.hierarchy.observe(lambda txn: kinds.append(txn.kind))
        start(self, warm)
        marks.append(len(kinds))

    with monkeypatch.context() as patch:
        patch.setattr(SimulatedServer, "start", observed_start)
        result = run_experiment(experiment)
    return result, kinds[marks[0]:]


BULK_SERVERS = {
    "ddio-antagonist": Experiment(
        name="bulk",
        server=ServerConfig(ring_size=128, antagonist=True),
        burst_rate_gbps=100.0,
    ),
    "ioca-tenants": tenant_experiment(
        tenant_mix("noisy-neighbor"), ioca(), "bulk", duration_us=40.0
    ),
}


@pytest.mark.parametrize("name", sorted(BULK_SERVERS))
def test_an_observed_server_sees_every_line_and_fingerprints_like_a_bare_one(
    name, monkeypatch
):
    experiment = BULK_SERVERS[name]
    runs = []
    for method in ("demand_lines", "dma_write_lines"):
        original = getattr(MemoryHierarchy, method)

        def counted(self, *args, _original=original, _method=method, **kwargs):
            runs.append(_method)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(MemoryHierarchy, method, counted)
    bare = run_experiment(experiment)
    assert {"demand_lines", "dma_write_lines"} <= set(runs)
    observed, kinds = _observed_run(experiment, monkeypatch)

    assert fingerprint_digest(observed.summary()) == fingerprint_digest(bare.summary())
    for result in (bare, observed):
        server = result.server
        demand = sum(core.stats.mem_accesses for core in server.cores)
        assert kinds.count(CPU_LOAD) + kinds.count(CPU_STORE) == demand
        assert kinds.count(DMA_WRITE) == server.stats.counters.get("pcie_writes")
        assert kinds.count(DMA_WRITE) == sum(nic.dma.lines_written for nic in server.nics)
    assert kinds.count(CPU_LOAD) > kinds.count(DMA_WRITE)  # touched lines plus polls
