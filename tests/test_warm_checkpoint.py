"""Warm once per sweep: a restored warm-up equals a cold one.

A sweep's first cell with a reusable warm-up stores the warmed caches
and directory in a :class:`WarmCheckpoint`; later cells with the same
key restore them instead of replaying the warm-up stores.  A key that
misses an input, or a restore that misses a structure, would silently
change results, so these tests compare a restored hierarchy with a
cold-warmed one structure by structure, check that every key input
forces a cold warm-up, that watched or faulted servers never reuse, and
that the checkpoint never outlives its sweep.  The IDIO and IAT
controllers read counters that ``start`` resets after warm-up, so their
cells restore too, and fingerprint like their cold-warmed twins.

A cold warm-up itself stores each buffer in one
``MemoryHierarchy.store_lines`` pass; the tests at the end check that it
leaves the structures one demand store per line leaves, and that an
observer or a DRAM fault still sees every store.
"""

import pickle
import weakref

import pytest

from repro.analysis.determinism import fingerprint_digest
from repro.core.policies import ddio, iat, policy_by_name
from repro.faults import FaultPlan, FaultSpec, standard_plan
from repro.harness import runner
from repro.harness.experiment import Experiment, run_experiment
from repro.harness.server import ServerConfig, SimulatedServer, WarmCheckpoint
from repro.mem.transaction import CPU_STORE
from repro.tenants.scenarios import tenant_experiment, tenant_mix, tenant_server
from repro.tenants.sweep import run_tenants
from tests.test_golden_fingerprints import CORUN_DIGESTS

#: ``run_tenants`` over DDIO and IOCA at intensities 0.5 and 2 (seed
#: 1234, 30 us, serial, uncached), recorded with every cell warmed cold.
TENANT_SWEEP_DIGEST = "09746512ce274897bea695d160de9d0ba08b7709f5f67f723f79dfe9a6bf4776"


def _structures(server: SimulatedServer):
    """Every structure warm-up mutates, as plain values."""
    h = server.hierarchy
    caches = h.l1 + h.mlc + [h.llc.data]
    return [
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
    ] + [list(h.llc.directory._entries.items())]


@pytest.fixture
def cold_warmups(monkeypatch):
    """Count the servers that replay warm-up instead of restoring it."""
    calls = []
    warm_up = SimulatedServer._warm_up

    def counted(server):
        calls.append(server)
        warm_up(server)

    monkeypatch.setattr(SimulatedServer, "_warm_up", counted)
    return calls


def _started(config: ServerConfig, warm=None) -> SimulatedServer:
    server = SimulatedServer(config)
    server.start(warm)
    return server


def _tenant_config(mix: str) -> ServerConfig:
    return tenant_server(tenant_mix(mix, tenants=2, intensity=1.0), ddio())


RESTORE_CASES = {
    "noisy-neighbor": lambda: _tenant_config("noisy-neighbor"),
    "antagonist-storm": lambda: _tenant_config("antagonist-storm"),
    "fig10-ddio-corun": lambda: ServerConfig(antagonist=True),
    "llc-inclusive": lambda: ServerConfig(antagonist=True, llc_inclusive=True),
    "nf-cat-1way": lambda: ServerConfig(antagonist=True, nf_cat_ways=1),
    "ring-64": lambda: ServerConfig(ring_size=64, antagonist=True),
}


@pytest.mark.parametrize("case", sorted(RESTORE_CASES))
def test_restored_hierarchy_equals_cold_warmed(case, cold_warmups):
    config = RESTORE_CASES[case]()
    warm = WarmCheckpoint()
    cold = _started(config, warm)
    restored = _started(config, warm)
    assert cold_warmups == [cold]
    assert _structures(restored) == _structures(cold)
    assert restored.stats.counters.snapshot() == cold.stats.counters.snapshot() == {}


def _corun(policy) -> Experiment:
    return Experiment(
        name="golden",
        server=ServerConfig(ring_size=64, antagonist=True, policy=policy),
        burst_rate_gbps=100.0,
        traffic="bursty",
    )


@pytest.mark.parametrize("name", ["ddio", "idio"])
def test_restored_corun_matches_its_golden(name, cold_warmups):
    warm = WarmCheckpoint()
    run_experiment(_corun(ddio()), warm)
    restored = run_experiment(_corun(policy_by_name(name)), warm)
    assert len(cold_warmups) == 1
    assert fingerprint_digest(restored.summary()) == CORUN_DIGESTS[name]


def test_restored_iat_storm_fingerprints_like_cold(cold_warmups):
    experiment = tenant_experiment(
        tenant_mix("antagonist-storm", tenants=2, intensity=1.0),
        iat(),
        name="iat-storm",
        duration_us=30.0,
    )
    cold = run_experiment(experiment)
    warm = WarmCheckpoint()
    run_experiment(experiment, warm)
    restored = run_experiment(experiment, warm)
    assert len(cold_warmups) == 2  # the bare run and the checkpoint's first
    assert fingerprint_digest(restored.summary()) == fingerprint_digest(cold.summary())


#: A small co-run server, and one change to each warm-up key input.
KEY_BASE = dict(ring_size=64, antagonist=True, antagonist_buffer_bytes=256 * 1024)
KEY_CHANGES = {
    "antagonist-footprint": {"antagonist_buffer_bytes": 512 * 1024},
    "ring-size": {"ring_size": 128},
    "nf-cat-ways": {"nf_cat_ways": 1},
    "ddio-ways": {"ddio_ways": 4},
}


@pytest.mark.parametrize("change", sorted(KEY_CHANGES))
def test_each_key_input_forces_a_cold_warm_up(change, cold_warmups):
    warm = WarmCheckpoint()
    _started(ServerConfig(**KEY_BASE), warm)
    key = warm.key
    changed = _started(ServerConfig(**{**KEY_BASE, **KEY_CHANGES[change]}), warm)
    assert cold_warmups[-1] is changed
    assert len(cold_warmups) == 2
    assert warm.key == key  # the first snapshot stays


def test_inputs_warm_up_does_not_read_share_a_checkpoint(cold_warmups):
    warm = WarmCheckpoint()
    _started(ServerConfig(**KEY_BASE), warm)
    _started(ServerConfig(**KEY_BASE, packet_bytes=512), warm)
    assert len(cold_warmups) == 1


WATCHED = {
    "trace": lambda: ServerConfig(**KEY_BASE, trace_enabled=True),
    "checked": lambda: ServerConfig(**KEY_BASE, checked_mode=True),
    "faults": lambda: ServerConfig(**KEY_BASE, fault_plan=standard_plan("all", seed=5)),
}


@pytest.mark.parametrize("case", sorted(WATCHED))
def test_no_reuse_when_anything_could_tell(case, cold_warmups):
    warm = WarmCheckpoint()
    _started(WATCHED[case](), warm)
    _started(WATCHED[case](), warm)
    assert len(cold_warmups) == 2
    assert warm.key is None and warm.state is None


def test_checkpoint_holds_one_snapshot_as_bytes(cold_warmups):
    warm = WarmCheckpoint()
    _started(ServerConfig(**KEY_BASE), warm)
    first = (warm.key, warm.state)
    _started(ServerConfig(**{**KEY_BASE, "ring_size": 128}), warm)
    _started(ServerConfig(**KEY_BASE), warm)
    assert len(cold_warmups) == 2
    assert (warm.key, warm.state) == first
    assert type(warm.state) is bytes and not hasattr(warm, "__dict__")


class _Recorded(WarmCheckpoint):
    """A checkpoint the test can watch: slots-free, so weakref-able."""

    made = []

    def __init__(self):
        super().__init__()
        _Recorded.made.append(self)


def test_serial_sweep_drops_its_checkpoint(monkeypatch, cold_warmups):
    _Recorded.made = []
    monkeypatch.setattr(runner, "WarmCheckpoint", _Recorded)
    experiments = [
        Experiment(name=f"cell-{i}", server=ServerConfig(**KEY_BASE), burst_rate_gbps=100.0)
        for i in range(2)
    ]
    runner.run_sweep(experiments, jobs=1, cache=False)
    assert len(cold_warmups) == 1 and len(_Recorded.made) == 1
    made = weakref.ref(_Recorded.made.pop())
    assert made() is None, "the sweep's checkpoint outlived the sweep"
    runner.run_sweep(experiments[:1], jobs=1, cache=False)
    assert _Recorded.made == [], "a one-cell sweep took a checkpoint"


def test_worker_checkpoint_dropped_on_new_generation(tmp_path, monkeypatch):
    spool = tmp_path / "spool"
    cells = [Experiment(name=f"cell-{i}") for i in range(2)]
    monkeypatch.setattr(runner, "_worker_spool", str(spool))
    monkeypatch.setattr(runner, "_worker_generation", -1)
    monkeypatch.setattr(runner, "_worker_table", [])
    monkeypatch.setattr(runner, "_worker_warm", None)

    def spool_generation(generation, table):
        spool.write_bytes(pickle.dumps((generation, table)))
        runner._worker_experiment(generation, 0)
        return runner._worker_warm

    first = spool_generation(1, cells)
    assert isinstance(first, WarmCheckpoint) and first.key is None
    first.key, first.state = "stale", b"stale"
    runner._worker_experiment(1, 1)
    assert runner._worker_warm is first  # kept within a generation
    second = spool_generation(2, cells)
    assert second is not first and second.key is None
    assert spool_generation(3, cells[:1]) is None  # one cell: no checkpoint


def test_tenant_sweep_matches_its_cold_golden(cold_warmups):
    summary = run_tenants(
        [ddio(), policy_by_name("ioca")],
        mix="noisy-neighbor",
        tenants=2,
        intensities=(0.5, 2.0),
        seed=1234,
        duration_us=30.0,
        jobs=1,
        cache=False,
    )
    assert len(cold_warmups) == 1  # four cells, one warm-up
    assert summary.fingerprint == TENANT_SWEEP_DIGEST


@pytest.mark.parametrize("case", sorted(RESTORE_CASES))
def test_bulk_warm_up_equals_per_line_warm_up(case):
    bulk = _started(RESTORE_CASES[case]())
    per_line = SimulatedServer(RESTORE_CASES[case]())
    per_line.hierarchy.observe(lambda txn: None)  # forces one _run_cpu per line
    per_line.start()
    assert _structures(bulk) == _structures(per_line)


def test_an_observer_sees_every_warm_up_store():
    server = SimulatedServer(_tenant_config("noisy-neighbor"))
    kinds = []
    server.hierarchy.observe(lambda txn: kinds.append(txn.kind))
    server.start()
    # One 4 MB antagonist buffer, and two 1024-slot rings of two-line
    # descriptors.
    assert kinds == [CPU_STORE] * 69_632


def test_a_dram_spike_at_time_zero_is_counted_during_warm_up():
    spike = FaultSpec("mem.dram_spike", start_us=0.0, duration_us=5.0, magnitude=100.0)
    server = _started(ServerConfig(**KEY_BASE, fault_plan=FaultPlan((spike,), seed=3)))
    assert server.fault_counts == {"mem.dram_spike": 1}
