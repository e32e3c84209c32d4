"""A finished run frees its server by reference counting alone.

``run_experiment_summary`` keeps the summary and calls
``ExperimentResult.drop_server``.  The server's hierarchy and simulator
must then be gone at once, not left in reference cycles for the next
generation-2 collection: a sweep worker would otherwise build the next
cell beside the dead one.  Each case runs with the cyclic collector
disabled, so a weakref that survives names a cycle on the run path.
A cell that restores a sweep's warm-up checkpoint must free its server
the same way: the checkpoint holds only bytes.
"""

import gc
import weakref

import pytest

from repro.core.policies import policy_by_name
from repro.harness import runner
from repro.harness.experiment import Experiment
from repro.harness.server import ServerConfig, WarmCheckpoint
from repro.sim import units
from repro.tenants.scenarios import tenant_experiment, tenant_mix


def _antagonist_burst(policy: str) -> Experiment:
    return Experiment(
        name=f"release-{policy}",
        server=ServerConfig(ring_size=64, antagonist=True, policy=policy_by_name(policy)),
        burst_rate_gbps=100.0,
        traffic="bursty",
    )


def _l2fwd_poisson() -> Experiment:
    return Experiment(
        name="release-l2fwd",
        server=ServerConfig(app="l2fwd"),
        traffic="poisson",
        traffic_seed=1,
        steady_rate_gbps_per_nf=5.0,
        steady_duration=units.microseconds(100.0),
    )


def _tenant_cell() -> Experiment:
    mix = tenant_mix("noisy-neighbor", tenants=2, intensity=2.0, seed=1)
    return tenant_experiment(mix, policy_by_name("ioca"), "release-tenants", duration_us=30.0)


CASES = {
    **{p: (lambda p=p: _antagonist_burst(p))
       for p in ("ddio", "idio", "iat", "ioca", "cachedirector")},
    "l2fwd-poisson": _l2fwd_poisson,
    "tenant-cell": _tenant_cell,
}


@pytest.fixture
def collector_disabled():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _watch_runs(monkeypatch):
    """Weakrefs to each run's hierarchy and simulator, two per run."""
    refs = []
    run_experiment = runner.run_experiment

    def run_and_watch(experiment, warm=None):
        result = run_experiment(experiment, warm)
        refs.extend([weakref.ref(result.server.hierarchy), weakref.ref(result.server.sim)])
        return result

    monkeypatch.setattr(runner, "run_experiment", run_and_watch)
    return refs


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_releases_server_without_the_collector(case, collector_disabled, monkeypatch):
    refs = _watch_runs(monkeypatch)
    summary = runner.run_experiment_summary(CASES[case]())
    assert summary.completed > 0
    assert [ref() is None for ref in refs] == [True, True], "hierarchy/sim still alive"


def test_restored_cell_releases_server_without_the_collector(collector_disabled, monkeypatch):
    refs = _watch_runs(monkeypatch)
    warm = WarmCheckpoint()
    runner.run_experiment_summary(_tenant_cell(), warm)
    assert warm.state is not None
    summary = runner.run_experiment_summary(_tenant_cell(), warm)
    assert summary.completed > 0
    assert [ref() is None for ref in refs[2:]] == [True, True], "hierarchy/sim still alive"
