"""Each sweep result is fingerprinted exactly once.

A fingerprint digest hashes the ``repr`` of every simulation-derived field
of a summary, timestamp streams included, so it is one of the larger
per-result costs of a sweep.  ``run_sweep`` keeps the digest on the
result's :class:`~repro.harness.runner.SweepRecord`: on a cache hit it is
the digest the cache just verified, on a fresh result the one computed for
the cache entry (or on first use).  The tenant fingerprint fold reads it
from there.  Every ``fingerprint_digest`` call goes through
``ExperimentSummary.fingerprint``, so the tests count calls of that method.
All sweeps here run serially, so every call happens in this process.
"""

import pickle
from dataclasses import replace

import pytest

import repro
from repro.analysis.determinism import fingerprint_digest
from repro.cache import ResultCache
from repro.harness.experiment import ExperimentSummary
from repro.harness.runner import run_experiment_summary, run_sweep
from repro.tenants.sweep import run_tenants

TENANT_KWARGS = dict(
    policies=[repro.ddio()],
    intensities=(0.5, 2.0),
    duration_us=30.0,
    seed=5,
    jobs=1,
)


@pytest.fixture
def fingerprint_calls(monkeypatch):
    """A list that grows by one on every summary fingerprint."""
    calls = []
    original = ExperimentSummary.fingerprint

    def counting(self):
        calls.append(self.experiment.name)
        return original(self)

    monkeypatch.setattr(ExperimentSummary, "fingerprint", counting)
    return calls


class TestTenantCells:
    @pytest.mark.parametrize("cached", [False, True], ids=["cold", "cached"])
    def test_one_fingerprint_per_cell(self, tmp_path, fingerprint_calls, cached):
        cache = ResultCache(tmp_path)
        if cached:
            run_tenants(cache=cache, **TENANT_KWARGS)
            fingerprint_calls.clear()
        sweep = run_tenants(cache=cache, **TENANT_KWARGS)
        assert [cell.cached for cell in sweep.cells] == [cached, cached]
        sweep.render()
        sweep.to_json()
        assert sorted(fingerprint_calls) == sorted(
            f"tenants-noisy-neighbor-ddio-i{i:g}" for i in TENANT_KWARGS["intensities"]
        )

    def test_uncached_sweep_hashes_each_cell_once(self, fingerprint_calls):
        sweep = run_tenants(cache=False, **TENANT_KWARGS)
        assert sweep.fingerprint == sweep.to_json()["fingerprint"]
        assert len(sweep.cells) == len(fingerprint_calls) == 2


def _tiny(name="fp-once"):
    return repro.Experiment(
        name=name,
        server=repro.ServerConfig(app="touchdrop", ring_size=64),
        burst_rate_gbps=25.0,
    )


class TestSweepRecordFingerprint:
    def test_records_carry_the_summary_digest(self, tmp_path):
        cache = ResultCache(tmp_path)
        exps = [_tiny("a"), _tiny("b")]
        for _ in range(2):  # cold, then served from the cache
            result = run_sweep(exps, cache=cache)
            for record, summary in zip(result.records, result.summaries):
                assert record.fingerprint == fingerprint_digest(summary)
        assert [r.status for r in result.records] == ["cached", "cached"]

    def test_uncached_digest_is_computed_on_first_use(self, fingerprint_calls):
        result = run_sweep([_tiny()], cache=False)
        assert result.records[0].fingerprint is None and fingerprint_calls == []
        digest = result.digest(0)
        assert result.digest(0) == digest == result.records[0].fingerprint
        assert len(fingerprint_calls) == 1

    def test_put_trusts_a_given_digest(self, tmp_path, fingerprint_calls):
        cache = ResultCache(tmp_path)
        exp = _tiny()
        summary = run_experiment_summary(exp)
        cache.put(exp, summary, "0" * 64)  # wrong: the load check must catch it
        assert fingerprint_calls == []
        assert cache.get(exp) is None
        assert cache.entry_paths() == []


def _garbage(entry):
    return b"not a pickle"


def _tampered(entry):
    entry["summary"] = replace(entry["summary"], rx_drops=entry["summary"].rx_drops + 1)
    return pickle.dumps(entry)


class TestCorruptEntry:
    @pytest.mark.parametrize("corrupt", [_garbage, _tampered], ids=["garbage", "tampered"])
    def test_corrupt_cell_is_evicted_and_recomputed(self, tmp_path, corrupt):
        cache = ResultCache(tmp_path)
        cold = run_tenants(cache=cache, **TENANT_KWARGS)
        path = cache.entry_paths()[0]
        path.write_bytes(corrupt(pickle.loads(path.read_bytes())))
        again = run_tenants(cache=cache, **TENANT_KWARGS)
        assert sorted(cell.cached for cell in again.cells) == [False, True]
        assert [cell.digest for cell in again.cells] == [cell.digest for cell in cold.cells]
        assert again.fingerprint == cold.fingerprint
        # The recomputed result was stored again as a valid entry.
        assert all(cache._load(p) for p in cache.entry_paths())
        assert len(cache.entry_paths()) == 2
