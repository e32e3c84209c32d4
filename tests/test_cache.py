"""Result-cache tests: key derivation, store semantics, runner integration.

The acceptance bar (see docs/caching.md): a cache hit must return a
summary whose determinism fingerprint is **byte-identical** to a cold
recompute, any config/seed/fault-plan/version/source change must miss, corrupt
entries must be detected and evicted (never replayed), concurrent
writers of one key must leave one valid entry, and a warm-cache sweep
must beat the cold run by at least an order of magnitude.
"""

import os
import pickle
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.analysis.determinism import fingerprint_digest
from repro.cache import (
    ResultCache,
    cache_session,
    canonical,
    code_version,
    config_digest,
    get_default_cache,
    is_cacheable,
    resolve_cache,
    set_default_cache,
    uncacheable_reason,
)
from repro.cache.store import CacheEntryError, _atomic_write_bytes
from repro.core.policies import ddio, idio
from repro.faults import FaultPlan, FaultSpec, standard_plan
from repro.harness.experiment import Experiment
from repro.harness.runner import (
    run_experiment_summary,
    run_experiments,
    run_sweep,
    shutdown_pool,
)
from repro.harness.server import ServerConfig
from repro.tenants.sweep import run_tenants


def tiny_experiment(name="cache-exp", **overrides):
    server_overrides = overrides.pop("server_overrides", {})
    server = ServerConfig(
        app="touchdrop", ring_size=128, **server_overrides
    )
    defaults = dict(
        name=name,
        server=server,
        traffic="bursty",
        burst_rate_gbps=25.0,
        num_bursts=1,
    )
    defaults.update(overrides)
    return Experiment(**defaults)


def summarize(exp):
    """``exp``'s summary and its fingerprint digest, as ``put`` takes them."""
    summary = run_experiment_summary(exp)
    return summary, fingerprint_digest(summary)


@pytest.fixture(autouse=True)
def _no_ambient_cache():
    """Tests control the default cache explicitly; never inherit one."""
    previous = set_default_cache(None)
    yield
    set_default_cache(previous)


class TestCanonical:
    def test_scalars_pass_through(self):
        assert canonical(3) == 3
        assert canonical("x") == "x"
        assert canonical(None) is None

    def test_dict_order_is_canonicalized(self):
        assert canonical({"b": 1, "a": 2}) == canonical({"a": 2, "b": 1})

    def test_unknown_object_raises(self):
        with pytest.raises(TypeError):
            canonical(object())

    def test_experiment_is_canonicalizable(self):
        canonical(tiny_experiment())  # must not raise


class TestConfigDigest:
    def test_equal_configs_equal_digests(self):
        assert config_digest(tiny_experiment()) == config_digest(
            tiny_experiment()
        )

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda e: replace(e, traffic_seed=e.traffic_seed + 1),
            lambda e: replace(e, burst_rate_gbps=e.burst_rate_gbps + 1.0),
            lambda e: replace(e, traffic="steady"),
            lambda e: replace(e, server=replace(e.server, ring_size=256)),
            lambda e: replace(e, server=replace(e.server, app="l2fwd")),
            lambda e: e.with_policy(idio()),
            lambda e: replace(
                e,
                server=replace(
                    e.server, fault_plan=standard_plan("nic", seed=7)
                ),
            ),
        ],
        ids=[
            "seed", "rate", "traffic-kind", "ring", "workload", "policy",
            "fault-plan",
        ],
    )
    def test_any_config_change_moves_the_digest(self, mutate):
        base = tiny_experiment()
        assert config_digest(base) != config_digest(mutate(base))

    def test_version_bump_moves_the_digest(self):
        exp = tiny_experiment()
        assert config_digest(exp, version="0.4.0") != config_digest(
            exp, version="0.4.1"
        )

    def test_default_version_covers_the_sources(self, tmp_path):
        exp = tiny_experiment()
        assert config_digest(exp) == config_digest(exp, version=code_version())
        assert code_version().startswith(repro.__version__ + "+")
        assert ResultCache(tmp_path).version == code_version()

    def test_one_byte_source_edit_misses(self, tmp_path):
        """Editing the package without a version bump must not replay
        summaries computed by the old code."""
        package = Path(repro.__file__).resolve().parent
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(package, tmp_path / "a" / "repro", ignore=ignore)
        edited = shutil.copytree(package, tmp_path / "b" / "repro", ignore=ignore)
        target = edited / "sim" / "units.py"
        target.write_bytes(target.read_bytes() + b" ")

        def version_of(checkout):
            out = subprocess.run(
                [sys.executable, "-c",
                 "from repro.cache import code_version; print(code_version())"],
                env={**os.environ, "PYTHONPATH": str(checkout)},
                cwd=tmp_path, capture_output=True, text=True, check=True,
            )
            return out.stdout.strip()

        original, changed = version_of(tmp_path / "a"), version_of(tmp_path / "b")
        assert original == code_version()  # same bytes, same key
        assert changed != original

        exp = tiny_experiment()
        store = tmp_path / "cache"
        ResultCache(store, version=original).put(exp, *summarize(exp))
        assert ResultCache(store, version=original).get(exp) is not None
        assert ResultCache(store, version=changed).get(exp) is None

    def test_harness_faults_are_uncacheable(self):
        plan = FaultPlan(specs=(FaultSpec("harness.crash",),))
        exp = tiny_experiment(server_overrides={"fault_plan": plan})
        assert not is_cacheable(exp)
        assert "harness" in uncacheable_reason(exp)
        assert is_cacheable(tiny_experiment())


class TestResolveCache:
    def test_false_always_disables(self, tmp_path):
        with cache_session(tmp_path):
            assert resolve_cache(False) is None

    def test_none_falls_through_to_default(self, tmp_path):
        assert resolve_cache(None) is None  # no default installed
        with cache_session(tmp_path) as cache:
            assert resolve_cache(None) is cache
            assert get_default_cache() is cache
        assert get_default_cache() is None

    def test_instance_used_as_is(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert resolve_cache(cache) is cache


class TestStoreRoundTrip:
    def test_hit_is_byte_identical_to_cold_recompute(self, tmp_path):
        cache = ResultCache(tmp_path)
        exp = tiny_experiment()
        assert cache.get(exp) is None  # cold: absent
        summary = run_experiment_summary(exp)
        digest = cache.put(exp, summary, fingerprint_digest(summary))
        assert digest == cache.digest_for(exp)
        hit = cache.get(exp)
        cold = run_experiment_summary(exp)  # independent recompute
        assert fingerprint_digest(hit) == fingerprint_digest(cold)
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_uncacheable_put_is_a_noop(self, tmp_path):
        cache = ResultCache(tmp_path)
        plan = FaultPlan(specs=(FaultSpec("harness.crash",),))
        exp = tiny_experiment(server_overrides={"fault_plan": plan})
        clean = tiny_experiment()
        assert cache.put(exp, *summarize(clean)) is None
        assert cache.entry_paths() == []
        assert cache.get(exp) is None  # forced miss, no file ever

    def test_version_change_invalidates(self, tmp_path):
        exp = tiny_experiment()
        summary, fingerprint = summarize(exp)
        ResultCache(tmp_path, version="1.0").put(exp, summary, fingerprint)
        assert ResultCache(tmp_path, version="1.0").get(exp) is not None
        assert ResultCache(tmp_path, version="2.0").get(exp) is None

    def test_corrupt_entry_is_evicted_on_read(self, tmp_path):
        cache = ResultCache(tmp_path)
        exp = tiny_experiment()
        digest = cache.put(exp, *summarize(exp))
        path = cache.path_for(digest)
        path.write_bytes(b"not a pickle")
        assert cache.get(exp) is None
        assert (cache.hits, cache.misses) == (0, 1)
        assert not path.exists()  # evicted, not replayed

    def test_tampered_summary_fails_fingerprint_check(self, tmp_path):
        cache = ResultCache(tmp_path)
        exp = tiny_experiment()
        digest = cache.put(exp, *summarize(exp))
        path = cache.path_for(digest)
        entry = pickle.loads(path.read_bytes())
        entry["summary"] = replace(entry["summary"], rx_drops=999999)
        path.write_bytes(pickle.dumps(entry))
        with pytest.raises(CacheEntryError):
            cache._load(path, expect_digest=digest)
        assert cache.get(exp) is None  # corrupt miss + eviction

    def test_concurrent_writers_leave_one_valid_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        exp = tiny_experiment()
        summary, fingerprint = summarize(exp)
        errors = []

        def writer():
            try:
                for _ in range(10):
                    cache.put(exp, summary, fingerprint)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(cache.entry_paths()) == 1
        # No stray temp files left behind by the atomic writer.
        assert list(cache.root.glob("*/*.tmp")) == []
        hit = ResultCache(tmp_path).get(exp)
        assert fingerprint_digest(hit) == fingerprint_digest(summary)

    def test_atomic_write_cleans_up_on_failure(self, tmp_path):
        target = tmp_path / "ab" / "entry.pkl"
        _atomic_write_bytes(target, b"payload")
        assert target.read_bytes() == b"payload"
        assert list(tmp_path.glob("ab/*.tmp")) == []


class TestRunnerIntegration:
    def test_cold_then_warm_with_identical_fingerprints(self, tmp_path):
        cache = ResultCache(tmp_path)
        exps = [
            tiny_experiment("a").with_policy(ddio()),
            tiny_experiment("b").with_policy(idio()),
        ]
        t0 = time.perf_counter()
        cold = run_experiments(exps, cache=cache)
        cold_wall = time.perf_counter() - t0
        assert (cache.hits, cache.misses, cache.stores) == (0, 2, 2)
        t0 = time.perf_counter()
        warm = run_experiments(exps, cache=cache)
        warm_wall = time.perf_counter() - t0
        assert (cache.hits, cache.misses) == (2, 2)
        for c, w in zip(cold, warm):
            assert fingerprint_digest(c) == fingerprint_digest(w)
        # The acceptance bar: a warm-cache re-run is >= 10x faster than
        # the cold run (in practice it is 2-3 orders of magnitude).
        assert warm_wall * 10.0 <= cold_wall, (warm_wall, cold_wall)

    def test_cache_false_disables(self, tmp_path):
        with cache_session(tmp_path) as cache:
            exps = [tiny_experiment()]
            run_experiments(exps, cache=False)
            assert (cache.hits, cache.misses, cache.stores) == (0, 0, 0)
            run_experiments(exps)  # picks up the session default
            assert (cache.misses, cache.stores) == (1, 1)

    def test_partial_hit_batch_preserves_order(self, tmp_path):
        cache = ResultCache(tmp_path)
        a, b, c = (tiny_experiment(n) for n in ("a", "b", "c"))
        cache.put(b, *summarize(b))
        out = run_experiments([a, b, c], cache=cache)
        assert [s.experiment.name for s in out] == ["a", "b", "c"]
        assert cache.hits == 1 and cache.misses == 2

    def test_sweep_hits_are_marked_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        exps = [tiny_experiment("s0"), tiny_experiment("s1", traffic_seed=1)]
        cold = run_sweep(exps, cache=cache)
        assert [r.status for r in cold.records] == ["ok", "ok"]
        warm = run_sweep(exps, cache=cache)
        assert [r.status for r in warm.records] == ["cached", "cached"]
        assert all(r.succeeded for r in warm.records)
        assert [s.status for s in warm.summaries] == ["cached", "cached"]
        assert [s.attempts for s in warm.summaries] == [0, 0]
        for c, w in zip(cold.summaries, warm.summaries):
            assert fingerprint_digest(c) == fingerprint_digest(w)

    def test_sweep_harness_faults_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        plan = FaultPlan(specs=(FaultSpec("harness.crash", magnitude=1.0),))
        exps = [tiny_experiment(server_overrides={"fault_plan": plan})]
        first = run_sweep(exps, retries=2, cache=cache)
        assert first.records[0].status == "retried"
        assert cache.stores == 0 and cache.entry_paths() == []
        second = run_sweep(exps, retries=2, cache=cache)
        assert second.records[0].status == "retried"  # re-ran live
        assert cache.hits == 0


class TestTenantsIncremental:
    def tenants(self, cache, duration_us=30.0):
        return run_tenants(
            [ddio()], intensities=(0.5, 2.0), duration_us=duration_us, seed=5, cache=cache
        )

    def test_second_run_reuses_every_cell(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = self.tenants(cache)
        assert [cell.cached for cell in cold.cells] == [False, False]
        warm = self.tenants(cache)
        assert [cell.cached for cell in warm.cells] == [True, True]
        assert [cell.digest for cell in warm.cells] == [cell.digest for cell in cold.cells]
        assert warm.fingerprint == cold.fingerprint

    def test_config_change_recomputes_every_cell(self, tmp_path):
        cache = ResultCache(tmp_path)
        self.tenants(cache)
        changed = self.tenants(cache, duration_us=40.0)
        assert [cell.cached for cell in changed.cells] == [False, False]


class TestVerifyGc:
    def populate(self, tmp_path, n=2):
        cache = ResultCache(tmp_path)
        exps = [
            tiny_experiment(f"v{i}", traffic_seed=i) for i in range(n)
        ]
        for exp in exps:
            cache.put(exp, *summarize(exp))
        return cache, exps

    def test_verify_clean_cache(self, tmp_path):
        cache, _ = self.populate(tmp_path)
        report = cache.verify()
        assert report.clean
        assert report.entries == report.sampled == report.verified_ok == 2
        assert report.evicted == 0

    def test_verify_detects_and_evicts_corruption(self, tmp_path):
        cache, exps = self.populate(tmp_path)
        digest = cache.digest_for(exps[0])
        cache.path_for(digest).write_bytes(b"\x00garbage")
        report = cache.verify()
        assert not report.clean
        assert report.corrupt == [digest]
        assert report.evicted == 1
        assert len(cache.entry_paths()) == 1
        assert cache.verify().clean  # stable after eviction

    def test_verify_detects_and_evicts_stale_results(self, tmp_path):
        cache, exps = self.populate(tmp_path, n=1)
        digest = cache.digest_for(exps[0])
        path = cache.path_for(digest)
        # An internally consistent entry whose *result* no longer matches
        # a recompute: the summary was doctored and its fingerprint
        # recomputed, as a simulator-behavior drift would produce.
        entry = pickle.loads(path.read_bytes())
        entry["summary"] = replace(entry["summary"], rx_drops=12345)
        entry["fingerprint"] = fingerprint_digest(entry["summary"])
        path.write_bytes(pickle.dumps(entry))
        report = cache.verify()
        assert report.mismatched == [digest]
        assert report.evicted == 1
        assert cache.entry_paths() == []

    def test_verify_sample_and_no_evict(self, tmp_path):
        cache, _ = self.populate(tmp_path, n=3)
        report = cache.verify(sample=1, seed=0)
        assert report.entries == 3 and report.sampled == 1
        digest = cache.entry_paths()[0].stem
        cache.path_for(digest).write_bytes(b"junk")
        kept = cache.verify(evict=False)
        assert kept.corrupt == [digest] and kept.evicted == 0
        assert len(cache.entry_paths()) == 3

    def test_gc_evicts_foreign_versions_first(self, tmp_path):
        cache, exps = self.populate(tmp_path, n=1)
        old = tiny_experiment("old", traffic_seed=9)
        ResultCache(tmp_path, version="0.0.1").put(old, *summarize(old))
        assert len(cache.entry_paths()) == 2
        report = cache.gc()
        assert report.evicted_foreign == 1
        assert report.entries_after == 1
        assert cache.get(exps[0]) is not None

    def test_gc_budget_evicts_oldest(self, tmp_path):
        cache, _ = self.populate(tmp_path, n=2)
        report = cache.gc(max_bytes=0)
        assert report.evicted_over_budget == 2
        assert report.entries_after == 0 and report.bytes_after == 0

    def test_gc_stale_by_age(self, tmp_path):
        cache, exps = self.populate(tmp_path, n=1)
        path = cache.path_for(cache.digest_for(exps[0]))
        entry = pickle.loads(path.read_bytes())
        entry["created"] = time.time() - 10 * 86400.0
        path.write_bytes(pickle.dumps(entry))
        report = cache.gc(max_age_days=1.0)
        assert report.evicted_stale == 1


@pytest.fixture(scope="module", autouse=True)
def _drain_pool():
    yield
    shutdown_pool()
