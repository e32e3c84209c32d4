"""Tests for the warm session pool behind the parallel runner.

The pool contract: created once per session, reused across
``run_experiments``/``run_sweep`` calls (no per-batch fork), batches
broadcast through the generation-tagged spool file, results returned in
input order regardless of completion order, and the resilience paths
(crash retry, timeout-poisoned-pool replacement) intact on the warm
pool.  Everything here skips cleanly on hosts where process pools are
unavailable (``get_pool`` returns ``None`` there by design).
"""

import pickle

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.harness import runner
from repro.harness.experiment import Experiment
from repro.cache import ResultCache
from repro.harness.runner import (
    get_pool,
    pool_session,
    run_experiments,
    run_sweep,
    shutdown_pool,
)
from repro.harness.server import ServerConfig


def small_experiment(name="warm-test", **kwargs) -> Experiment:
    kwargs.setdefault("traffic", "bursty")
    kwargs.setdefault("burst_rate_gbps", 25.0)
    server = kwargs.pop("server", None) or ServerConfig(
        app="touchdrop", ring_size=128
    )
    return Experiment(name=name, server=server, **kwargs)


@pytest.fixture
def warm_pool():
    """A live warm pool (or skip), torn down after the test."""
    shutdown_pool()
    pool = get_pool(2)
    if pool is None:
        pytest.skip("host cannot create process pools")
    yield pool
    shutdown_pool()


class TestWarmReuse:
    def test_same_pool_object_across_batches(self, warm_pool):
        batches = warm_pool.batches_dispatched
        run_experiments([small_experiment(f"a{i}") for i in range(2)], jobs=2)
        assert runner._session_pool is warm_pool
        run_experiments([small_experiment(f"b{i}") for i in range(2)], jobs=2)
        assert runner._session_pool is warm_pool
        assert warm_pool.batches_dispatched == batches + 2

    def test_wider_pool_is_reused_narrower_is_replaced(self, warm_pool):
        assert get_pool(2) is warm_pool  # exact match reuses
        assert get_pool(1) is None  # serial never takes the pool
        assert runner._session_pool is warm_pool  # ... and leaves it alone
        wider = get_pool(3)
        if wider is None:
            pytest.skip("host cannot widen the pool")
        assert wider is not warm_pool  # narrower pool was replaced
        assert get_pool(2) is wider  # a wider pool serves jobs=2 as-is

    def test_generation_advances_per_broadcast(self, warm_pool):
        g1 = warm_pool.broadcast([small_experiment("g1")])
        g2 = warm_pool.broadcast([small_experiment("g2")])
        assert g2 == g1 + 1

    def test_shutdown_pool_is_idempotent(self, warm_pool):
        shutdown_pool()
        assert runner._session_pool is None
        shutdown_pool()  # second call is a no-op, not an error
        assert runner._session_pool is None

    def test_pool_session_scopes_the_pool(self):
        shutdown_pool()
        with pool_session(2) as pool:
            if pool is None:
                pytest.skip("host cannot create process pools")
            assert runner._session_pool is pool
            run_experiments(
                [small_experiment(f"s{i}") for i in range(2)], jobs=2
            )
            assert runner._session_pool is pool
        assert runner._session_pool is None


class TestOrderingAndIdentity:
    def test_results_ordered_despite_uneven_durations(self, warm_pool):
        # First experiment is much slower than the rest: with two workers
        # the short ones complete first, so input order is only preserved
        # if the runner orders by index, not by completion.
        exps = [
            small_experiment("slow", burst_rate_gbps=100.0),
            small_experiment("fast-1"),
            small_experiment("fast-2"),
            small_experiment("fast-3"),
        ]
        summaries = run_experiments(exps, jobs=2)
        assert [s.experiment.name for s in summaries] == [e.name for e in exps]

    def test_warm_pool_fingerprints_match_serial(self, warm_pool):
        exps = [small_experiment(f"fp{i}") for i in range(3)]
        serial = run_experiments(exps, jobs=1)
        pooled = run_experiments(exps, jobs=2)
        assert runner._session_pool is warm_pool
        for ser, par in zip(serial, pooled):
            assert pickle.dumps(ser.fingerprint()) == pickle.dumps(
                par.fingerprint()
            )

    def test_dispatch_note_records_chunksize(self, warm_pool):
        exps = [small_experiment(f"d{i}") for i in range(2)]
        run_experiments(exps, jobs=2)
        assert runner.last_dispatch["mode"] == "warm-pool"
        assert runner.last_dispatch["workers"] == warm_pool.workers
        assert runner.last_dispatch["chunksize"] == 1  # one task per attempt
        run_experiments(exps, jobs=1)
        assert runner.last_dispatch["mode"] == "serial"

    def test_dispatch_note_is_fresh_after_every_sweep(self, warm_pool, tmp_path):
        """Serial and fully cached sweeps record their own dispatch; the
        note never describes an earlier call."""
        exps = [small_experiment(f"n{i}") for i in range(2)]
        cache = ResultCache(tmp_path)
        run_sweep(exps, jobs=2, cache=cache)
        assert runner.last_dispatch["mode"] == "warm-pool"
        run_sweep([small_experiment("n-serial")], jobs=1, cache=False)
        assert runner.last_dispatch == {
            "mode": "serial", "workers": 1, "chunksize": 0, "batch": 1
        }
        run_sweep(exps, jobs=2, cache=False)
        assert runner.last_dispatch["mode"] == "warm-pool"
        warm = run_sweep(exps, jobs=2, cache=cache)
        assert warm.counts() == {"cached": 2}
        assert runner.last_dispatch == {
            "mode": "cached", "workers": 0, "chunksize": 0, "batch": 0
        }


class TestSweepResilienceOnWarmPool:
    def test_crash_is_retried_and_pool_survives(self, warm_pool):
        plan = FaultPlan(specs=(FaultSpec("harness.crash", magnitude=1.0),))
        exps = [
            small_experiment("crashy", server=ServerConfig(
                app="touchdrop", ring_size=128, fault_plan=plan
            )),
            small_experiment("clean"),
        ]
        result = run_sweep(exps, jobs=2, retries=1)
        assert [r.status for r in result.records] == ["retried", "ok"]
        # A crash is an ordinary exception in a worker; it must not cost
        # the session its warm pool.
        assert runner._session_pool is warm_pool

    def test_timeout_discards_the_poisoned_pool(self, warm_pool):
        plan = FaultPlan(specs=(FaultSpec("harness.hang", magnitude=5.0),))
        exps = [
            small_experiment("wedged", server=ServerConfig(
                app="touchdrop", ring_size=128, fault_plan=plan
            )),
        ]
        result = run_sweep(exps, jobs=2, timeout_s=0.5, retries=0)
        assert result.records[0].status == "timeout"
        # The wedged worker still holds a slot: the pool must have been
        # terminated and discarded, not handed to the next caller.
        assert runner._session_pool is not warm_pool

