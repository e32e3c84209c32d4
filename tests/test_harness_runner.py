"""Tests for the parallel experiment runner and ExperimentSummary.

The determinism regression is the load-bearing check: a seeded experiment
must produce byte-identical summaries whether it runs serially in-process
or inside a process-pool worker.  Everything a summary carries that is
simulation-derived participates in the fingerprint; only the wall-clock
diagnostics (``wall_seconds``/``events_per_second``) are excluded, since
they measure the host, not the simulation.
"""

import pickle
from array import array

import pytest

from repro.analysis.determinism import fingerprint_digest
from repro.core.policies import ddio, iat, idio
from repro.faults import FaultPlan, FaultSpec
from repro.harness import runner
from repro.harness.experiment import (
    SUMMARY_STREAMS,
    Experiment,
    ExperimentSummary,
    run_experiment,
    run_policy_comparison,
)
from repro.harness.runner import (
    InjectedCrash,
    run_experiment_summary,
    run_experiments,
    run_named_experiments,
    shutdown_pool,
)
from repro.harness.server import ServerConfig


def small_experiment(name="runner-test", policy=None, **kwargs) -> Experiment:
    kwargs.setdefault("traffic", "bursty")
    exp = Experiment(
        name=name,
        server=ServerConfig(app="touchdrop", ring_size=128),
        burst_rate_gbps=25.0,
        **kwargs,
    )
    return exp.with_policy(policy) if policy is not None else exp


class TestExperimentSummary:
    def test_summary_matches_result(self):
        result = run_experiment(small_experiment(policy=idio()))
        summary = result.summary()
        assert summary.policy_name == result.policy_name
        assert summary.window == result.window
        assert summary.completed == result.completed
        assert summary.latencies_ns == result.latencies_ns
        assert summary.p99_ns == result.p99_ns
        assert summary.decisions == result.decisions
        assert summary.events_fired > 0

    def test_summary_timeline_matches_result_timeline(self):
        result = run_experiment(small_experiment())
        summary = result.summary()
        for stream in ("pcie_writes", "mlc_writebacks", "llc_writebacks"):
            assert summary.timeline(stream) == result.timeline(stream)

    def test_summary_count_between_matches_event_log(self):
        result = run_experiment(small_experiment())
        summary = result.summary()
        start, end = result.window.start, result.window.end
        mid = (start + end) // 2
        assert summary.count_between("pcie_writes", start, mid) == (
            result.server.stats.events.count_between("pcie_writes", start, mid)
        )

    def test_unknown_stream_rejected(self):
        summary = run_experiment_summary(small_experiment())
        with pytest.raises(KeyError):
            summary.count_between("no_such_stream", 0, 1)

    def test_summary_is_picklable_and_round_trips(self):
        summary = run_experiment_summary(small_experiment(policy=idio()))
        clone = pickle.loads(pickle.dumps(summary))
        assert clone.fingerprint() == summary.fingerprint()

    def test_streams_are_int64_arrays_of_the_event_log(self):
        result = run_experiment(small_experiment(policy=idio()))
        summary = result.summary()
        events = result.server.stats.events
        assert sorted(summary.event_streams) == sorted(SUMMARY_STREAMS)
        for stream in SUMMARY_STREAMS:
            captured = summary.event_streams[stream]
            assert isinstance(captured, array) and captured.typecode == "q"
            assert list(captured) == events.timestamps(stream)
        assert sum(map(len, summary.event_streams.values())) > 0

    def test_unpickled_streams_digest_and_bin_like_the_live_result(self):
        result = run_experiment(small_experiment(policy=idio()))
        summary = result.summary()
        clone = pickle.loads(pickle.dumps(summary, protocol=pickle.HIGHEST_PROTOCOL))
        assert fingerprint_digest(clone) == fingerprint_digest(summary)
        events = result.server.stats.events
        start, end = result.window.start, result.window.end
        mid = (start + end) // 2
        for stream in SUMMARY_STREAMS:
            assert isinstance(clone.event_streams[stream], array)
            assert clone.timeline(stream) == result.timeline(stream)
            for lo, hi in ((start, mid), (mid, end), (start, end)):
                assert clone.count_between(stream, lo, hi) == (
                    events.count_between(stream, lo, hi)
                )

    def test_drop_server_releases_server_and_blocks_server_methods(self):
        result = run_experiment(small_experiment())
        assert result.server is not None
        result.drop_server()
        assert result.server is None
        with pytest.raises(RuntimeError):
            result.timeline("pcie_writes")
        with pytest.raises(RuntimeError):
            result.summary()
        # Summary-level fields stay usable after the drop.
        assert result.completed > 0


class TestRunExperiments:
    def test_serial_results_are_ordered(self):
        exps = [small_experiment(name=f"order-{i}") for i in range(3)]
        summaries = run_experiments(exps, jobs=1)
        assert [s.experiment.name for s in summaries] == [e.name for e in exps]

    def test_parallel_matches_serial_byte_for_byte(self):
        """The determinism regression: pool workers replay a seeded
        experiment identically to the serial path."""
        exps = [
            small_experiment(name="det-ddio", policy=ddio()),
            small_experiment(name="det-idio", policy=idio()),
            small_experiment(
                name="det-poisson",
                policy=idio(),
                traffic="poisson",
                traffic_seed=7,
            ),
        ]
        serial = run_experiments(exps, jobs=1)
        parallel = run_experiments(exps, jobs=2)
        assert [s.experiment.name for s in parallel] == [e.name for e in exps]
        for ser, par in zip(serial, parallel):
            assert ser.fingerprint() == par.fingerprint()
            assert pickle.dumps(ser.fingerprint()) == pickle.dumps(par.fingerprint())

    def test_jobs_none_uses_all_cores(self):
        exps = [small_experiment(name=f"auto-{i}") for i in range(2)]
        summaries = run_experiments(exps, jobs=None)
        assert len(summaries) == 2

    def test_named_experiments_keyed_and_ordered(self):
        named = [
            ("first", small_experiment(name="n1")),
            ("second", small_experiment(name="n2", policy=idio())),
        ]
        results = run_named_experiments(named, jobs=1)
        assert list(results) == ["first", "second"]
        assert results["second"].policy_name == "idio"

    def test_policy_comparison_returns_summaries(self):
        results = run_policy_comparison(
            small_experiment(), [ddio(), idio()], jobs=2
        )
        assert set(results) == {"ddio", "idio"}
        assert all(isinstance(s, ExperimentSummary) for s in results.values())


def _iat_on_4_ways() -> Experiment:
    """A config that builds but fails inside the run: ``IATController``
    needs up to 6 DDIO ways and rejects a 4-way LLC."""
    return Experiment(
        name="iat-4-ways",
        server=ServerConfig(policy=iat(), llc_ways=4, ring_size=128),
        burst_rate_gbps=25.0,
    )


@pytest.mark.parametrize("jobs", [1, 2])
class TestRunExperimentsRaises:
    """``run_experiments`` is ``run_sweep(retries=0)`` plus a re-raise of
    the first failed experiment's own exception, on every path."""

    def test_server_construction_error_keeps_its_type(self, jobs):
        with pytest.raises(ValueError, match="need 0 < min_ways <= max_ways <= 4"):
            run_experiments([small_experiment(name="fine"), _iat_on_4_ways()], jobs=jobs)

    def test_first_failure_in_input_order_is_raised(self, jobs):
        crash = FaultPlan(specs=(FaultSpec("harness.crash", magnitude=0.0),))
        bad_iat = _iat_on_4_ways()
        crashing = Experiment(
            name="crashing",
            server=ServerConfig(app="touchdrop", ring_size=128, fault_plan=crash),
            burst_rate_gbps=25.0,
        )
        with pytest.raises(InjectedCrash):
            run_experiments([crashing, bad_iat], jobs=jobs)
        with pytest.raises(ValueError):
            run_experiments([bad_iat, crashing], jobs=jobs)

    def test_harness_crash_fails_the_batch(self, jobs):
        plan = FaultPlan(specs=(FaultSpec("harness.crash", magnitude=1.0),))
        exp = Experiment(
            name="crash-once",
            server=ServerConfig(app="touchdrop", ring_size=128, fault_plan=plan),
            burst_rate_gbps=25.0,
        )
        # No retries: a crash that run_sweep would retry fails the batch.
        with pytest.raises(InjectedCrash, match="attempt 1"):
            run_experiments([exp, small_experiment(name="clean")], jobs=jobs)

    def test_single_experiment_creates_no_pool(self, jobs):
        shutdown_pool()
        summaries = run_experiments([small_experiment(name="solo")], jobs=jobs)
        assert summaries[0].status == "ok"
        assert runner._session_pool is None
        assert runner.last_dispatch["mode"] == "serial"
