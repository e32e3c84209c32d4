"""Tests for the resilient sweep runner (``run_sweep``).

The sweep runner is the harness-level half of the fault story: a batch
must survive crashed workers (bounded retry with backoff), hung workers
(per-experiment timeout), and outright failures, and still report every
experiment in a partial-result manifest with an exit code that reflects
the damage.  Crashes and hangs are injected deterministically through
``harness.*`` fault kinds, so these tests need no monkeypatching.
"""

import json

import pytest

from repro.faults import FaultPlan, FaultSpec, standard_plan
from repro.harness.experiment import Experiment
from repro.harness.matrix import Matrix
from repro.harness.runner import (
    InjectedCrash,
    SweepRecord,
    SweepResult,
    _apply_harness_faults,
    run_sweep,
)
from repro.harness.server import ServerConfig


def sweep_experiment(name, plan=None, **kwargs):
    return Experiment(
        name=name,
        server=ServerConfig(
            app="touchdrop",
            ring_size=128,
            fault_plan=plan if plan is not None else FaultPlan(),
        ),
        burst_rate_gbps=25.0,
        traffic="bursty",
        **kwargs,
    )


def crash_plan(crashing_attempts):
    """A plan whose worker crashes on the first ``crashing_attempts``
    attempts (0 = every attempt)."""
    return FaultPlan(specs=(
        FaultSpec("harness.crash", magnitude=float(crashing_attempts)),
    ))


def hang_plan(seconds):
    return FaultPlan(specs=(FaultSpec("harness.hang", magnitude=seconds),))


class TestHarnessFaults:
    def test_crash_zero_magnitude_crashes_every_attempt(self):
        exp = sweep_experiment("c", crash_plan(0))
        for attempt in (1, 2, 5):
            with pytest.raises(InjectedCrash):
                _apply_harness_faults(exp, attempt)

    def test_crash_magnitude_bounds_crashing_attempts(self):
        exp = sweep_experiment("c", crash_plan(1))
        with pytest.raises(InjectedCrash):
            _apply_harness_faults(exp, 1)
        _apply_harness_faults(exp, 2)  # attempt 2 survives

    def test_probability_gate_is_deterministic(self):
        plan = FaultPlan(
            specs=(FaultSpec("harness.crash", probability=0.5),), seed=9
        )
        exp = sweep_experiment("c", plan)
        outcomes = []
        for _ in range(3):
            try:
                _apply_harness_faults(exp, 1)
                outcomes.append("ok")
            except InjectedCrash:
                outcomes.append("crash")
        assert len(set(outcomes)) == 1  # same attempt => same draw


@pytest.mark.parametrize("jobs", [1, 2])
class TestRunSweep:
    def test_clean_sweep_all_ok(self, jobs):
        batch = [sweep_experiment(f"ok-{i}") for i in range(2)]
        sweep = run_sweep(batch, jobs=jobs)
        assert [r.status for r in sweep.records] == ["ok", "ok"]
        assert all(s is not None for s in sweep.summaries)
        assert sweep.exit_code == 0
        assert sweep.counts() == {"ok": 2}

    def test_crash_once_is_retried(self, jobs):
        sweep = run_sweep([sweep_experiment("flaky", crash_plan(1))],
                          jobs=jobs, retries=1)
        (rec,) = sweep.records
        assert rec.status == "retried"
        assert rec.attempts == 2
        assert rec.succeeded
        assert sweep.summaries[0].status == "retried"
        assert sweep.exit_code == 0

    def test_crash_always_is_failed_after_retries(self, jobs):
        sweep = run_sweep([sweep_experiment("dead", crash_plan(0))],
                          jobs=jobs, retries=1)
        (rec,) = sweep.records
        assert rec.status == "failed"
        assert rec.attempts == 2  # initial + 1 retry
        assert "InjectedCrash" in rec.error
        assert sweep.summaries == [None]
        assert sweep.exit_code == 2  # nothing succeeded

    def test_mixed_batch_partial_failure_manifest(self, jobs):
        """The acceptance scenario: one hanging and one crashing
        experiment ride along with healthy ones; both losses land in the
        manifest and the exit code reports partial failure."""
        batch = [
            sweep_experiment("healthy-0"),
            sweep_experiment("wedged", hang_plan(1.5)),
            sweep_experiment("crasher", crash_plan(0)),
            sweep_experiment("healthy-1"),
        ]
        sweep = run_sweep(batch, jobs=jobs, timeout_s=0.75, retries=1)
        by_name = {r.name: r for r in sweep.records}
        assert by_name["healthy-0"].status == "ok"
        assert by_name["healthy-1"].status == "ok"
        assert by_name["wedged"].status == "timeout"
        assert by_name["crasher"].status == "failed"
        assert sweep.exit_code == 1  # partial failure

        # Positional pairing survives the losses.
        assert sweep.summaries[1] is None and sweep.summaries[2] is None
        assert sweep.summaries[0].experiment.name == "healthy-0"

        manifest = sweep.failure_manifest()
        json.dumps(manifest)  # must be JSON-able for CI artifacts
        assert manifest["total"] == 4
        assert manifest["exit_code"] == 1
        assert {f["name"] for f in manifest["failures"]} == {"wedged", "crasher"}
        statuses = {f["name"]: f["status"] for f in manifest["failures"]}
        assert statuses == {"wedged": "timeout", "crasher": "failed"}

    def test_faulted_sweep_deterministic_fingerprints(self, jobs):
        """Same seeded FaultPlan => byte-identical summary fingerprints,
        serial and pooled (the fault-layer determinism regression)."""
        batch = [sweep_experiment("det", standard_plan("all", seed=11))]
        reference = run_sweep(batch, jobs=1).summaries[0]
        other = run_sweep(batch, jobs=jobs).summaries[0]
        assert other.fingerprint() == reference.fingerprint()
        assert other.fault_counts == reference.fault_counts
        assert other.fault_counts  # the plan actually injected


class TestSweepResult:
    def _rec(self, status):
        return SweepRecord(name="x", status=status, attempts=1)

    def test_exit_codes(self):
        assert SweepResult(records=[self._rec("ok")]).exit_code == 0
        assert SweepResult(
            records=[self._rec("ok"), self._rec("failed")]
        ).exit_code == 1
        assert SweepResult(
            records=[self._rec("timeout"), self._rec("failed")]
        ).exit_code == 2
        assert SweepResult().exit_code == 0  # empty sweep is a no-op

    def test_retried_counts_as_success(self):
        assert self._rec("retried").succeeded
        assert not self._rec("timeout").succeeded

    def test_empty_input_returns_empty_result(self):
        sweep = run_sweep([], jobs=4)
        assert sweep.records == [] and sweep.summaries == []


class TestMatrixViews:
    def sweep(self, **view):
        return run_sweep(
            Matrix.build(("label", "rate"), [("a", 1), ("b", 2)],
                         lambda label, rate: sweep_experiment(f"{label}{rate}"), **view)
        )

    def test_rows_default_to_axis_values_and_status(self):
        result = self.sweep()
        assert result.rows() == [{"label": "a", "rate": 1, "status": "ok"},
                                 {"label": "b", "rate": 2, "status": "ok"}]
        assert result.cell(label="b").rate == 2

    def test_cell_lookup_needs_exactly_one_match(self):
        result = self.sweep()
        with pytest.raises(KeyError):
            result.cell(label="c")

    def test_columns_name_header_and_key_once(self):
        result = self.sweep(
            columns=("label", ("packets", "rx")),
            rows=lambda r: ({"label": c.label, "rx": c.summary.rx_packets} for c in r.cells),
            header=lambda r: ["above"],
            footer=lambda r: ["below"],
        )
        lines = result.render().splitlines()
        assert lines[0] == "above" and lines[-1] == "below"
        assert lines[2].split() == ["|", "label", "|", "packets", "|"]

    def test_rows_without_columns_print_no_table(self):
        result = self.sweep(rows=lambda r: [{"x": 1}], header=lambda r: ["only"])
        assert result.render() == "only"
        assert result.rows() == [{"x": 1}]

    @pytest.mark.parametrize("axis", ["key", "status", "summary", "digest"])
    def test_axis_shadowed_by_a_cell_attribute_is_rejected(self, axis):
        with pytest.raises(ValueError, match=axis):
            Matrix.build((axis,), [("a",)], lambda a: sweep_experiment(a))

