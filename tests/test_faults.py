"""Tests for the seeded fault-injection layer (``repro.faults``).

Three properties carry the subsystem: plans are validated at construction
(a typo fails before the sweep starts), injection is deterministic (same
plan + same experiment => byte-identical fault decisions), and every
injected fault is observable (a typed ``FaultEvent`` on the bus that the
trace recorder and the invariant sanitizer both see).
"""

import pickle

import pytest

from repro.cache.digest import canonical
from repro.core.policies import ddio, idio
from repro.faults import (
    FAULT_KINDS,
    FAULT_LAYERS,
    FaultEvent,
    FaultPlan,
    FaultSpec,
    standard_plan,
)
from repro.harness.experiment import Experiment, run_experiment
from repro.harness.server import ServerConfig


def faulted_experiment(plan, name="faults-test", policy=None, **server_kwargs):
    server_kwargs.setdefault("app", "touchdrop")
    server_kwargs.setdefault("ring_size", 128)
    exp = Experiment(
        name=name,
        server=ServerConfig(fault_plan=plan, **server_kwargs),
        burst_rate_gbps=25.0,
        traffic="bursty",
    )
    return exp.with_policy(policy) if policy is not None else exp


class TestFaultSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan(specs=(FaultSpec("nic.typo"),))

    def test_every_documented_kind_accepted(self):
        for kind in FAULT_KINDS:
            FaultSpec(kind).validate()

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_probability_bounds(self, bad):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec("nic.rx_drop_burst", probability=bad).validate()

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="start_us"):
            FaultSpec("mem.dram_spike", start_us=-1.0).validate()

    def test_period_requires_duration(self):
        with pytest.raises(ValueError, match="period_us requires"):
            FaultSpec("mem.dram_spike", period_us=100.0).validate()

    def test_period_must_exceed_duration(self):
        with pytest.raises(ValueError, match="must exceed"):
            FaultSpec(
                "mem.dram_spike", duration_us=50.0, period_us=50.0
            ).validate()

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError, match="magnitude"):
            FaultSpec("pcie.tlp_delay", magnitude=-1.0).validate()

    def test_layer_property(self):
        assert FaultSpec("pcie.tlp_delay").layer == "pcie"
        assert FaultSpec("harness.crash").layer == "harness"


class TestFaultPlan:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.is_empty
        assert plan.specs_for("nic") == ()

    def test_list_input_coerced_to_tuple(self):
        plan = FaultPlan(specs=[FaultSpec("nic.rx_drop_burst")])
        assert isinstance(plan.specs, tuple)

    def test_specs_for_preserves_global_index(self):
        plan = FaultPlan(specs=(
            FaultSpec("nic.rx_drop_burst"),
            FaultSpec("mem.dram_spike", magnitude=100.0),
            FaultSpec("nic.desc_wb_jitter", magnitude=50.0),
        ))
        assert [i for i, _ in plan.specs_for("nic")] == [0, 2]
        assert [i for i, _ in plan.specs_for("mem")] == [1]

    def test_scaled_caps_at_one(self):
        plan = FaultPlan(specs=(FaultSpec("pcie.tlp_reorder", probability=0.6),))
        assert plan.scaled(10.0).specs[0].probability == 1.0
        assert plan.scaled(0.5).specs[0].probability == pytest.approx(0.3)

    def test_scaled_zero_disables_everything(self):
        plan = standard_plan("all", intensity=0.0)
        assert all(s.probability == 0.0 for s in plan.specs)

    def test_scaled_rejects_negative_intensity(self):
        with pytest.raises(ValueError, match="intensity"):
            FaultPlan().scaled(-1.0)

    def test_rng_seed_distinct_per_spec_and_plan_seed(self):
        plan_a = FaultPlan(seed=1)
        plan_b = FaultPlan(seed=2)
        assert plan_a.rng_seed(0) != plan_a.rng_seed(1)
        assert plan_a.rng_seed(0) != plan_b.rng_seed(0)

    def test_plan_pickles_inside_server_config(self):
        cfg = ServerConfig(fault_plan=standard_plan("nic", seed=3))
        clone = pickle.loads(pickle.dumps(cfg))
        assert clone.fault_plan == cfg.fault_plan

    def test_fingerprint_key_distinguishes_seeds(self):
        a = standard_plan("nic", seed=1)
        b = standard_plan("nic", seed=2)
        # The cache digest walks the plan, so the seed keys distinct entries.
        assert canonical(a) != canonical(b)


class TestStandardPlan:
    @pytest.mark.parametrize("layer", FAULT_LAYERS)
    def test_per_layer_specs_match_layer(self, layer):
        plan = standard_plan(layer)
        assert not plan.is_empty
        assert all(s.layer == layer for s in plan.specs)

    def test_all_combines_every_layer(self):
        plan = standard_plan("all")
        assert {s.layer for s in plan.specs} == set(FAULT_LAYERS)

    def test_unknown_layer_rejected(self):
        with pytest.raises(ValueError, match="unknown fault layer"):
            standard_plan("disk")


class TestInjection:
    """End-to-end: faults reach the simulation and surface as events."""

    def test_empty_plan_leaves_server_unfaulted(self):
        result = run_experiment(faulted_experiment(FaultPlan()))
        assert result.server.fault_injectors is None
        assert result.server.fault_counts == {}

    @pytest.mark.parametrize("layer", FAULT_LAYERS)
    def test_each_layer_injects_and_counts(self, layer):
        result = run_experiment(faulted_experiment(standard_plan(layer)))
        counts = result.server.fault_counts
        assert counts, f"no faults injected for layer {layer!r}"
        assert all(kind.startswith(layer + ".") for kind in counts)
        assert all(kind in FAULT_KINDS for kind in counts)

    def test_nic_drops_show_up_as_packet_drops(self):
        plan = FaultPlan(specs=(FaultSpec("nic.rx_drop_burst", probability=1.0),))
        clean = run_experiment(faulted_experiment(FaultPlan()))
        faulted = run_experiment(faulted_experiment(plan))
        assert faulted.completed < clean.completed

    def test_meta_corruption_survives_under_idio(self):
        """Corrupted IdioTag bits must degrade steering, never crash."""
        plan = FaultPlan(specs=(FaultSpec("pcie.meta_corrupt", probability=1.0),))
        result = run_experiment(faulted_experiment(plan, policy=idio()))
        assert result.completed > 0
        assert result.server.fault_counts.get("pcie.meta_corrupt", 0) > 0

    def test_faults_recorded_in_chrome_trace_lane(self):
        result = run_experiment(
            faulted_experiment(standard_plan("all"), trace_enabled=True)
        )
        server = result.server
        recorder = server.trace_recorder
        assert recorder is not None
        injected = sum(server.fault_counts.values())
        assert injected > 0
        trace = recorder.to_chrome_trace()
        fault_rows = [e for e in trace["traceEvents"]
                      if e.get("tid") == 7 and e.get("ph") == "i"]
        assert len(fault_rows) == injected
        assert {e["args"]["layer"] for e in fault_rows} <= set(FAULT_LAYERS)

    def test_checked_mode_accepts_declared_faults(self):
        """The sanitizer sees every fault and the structural invariants
        hold even under an all-layer fault schedule."""
        result = run_experiment(
            faulted_experiment(standard_plan("all"), checked_mode=True)
        )
        sanitizer = result.server.sanitizer
        assert sanitizer is not None
        assert sanitizer.violations_raised == 0
        assert sum(sanitizer.fault_events_seen.values()) == (
            sum(result.server.fault_counts.values())
        )

    def test_sanitizer_rejects_mismatched_fault_layer(self):
        from repro.analysis.sanitizer import InvariantSanitizer, InvariantViolation
        from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy

        sanitizer = InvariantSanitizer(MemoryHierarchy(HierarchyConfig()))
        with pytest.raises(InvariantViolation, match="fault-provenance"):
            sanitizer.on_fault(
                FaultEvent(layer="mem", kind="nic.rx_drop_burst", now=0, detail="")
            )

    def test_sanitizer_rejects_undeclared_fault_kind(self):
        from repro.analysis.sanitizer import InvariantSanitizer, InvariantViolation
        from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy

        sanitizer = InvariantSanitizer(MemoryHierarchy(HierarchyConfig()))
        sanitizer.register_faults(standard_plan("nic"))
        with pytest.raises(InvariantViolation, match="fault-provenance"):
            sanitizer.on_fault(
                FaultEvent(layer="mem", kind="mem.dram_spike", now=0, detail="")
            )


class TestDeterminism:
    def test_same_plan_same_fingerprint(self):
        a = run_experiment(faulted_experiment(standard_plan("all", seed=5)))
        b = run_experiment(faulted_experiment(standard_plan("all", seed=5)))
        assert a.summary().fingerprint() == b.summary().fingerprint()
        assert a.server.fault_counts == b.server.fault_counts

    def test_different_seed_different_decisions(self):
        a = run_experiment(faulted_experiment(standard_plan("all", seed=1)))
        b = run_experiment(faulted_experiment(standard_plan("all", seed=2)))
        assert a.server.fault_counts != b.server.fault_counts

    def test_fault_counts_participate_in_fingerprint(self):
        clean = run_experiment(faulted_experiment(FaultPlan(), policy=ddio()))
        faulted = run_experiment(
            faulted_experiment(standard_plan("nic"), policy=ddio())
        )
        assert clean.summary().fingerprint() != faulted.summary().fingerprint()
