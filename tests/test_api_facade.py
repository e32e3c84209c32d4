"""Tests for the stable facade (``repro.api``) and the removals.

The contract under test: everything a downstream user needs lives behind
``import repro`` (round-trip an experiment without one deep import), the
top-level namespace re-exports exactly the facade, and the legacy
``MemoryHierarchy`` convenience wrappers — deprecated through the 0.4
line — are gone in 0.5.0 in favor of the one typed entry point,
``access(txn)`` (see ``tests/memtxn.py`` for the migration).  The rack
tier is gone in 0.20.0: ``import repro`` loads none of it and
``idio-repro rack`` is an unknown command.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro
import repro.api
from tests.memtxn import pcie_write


class TestFacadeSurface:
    def test_top_level_reexports_exactly_the_facade(self):
        assert list(repro.__all__) == list(repro.api.__all__)
        for name in repro.api.__all__:
            assert getattr(repro, name) is getattr(repro.api, name)

    def test_version_is_pep440ish(self):
        major, minor, patch = repro.__version__.split(".")
        assert all(part.isdigit() for part in (major, minor, patch))

    def test_fault_types_are_the_canonical_ones(self):
        from repro.faults import FaultEvent, FaultPlan, FaultSpec

        assert repro.FaultPlan is FaultPlan
        assert repro.FaultSpec is FaultSpec
        assert repro.FaultEvent is FaultEvent

    def test_round_trip_without_deep_imports(self):
        """A full faulted experiment, driven only through ``repro``."""
        plan = repro.standard_plan("nic", intensity=0.5, seed=1)
        exp = repro.Experiment(
            name="facade",
            server=repro.ServerConfig(
                app="touchdrop", ring_size=128, fault_plan=plan
            ),
            burst_rate_gbps=25.0,
        ).with_policy(repro.idio())
        summary = repro.run_experiment(exp).summary()
        assert isinstance(summary, repro.ExperimentSummary)
        assert summary.completed > 0

    def test_build_server_returns_unstarted_server(self):
        server = repro.build_server(repro.ServerConfig(app="touchdrop"))
        assert isinstance(server, repro.SimulatedServer)
        assert server.sim.now == 0

    def test_run_sweep_reachable_from_facade(self):
        exp = repro.Experiment(
            name="facade-sweep",
            server=repro.ServerConfig(app="touchdrop", ring_size=128),
            burst_rate_gbps=25.0,
        )
        sweep = repro.run_sweep([exp], jobs=1)
        assert isinstance(sweep, repro.SweepResult)
        assert sweep.exit_code == 0


class TestLegacyWrapperRemoval:
    def _hierarchy(self):
        from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy

        return MemoryHierarchy(HierarchyConfig())

    ADDR = 0x4000

    def test_wrappers_are_gone(self):
        """The 0.4-deprecated wrappers did not survive into 0.5.0."""
        h = self._hierarchy()
        for name in (
            "cpu_access",
            "pcie_write",
            "pcie_read",
            "prefetch_fill",
            "invalidate",
        ):
            assert not hasattr(h, name), f"legacy wrapper {name} still present"

    def test_typed_replacement_behaves_like_the_wrapper_did(self):
        """Removed != lost: the one-line migration keeps the semantics."""
        h = self._hierarchy()
        pcie_write(h, self.ADDR, 0)
        assert h.llc.peek(self.ADDR) is not None


class TestRackRemoval:
    def test_import_loads_no_rack_module(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, repro; print(sorted(m for m in sys.modules if 'rack' in m))"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_rack_names_are_gone(self):
        import repro.net
        import repro.obs

        for module, names in (
            (repro, ("RackConfig", "SimulatedRack", "run_rack")),
            (repro.net, ("FlowSteering", "STEERING_MODES", "flow_key", "make_flows")),
            (repro.obs, ("LaneMark",)),
        ):
            for name in names:
                assert not hasattr(module, name), f"{module.__name__}.{name}"
        fields = repro.Experiment.__dataclass_fields__
        assert "heavy_tail_alpha" not in fields
        assert "diurnal_peak_gbps_per_nf" not in fields

    def test_rack_command_is_unknown(self, capsys):
        from repro.cli import main

        assert main(["rack"]) == 2
        assert "invalid choice: 'rack'" in capsys.readouterr().err
