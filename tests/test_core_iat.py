"""Tests for the IAT-style dynamic DDIO-way baseline."""

import pytest

from repro.core.iat import IATController
from repro.core.policies import IatResizing, ddio, iat, policy_by_name
from repro.harness.experiment import Experiment, run_experiment
from repro.harness.server import ServerConfig
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.sim import Simulator, units


def make_controller(**kwargs):
    sim = Simulator()
    h = MemoryHierarchy(HierarchyConfig(num_cores=1))
    return sim, h, IATController(sim, h, **kwargs)


class TestControlLoop:
    def test_starts_at_min_ways(self):
        sim, h, ctl = make_controller(min_ways=2, max_ways=6)
        assert ctl.current_ways == 2

    def test_grows_under_leak_pressure(self):
        sim, h, ctl = make_controller(min_ways=2, max_ways=6, grow_threshold=10)

        def leak():
            h.stats.bump("llc_writebacks", sim.now, 20)

        for i in range(3):
            sim.schedule_at(units.microseconds(10 * i) + 1, leak)
        sim.run(until=units.microseconds(31))
        assert ctl.current_ways == 5

    def test_saturates_at_max_ways(self):
        sim, h, ctl = make_controller(
            min_ways=2, max_ways=3, grow_threshold=1, shrink_threshold=0
        )

        def leak():
            h.stats.bump("llc_writebacks", sim.now, 10)

        for i in range(5):
            sim.schedule_at(units.microseconds(10 * i) + 1, leak)
        sim.run(until=units.microseconds(51))
        assert ctl.current_ways == 3

    def test_shrinks_when_quiet(self):
        sim, h, ctl = make_controller(min_ways=2, max_ways=6, grow_threshold=10)
        sim.schedule_at(1, lambda: h.stats.bump("llc_writebacks", sim.now, 20))
        sim.run(until=units.microseconds(11))
        assert ctl.current_ways == 3
        sim.run(until=units.microseconds(60))  # quiet intervals
        assert ctl.current_ways == 2

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            make_controller(min_ways=0)
        with pytest.raises(ValueError):
            make_controller(min_ways=5, max_ways=4)
        with pytest.raises(ValueError):
            make_controller(grow_threshold=1, shrink_threshold=2)

    def test_stop(self):
        sim, h, ctl = make_controller()
        ctl.stop()
        sim.run(until=units.microseconds(100))  # no infinite task


class TestPolicyIntegration:
    def test_policy_table(self):
        p = policy_by_name("iat")
        assert p.steering == IatResizing()
        assert not p.steering.needs_classifier

    def test_server_wires_iat_controller(self):
        from repro.harness.server import SimulatedServer

        server = SimulatedServer(ServerConfig(policy=iat()))
        assert isinstance(server.steering, IATController)
        assert server.root_complex.steering_hook is None

    def test_iat_reduces_llc_writebacks_but_not_mlc(self):
        """The paper's S1 critique: dynamic DDIO-way policies cannot use
        the MLC — they trim the DMA leak but dead-buffer MLC writebacks
        are untouched."""

        def run(policy):
            exp = Experiment(
                name="iat-cmp",
                server=ServerConfig(policy=policy, app="touchdrop", ring_size=512),
                traffic="bursty",
                burst_rate_gbps=100.0,
            )
            return run_experiment(exp)

        base = run(ddio())
        dyn = run(iat())
        assert dyn.window.llc_writebacks < base.window.llc_writebacks
        assert dyn.window.mlc_writebacks == pytest.approx(
            base.window.mlc_writebacks, rel=0.1
        )
