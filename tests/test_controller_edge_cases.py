"""Edge cases of the IDIO controller and server lifecycle."""

import pytest

from repro.core.config import CONTROL_INTERVAL
from repro.core.controller import IDIOController
from repro.core.policies import idio
from repro.harness.server import ServerConfig, SimulatedServer
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.mem.line import LINE_SIZE
from repro.pcie.tlp import IdioTag
from repro.sim import Simulator, units
from tests.memtxn import cpu_access
from tests.traffic import offer_bursts


class TestControllerEdgeCases:
    def make(self):
        sim = Simulator()
        h = MemoryHierarchy(HierarchyConfig(num_cores=2))
        return sim, h, IDIOController(sim, h)

    def test_dest_core_beyond_topology_is_safe(self):
        """The TLP encodes up to 63 cores; a tag naming a core this socket
        does not have must not crash (misrouted/hot-plugged traffic)."""
        sim, h, ctl = self.make()
        placement = ctl.steer(IdioTag(dest_core=42), 0x1000, 0)
        assert placement == "llc"
        placement = ctl.steer(IdioTag(dest_core=42, is_header=True), 0x1040, 0)
        assert placement == "llc"
        placement = ctl.steer(IdioTag(dest_core=42, is_burst=True), 0x1080, 0)
        assert placement == "llc"

    def test_class1_unaffected_by_fsm_state(self):
        sim, h, ctl = self.make()
        ctl.steer(IdioTag(dest_core=0, is_burst=True), 0x1000, 0)  # MLC mode
        assert ctl.steer(IdioTag(dest_core=0, app_class=1), 0x1040, 0) == "dram"

    def test_status_of_static(self):
        sim = Simulator()
        h = MemoryHierarchy(HierarchyConfig(num_cores=1))
        ctl = IDIOController(sim, h, static_mlc=True)
        # No burst was seen, yet a payload line is still steered to the MLC.
        ctl.steer(IdioTag(dest_core=0), 0x1000, 0)
        assert ctl.decisions["mlc_prefetch"] == 1

    def test_multiple_controllers_not_required_but_coexist(self):
        """Two controllers on one hierarchy both see one writeback: each
        reads the shared counter without consuming it."""
        sim = Simulator()
        h = MemoryHierarchy(HierarchyConfig(num_cores=1))
        a = IDIOController(sim, h)
        b = IDIOController(sim, h)
        # One more line than the MLC holds evicts exactly one victim.
        for i in range(h.mlc[0].config.size_bytes // LINE_SIZE + 1):
            cpu_access(h, 0, i * LINE_SIZE, False, 0)
        sim.run(until=units.microseconds(1) + 1)
        assert a.mlc_wb_acc[0] == 1 and b.mlc_wb_acc[0] == 1


class TestServerLifecycle:
    def test_first_interval_excludes_warm_up_writebacks(self):
        """The antagonist's warm-up writes 28k MLC writebacks on its core
        before ``start`` resets the stats; the first control interval
        must sample only what the run itself wrote back."""
        server = SimulatedServer(ServerConfig(ring_size=64, antagonist=True,
                                              policy=idio()))
        server.start()
        server.run(CONTROL_INTERVAL)
        assert server.steering.mlc_wb_acc[2] == server.stats.counters.get(
            "mlc_writebacks_c2"
        )

    def test_stop_halts_all_periodic_agents(self):
        server = SimulatedServer(ServerConfig(policy=idio(), ring_size=32,
                                              antagonist=True))
        server.start()
        offer_bursts(server, packets_per_burst=4)
        server.run_until_drained(units.milliseconds(1))
        server.stop()
        before = server.sim.events_fired
        # After stop, only already-queued events may fire; the simulation
        # must drain to silence instead of ticking forever.
        server.sim.run(until=server.sim.now + units.milliseconds(5))
        after = server.sim.events_fired
        assert after - before < 200

    def test_results_available_after_stop(self):
        server = SimulatedServer(ServerConfig(ring_size=32))
        server.start()
        offer_bursts(server, packets_per_burst=4)
        server.run_until_drained(units.milliseconds(1))
        server.stop()
        assert len(server.packet_latencies_ns()) == 8
