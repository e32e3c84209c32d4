"""Tests for heterogeneous per-core application deployments."""

import pytest

from repro.core.policies import ddio, idio
from repro.harness.experiment import Experiment, run_experiment
from repro.harness.extensions import ext_mixed_deployment
from repro.harness.server import ServerConfig, SimulatedServer


class TestConfig:
    def test_apps_list_overrides_app(self):
        server = SimulatedServer(
            ServerConfig(apps=["touchdrop", "l2fwd-payload-drop"], ring_size=32)
        )
        assert server.apps[0].name == "touchdrop"
        assert server.apps[1].name == "l2fwd-payload-drop"

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SimulatedServer(ServerConfig(apps=["touchdrop"], num_nf_cores=2))

    def test_unknown_app_in_list_rejected(self):
        with pytest.raises(ValueError):
            SimulatedServer(ServerConfig(apps=["touchdrop", "nginx"]))

    def test_uniform_app_still_works(self):
        server = SimulatedServer(ServerConfig(app="l2fwd", ring_size=32))
        assert all(a.name == "l2fwd" for a in server.apps)


class TestMixedClassBehavior:
    def run_mixed(self, policy):
        exp = Experiment(
            name="mixed",
            server=ServerConfig(
                policy=policy,
                apps=["touchdrop", "l2fwd-payload-drop"],
                ring_size=64,
                packet_bytes=1024,
            ),
            traffic="bursty",
            burst_rate_gbps=50.0,
        )
        return run_experiment(exp)

    def test_flows_marked_per_app_class(self):
        result = self.run_mixed(ddio())
        gen0, gen1 = result.server.generators
        assert gen0.app_class == 0
        assert gen1.app_class == 1

    def test_only_class1_payload_goes_direct_to_dram(self):
        result = self.run_mixed(idio())
        # 64 packets x 15 payload lines from the class-1 core only.
        assert result.server.stats.counters.get("direct_dram_writes") == 64 * 15
        # The class-0 core's payloads stayed on the cache path.
        assert result.decisions["direct_dram"] == 64 * 15
        assert result.decisions["header_prefetch"] > 0

    def test_both_apps_complete_their_packets(self):
        result = self.run_mixed(idio())
        for driver in result.server.drivers:
            assert len(driver.completed_packets) == 64

    def test_extension_report(self):
        report = ext_mixed_deployment(ring_size=64)
        rows = {r["policy"]: r for r in report.rows()}
        assert rows["ddio"]["direct_dram_wr"] == 0
        assert rows["idio"]["direct_dram_wr"] > 0
