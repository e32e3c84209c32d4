"""Tests for multi-NIC (multi-port) server configurations."""

import pytest

from repro.core.policies import ddio, idio
from repro.harness.experiment import Experiment, run_experiment
from repro.harness.server import ServerConfig, SimulatedServer
from repro.sim import units


class TestTopology:
    def test_default_single_port(self):
        server = SimulatedServer(ServerConfig(ring_size=32))
        assert len(server.nics) == 1
        assert len(server.dmas) == 1

    def test_two_ports_split_cores(self):
        server = SimulatedServer(
            ServerConfig(ring_size=32, num_nf_cores=4, num_nics=2)
        )
        assert len(server.nics) == 2
        assert set(server.nics[0].queues) == {0, 2}
        assert set(server.nics[1].queues) == {1, 3}

    def test_each_port_has_its_own_link(self):
        server = SimulatedServer(ServerConfig(ring_size=32, num_nics=2))
        assert server.nics[0].dma is not server.nics[1].dma

    def test_all_queues_spans_ports(self):
        server = SimulatedServer(
            ServerConfig(ring_size=32, num_nf_cores=4, num_nics=2)
        )
        assert len(list(server.all_queues())) == 4


class TestTraffic:
    def run_two_port(self, policy=None, num_cores=4):
        exp = Experiment(
            name="two-port",
            server=ServerConfig(
                policy=policy or ddio(),
                ring_size=64,
                num_nf_cores=num_cores,
                num_nics=2,
            ),
            traffic="bursty",
            burst_rate_gbps=50.0,
        )
        return run_experiment(exp)

    def test_packets_delivered_on_both_ports(self):
        result = self.run_two_port()
        server = result.server
        assert server.nics[0].total_rx == 128  # 2 cores x 64
        assert server.nics[1].total_rx == 128
        assert result.completed == 256

    def test_aggregate_accounting(self):
        result = self.run_two_port()
        assert result.rx_packets == result.server.total_rx == 256
        assert result.rx_drops == result.server.total_drops == 0

    def test_idio_works_across_ports(self):
        """Both NICs' classifiers feed the single on-chip controller."""
        result = self.run_two_port(policy=idio())
        for nic in result.server.nics:
            assert nic.classifier is not None
            assert nic.classifier.bursts_detected > 0
        assert result.completed == 256
        assert result.window.llc_writebacks == 0  # IDIO still wins

    def test_link_isolation_reduces_dma_serialization(self):
        """Two ports finish the same aggregate DMA no later than one port
        (each has its own PCIe link server)."""
        one = run_experiment(
            Experiment(
                name="one-port",
                server=ServerConfig(ring_size=64, num_nf_cores=4, num_nics=1),
                traffic="bursty",
                burst_rate_gbps=50.0,
            )
        )
        two = self.run_two_port()
        assert two.burst_processing_time <= one.burst_processing_time * 1.05
