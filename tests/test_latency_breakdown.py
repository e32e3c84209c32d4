"""Tests for the queueing/service latency decomposition."""

import pytest

from repro.core.policies import ddio, idio
from repro.harness.experiment import Experiment, run_experiment
from repro.harness.server import ServerConfig
from repro.nic.nic import DESCRIPTOR_WRITEBACK_DELAY, RX_PIPELINE_DELAY
from repro.sim import units


def run(rate, policy=None, ring=128):
    exp = Experiment(
        name="breakdown",
        server=ServerConfig(policy=policy or ddio(), app="touchdrop", ring_size=ring),
        traffic="bursty",
        burst_rate_gbps=rate,
    )
    return run_experiment(exp)


class TestDecomposition:
    def test_components_sum_to_latency(self):
        result = run(50.0)
        for p in result.server.completed_packets():
            assert p.queueing_delay + p.service_time == p.latency

    def test_queueing_includes_nic_visibility_delay(self):
        result = run(50.0)
        floor = RX_PIPELINE_DELAY + DESCRIPTOR_WRITEBACK_DELAY
        for p in result.server.completed_packets():
            assert p.queueing_delay >= floor

    def test_queueing_grows_with_rate(self):
        slow = run(10.0)
        fast = run(100.0)
        assert (
            fast.latency_breakdown_ns()["mean_queueing_ns"]
            > slow.latency_breakdown_ns()["mean_queueing_ns"]
        )

    def test_idio_shrinks_service_time(self):
        """IDIO's gains come from the service component (MLC hits), not
        from the fixed NIC pipeline."""
        base = run(25.0, ddio(), ring=512)
        ours = run(25.0, idio(), ring=512)
        assert (
            ours.latency_breakdown_ns()["mean_service_ns"]
            < base.latency_breakdown_ns()["mean_service_ns"]
        )

    def test_unprocessed_packet_has_no_breakdown(self):
        from repro.net.packet import Packet

        p = Packet()
        assert p.queueing_delay is None
        assert p.service_time is None
