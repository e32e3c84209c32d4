"""Tests for the PMD loop and the antagonist driver."""

import pytest

from repro.core.policies import ddio, invalidate_only
from repro.harness.server import ServerConfig, SimulatedServer
from repro.sim import units
from tests.traffic import offer_bursts


def small_server(policy=None, app="touchdrop", ring=32, **kwargs):
    cfg = ServerConfig(
        policy=policy or ddio(), app=app, ring_size=ring, **kwargs
    )
    return SimulatedServer(cfg)


class TestPollModeDriver:
    def test_processes_all_packets(self):
        server = small_server()
        server.start()
        offer_bursts(server, packets_per_burst=16)
        server.run_until_drained(units.milliseconds(2))
        assert len(server.completed_packets()) == 32  # 16 per NF core

    def test_batching_respects_limit(self):
        server = small_server(ring=64)
        server.start()
        offer_bursts(server, packets_per_burst=64)
        server.run_until_drained(units.milliseconds(4))
        driver = server.drivers[0]
        assert driver.batches >= 2  # 64 packets can't fit one 32-batch

    def test_descriptors_freed_after_processing(self):
        server = small_server()
        server.start()
        offer_bursts(server, packets_per_burst=16)
        server.run_until_drained(units.milliseconds(2))
        for queue in server.nics[0].queues.values():
            assert queue.ring.occupancy() == 0

    def test_completion_times_set(self):
        server = small_server()
        server.start()
        offer_bursts(server, packets_per_burst=8)
        server.run_until_drained(units.milliseconds(2))
        for p in server.completed_packets():
            assert p.completion_time is not None
            assert p.latency > 0

    def test_self_invalidation_requires_maintenance_unit(self):
        from repro.cpu.dpdk import PollModeDriver

        with pytest.raises(ValueError):
            PollModeDriver(None, None, None, None, None, maintenance=None, self_invalidate=True)

    def test_self_invalidation_invalidates_buffers(self):
        server = small_server(policy=invalidate_only())
        server.start()
        offer_bursts(server, packets_per_burst=16)
        server.run_until_drained(units.milliseconds(2))
        assert server.stats.counters.get("self_invalidations") > 0

    def test_latency_includes_descriptor_writeback_delay(self):
        server = small_server()
        server.start()
        offer_bursts(server, packets_per_burst=1)
        server.run_until_drained(units.milliseconds(2))
        lat = server.packet_latencies_ns()
        # Lower bound: NIC pipeline + descriptor writeback (~2 us total).
        assert min(lat) > 1900


class TestL2FwdDriver:
    def test_tx_happens_and_ring_drains(self):
        server = small_server(app="l2fwd")
        server.start()
        offer_bursts(server, packets_per_burst=16)
        server.run_until_drained(units.milliseconds(4))
        assert server.nics[0].total_tx == 32
        for queue in server.nics[0].queues.values():
            assert queue.ring.occupancy() == 0

    def test_tx_pulls_lines_back_to_llc(self):
        """Fig. 3 right: PCIe TX reads invalidate MLC copies."""
        server = small_server(app="l2fwd")
        server.start()
        offer_bursts(server, packets_per_burst=4)
        server.run_until_drained(units.milliseconds(4))
        assert server.stats.counters.get("pcie_reads") > 0


class TestAntagonistDriver:
    def test_antagonist_accesses_accumulate(self):
        server = small_server(antagonist=True)
        server.start()
        server.run(units.microseconds(100))
        assert server.antagonists[0].app.accesses_done > 100

    def test_antagonist_samples_recorded(self):
        server = small_server(antagonist=True)
        server.start()
        server.run(units.microseconds(100))
        samples = server.antagonists[0].samples
        assert len(samples) > 10
        times = [s[0] for s in samples]
        assert times == sorted(times)

    def test_access_ns_between_window(self):
        server = small_server(antagonist=True)
        server.start()
        server.run(units.microseconds(200))
        ns = server.antagonists[0].access_ns_between(
            units.microseconds(10), units.microseconds(190)
        )
        assert ns is not None and 1.0 < ns < 200.0

    def test_access_ns_empty_window(self):
        server = small_server(antagonist=True)
        server.start()
        server.run(units.microseconds(50))
        assert server.antagonists[0].access_ns_between(0, 1) is None

    def test_antagonist_mlc_is_small(self):
        """§VI: the antagonist core runs with a 256 KB MLC."""
        server = small_server(antagonist=True)
        core_id = server.antagonists[0].core.core_id
        assert server.hierarchy.mlc[core_id].config.size_bytes == 256 * 1024
