"""Tests for TX descriptor rings and the transmit engine."""

import pytest

from repro.core.policies import ddio, idio
from repro.harness.experiment import Experiment, run_experiment
from repro.harness.server import ServerConfig
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.nic.dma import DMAEngine
from repro.nic.tx import TxEngine, TxRing, TxRingFullError
from repro.pcie.root_complex import RootComplex
from repro.sim import Simulator, units
from tests.memtxn import cpu_access, pcie_write


def make_tx(size=4):
    sim = Simulator()
    h = MemoryHierarchy(HierarchyConfig(num_cores=1))
    rc = RootComplex(sim, h)
    dma = DMAEngine(sim, rc)
    ring = TxRing(size, desc_base=0x8000)
    engine = TxEngine(sim, dma, ring)
    return sim, h, ring, engine


class TestTxRing:
    def test_post_and_complete(self):
        sim, h, ring, engine = make_tx()
        desc = ring.post(0x100000, 1514)
        assert ring.free_slots() == 3
        ring.complete(desc)
        assert ring.free_slots() == 4

    def test_full_ring_raises(self):
        sim, h, ring, engine = make_tx(size=2)
        ring.post(0x100000, 64)
        ring.post(0x100800, 64)
        with pytest.raises(TxRingFullError):
            ring.post(0x101000, 64)

    def test_fifo_processing_order(self):
        sim, h, ring, engine = make_tx()
        a = ring.post(0x100000, 64)
        b = ring.post(0x100800, 64)
        assert ring.next_posted() is a
        ring.complete(a)
        assert ring.next_posted() is b

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            TxRing(0, 0x8000)

    def test_complete_unposted_rejected(self):
        sim, h, ring, engine = make_tx()
        with pytest.raises(ValueError):
            ring.complete(ring.descriptors[0])


class TestTxEngine:
    def test_full_egress_sequence(self):
        """Descriptor fetch + payload reads + completion writeback."""
        sim, h, ring, engine = make_tx()
        done = []
        ring.post(0x100000, 1514, on_complete=lambda: done.append(sim.now))
        engine.doorbell()
        sim.run(until=units.microseconds(10))
        assert done, "TX never completed"
        # 2 descriptor lines + 24 payload lines read over PCIe.
        assert h.stats.counters.get("pcie_reads") == 26
        # 2 descriptor lines written back as the completion.
        assert h.stats.counters.get("pcie_writes") == 2
        assert engine.packets_sent == 1
        assert engine.bytes_sent == 1514

    def test_back_to_back_packets_drain(self):
        sim, h, ring, engine = make_tx()
        for i in range(3):
            ring.post(0x100000 + i * 2048, 512)
        engine.doorbell()
        engine.doorbell()  # duplicate doorbells are harmless
        sim.run(until=units.microseconds(20))
        assert engine.packets_sent == 3
        assert ring.free_slots() == 4  # everything completed and freed

    def test_doorbell_delay_applies(self):
        sim, h, ring, engine = make_tx()
        ring.post(0x100000, 64)
        engine.doorbell()
        sim.run(until=engine.doorbell_delay - 1)
        assert engine.packets_sent == 0

    def test_tx_pulls_mlc_lines_back_to_llc(self):
        """The egress payload reads invalidate MLC copies (Fig. 3 right)."""
        sim, h, ring, engine = make_tx()
        pcie_write(h, 0x100000, 0)
        cpu_access(h, 0, 0x100000, True, 0)  # dirty line in MLC
        ring.post(0x100000, 64)
        engine.doorbell()
        sim.run(until=units.microseconds(10))
        assert 0x100000 not in h.mlc[0]
        assert 0x100000 in h.llc


class TestServerIntegration:
    def run_l2fwd(self, policy):
        exp = Experiment(
            name="tx-ring",
            server=ServerConfig(policy=policy, app="l2fwd", ring_size=64,
                                packet_bytes=1024),
            traffic="bursty",
            burst_rate_gbps=50.0,
        )
        return run_experiment(exp)

    def test_l2fwd_uses_tx_rings(self):
        result = self.run_l2fwd(ddio())
        engines = result.server.nics[0].tx_engines
        assert set(engines) == {0, 1}
        assert sum(e.packets_sent for e in engines.values()) == 128
        assert result.completed == 128

    def test_rx_rings_drain_after_tx_completions(self):
        result = self.run_l2fwd(ddio())
        for queue in result.server.nics[0].queues.values():
            assert queue.ring.occupancy() == 0

    def test_touchdrop_has_no_tx_ring(self):
        exp = Experiment(
            name="no-tx",
            server=ServerConfig(app="touchdrop", ring_size=32),
            traffic="bursty",
            burst_rate_gbps=50.0,
        )
        result = run_experiment(exp)
        assert result.server.nics[0].tx_engines == {}

    def test_idio_invalidation_after_tx_ring_completion(self):
        result = self.run_l2fwd(idio())
        # The TX reads already pulled the MLC copies back to the LLC
        # (Fig. 3 right), so the post-TX self-invalidation drops the dead
        # lines from the LLC.
        assert result.server.stats.counters.get("self_invalidations_llc") > 0
        assert result.completed == 128
