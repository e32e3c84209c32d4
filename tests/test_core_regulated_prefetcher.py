"""Tests for the CPU-pointer-following (regulated) MLC prefetcher."""

import pytest

from repro.core.policies import idio, regulated_idio
from repro.core.prefetcher import RegulatedMLCPrefetcher
from repro.harness.experiment import Experiment, run_experiment
from repro.harness.server import ServerConfig
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.nic.descriptor import DescriptorRing
from repro.net.packet import Packet
from repro.sim import Simulator, units
from tests.memtxn import pcie_write


def make_setup(max_ahead=4, ring_size=16):
    sim = Simulator()
    h = MemoryHierarchy(HierarchyConfig(num_cores=1))
    pf = RegulatedMLCPrefetcher(
        sim, h, 0, service_time=units.nanoseconds(4), max_ahead_packets=max_ahead
    )
    ring = DescriptorRing(ring_size, desc_base=0x1000, buffer_base=0x100000, buffer_stride=2048)
    pf.attach_ring(ring, 0x100000, 2048, lines_per_buffer=4)
    return sim, h, pf, ring


def dma_packet(h, ring, size=256):
    """Claim + DMA-complete one packet on the ring."""
    packet = Packet(size_bytes=size)
    desc = ring.claim(packet)
    for i in range(packet.num_lines):
        pcie_write(h, desc.buffer_addr + i * 64, 0)
    ring.complete(desc)
    return desc


class TestPump:
    def test_prefetches_lines_of_ready_packets(self):
        sim, h, pf, ring = make_setup()
        desc = dma_packet(h, ring)
        pf.hint(desc.buffer_addr)  # arm the pump
        sim.run(until=units.microseconds(1))
        for i in range(4):
            assert desc.buffer_addr + i * 64 in h.mlc[0]
        assert pf.prefetches_useful == 4

    def test_does_not_run_past_max_ahead(self):
        sim, h, pf, ring = make_setup(max_ahead=2)
        descs = [dma_packet(h, ring) for _ in range(6)]
        pf.hint(descs[0].buffer_addr)
        sim.run(until=units.microseconds(1))
        # Only packets within max_ahead of the (stationary) CPU pointer
        # are prefetched: slots 0..2.
        assert descs[2].buffer_addr in h.mlc[0]
        assert descs[4].buffer_addr not in h.mlc[0]

    def test_follows_cpu_pointer(self):
        sim, h, pf, ring = make_setup(max_ahead=2)
        descs = [dma_packet(h, ring) for _ in range(6)]
        pf.hint(descs[0].buffer_addr)
        sim.run(until=units.microseconds(1))
        assert descs[4].buffer_addr not in h.mlc[0]
        # Consumer advances two slots -> the window slides.
        ring.free(ring.pop_ready())
        ring.free(ring.pop_ready())
        pf.hint(descs[2].buffer_addr)
        sim.run(until=units.microseconds(2))
        assert descs[4].buffer_addr in h.mlc[0]

    def test_pump_disarms_when_ring_drains(self):
        sim, h, pf, ring = make_setup()
        desc = dma_packet(h, ring)
        pf.hint(desc.buffer_addr)
        sim.run(until=units.microseconds(1))
        ring.free(ring.pop_ready())
        sim.run(until=units.microseconds(3))
        assert not pf._pumping

    def test_out_of_region_hint_uses_plain_queue(self):
        sim, h, pf, ring = make_setup()
        pcie_write(h, 0x9000, 0)  # a descriptor line, outside the buffers
        pf.hint(0x9000)
        sim.run(until=units.microseconds(1))
        assert 0x9000 in h.mlc[0]

    def test_invalid_attach_rejected(self):
        sim, h, pf, ring = make_setup()
        with pytest.raises(ValueError):
            pf.attach_ring(ring, 0, 0)


class TestEndToEnd:
    def test_regulated_idio_zero_mlc_writebacks_at_100g(self):
        """The §VII hypothesis: pointer-following prefetching never floods
        the MLC, at any burst rate."""
        exp = Experiment(
            name="regulated",
            server=ServerConfig(app="touchdrop", ring_size=512),
            traffic="bursty",
            burst_rate_gbps=100.0,
        )
        plain = run_experiment(exp.with_policy(idio()))
        regulated = run_experiment(exp.with_policy(regulated_idio()))
        assert regulated.window.mlc_writebacks == 0
        assert regulated.completed == plain.completed == 1024
        # ... and burst processing is at least as fast as dynamic IDIO.
        assert regulated.burst_processing_time <= plain.burst_processing_time * 1.02
