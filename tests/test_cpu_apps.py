"""Unit tests for the Table II network functions and the cost model."""

import pytest

from repro.cpu.apps import (
    L2Fwd,
    L2FwdPayloadDrop,
    LLCAntagonist,
    TouchDrop,
)
from repro.cpu.core import Core
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.net.packet import Packet
from repro.sim import Simulator, units
from tests.memtxn import pcie_write

BUF = 0x100000


def make_core():
    sim = Simulator()
    h = MemoryHierarchy(HierarchyConfig(num_cores=1))
    return sim, h, Core(sim, 0, h)


def dma_packet(h, size=1514, app_class=0):
    p = Packet(size_bytes=size, app_class=app_class)
    p.buffer_addr = BUF
    for i in range(p.num_lines):
        pcie_write(h, BUF + i * 64, 0)
    return p


class TestTouchDrop:
    def test_touches_every_line(self):
        sim, h, core = make_core()
        app = TouchDrop()
        p = dma_packet(h)
        app.process(core, p)
        assert core.stats.mem_accesses == 24
        for i in range(24):
            assert BUF + i * 64 in h.mlc[0]

    def test_counts_packets_and_bytes(self):
        sim, h, core = make_core()
        app = TouchDrop()
        app.process(core, dma_packet(h))
        assert app.packets_processed == 1
        assert app.bytes_processed == 1514

    def test_latency_near_one_microsecond_when_llc_resident(self):
        """Calibration guard: per-packet cost ~= the paper's ~12 Gbps/core
        saturation point for 1514 B TouchDrop."""
        sim, h, core = make_core()
        app = TouchDrop()
        latency = app.process(core, dma_packet(h))
        # 1538 B wire frame at 12 Gbps is ~1025 ns; stay within 25%.
        assert units.to_nanoseconds(latency) == pytest.approx(1025, rel=0.25)

    def test_faster_when_data_in_mlc(self):
        sim, h, core = make_core()
        app = TouchDrop()
        p = dma_packet(h)
        cold = app.process(core, p)
        warm = app.process(core, p)  # now MLC-resident
        assert warm < cold

    def test_unprocessed_packet_rejected(self):
        sim, h, core = make_core()
        with pytest.raises(AssertionError):
            TouchDrop().process(core, Packet())

    def test_app_class_zero(self):
        assert TouchDrop().app_class == 0
        assert not TouchDrop().transmits


class TestL2Fwd:
    def test_reads_only_header(self):
        sim, h, core = make_core()
        app = L2Fwd()
        app.process(core, dma_packet(h))
        # Header read + MAC rewrite: payload lines never touched.
        assert BUF in h.mlc[0]
        assert BUF + 5 * 64 not in h.mlc[0]

    def test_mac_rewrite_dirties_header(self):
        sim, h, core = make_core()
        app = L2Fwd()
        app.process(core, dma_packet(h))
        assert h.mlc[0].peek(BUF).dirty

    def test_transmits_flag(self):
        assert L2Fwd().transmits

    def test_cheaper_than_touchdrop(self):
        sim, h, core = make_core()
        p = dma_packet(h)
        l2 = L2Fwd().process(core, p)
        sim2, h2, core2 = make_core()
        td = TouchDrop().process(core2, dma_packet(h2))
        assert l2 < td


class TestL2FwdPayloadDrop:
    def test_is_class_one(self):
        assert L2FwdPayloadDrop().app_class == 1
        assert not L2FwdPayloadDrop().transmits

    def test_payload_untouched(self):
        sim, h, core = make_core()
        app = L2FwdPayloadDrop()
        app.process(core, dma_packet(h, app_class=1))
        assert BUF + 64 not in h.mlc[0]


class TestLLCAntagonist:
    def test_geometry(self):
        app = LLCAntagonist(buffer_base=0, buffer_bytes=2 * 1024 * 1024)
        assert app.num_lines() == 32768

    def test_tiny_buffer_rejected(self):
        with pytest.raises(ValueError):
            LLCAntagonist(buffer_base=0, buffer_bytes=32)
