"""Unit tests for the DMA engine and the NIC RX/TX paths."""

import pytest

from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.net.flow import make_flow
from repro.net.packet import Packet
from repro.nic.dma import DMAEngine
from repro.nic.classifier import ClassifierConfig
from repro.nic.nic import DESCRIPTOR_WRITEBACK_DELAY, NIC, RX_PIPELINE_DELAY
from repro.pcie.root_complex import RootComplex
from repro.pcie.tlp import IdioTag
from repro.sim import Simulator, units


def make_stack(ring_size=8, classifier=None, hook=None):
    sim = Simulator()
    hierarchy = MemoryHierarchy(HierarchyConfig(num_cores=2))
    rc = RootComplex(sim, hierarchy, hook)
    dma = DMAEngine(sim, rc)
    nic = NIC(sim, dma, ring_size, classifier)
    return sim, hierarchy, dma, nic


class TestDMAEngine:
    def test_write_buffer_writes_all_lines(self):
        sim, h, dma, _ = make_stack()
        dma.write_buffer(0x10000, 1514)
        sim.run()
        assert dma.lines_written == 24
        assert h.stats.counters.get("pcie_writes") == 24

    def test_link_serialization(self):
        sim, h, dma, _ = make_stack()
        t1 = dma.write_buffer(0x10000, 64)
        t2 = dma.write_buffer(0x20000, 64)
        assert t2 == t1 + units.transfer_time(64, 256.0)

    def test_tag_count_mismatch_rejected(self):
        sim, h, dma, _ = make_stack()
        with pytest.raises(ValueError):
            dma.write_buffer(0x10000, 1514, tags=[IdioTag()])

    def test_completion_callback_after_writes(self):
        sim, h, dma, _ = make_stack()
        seen = []
        dma.write_buffer(
            0x10000, 128, on_complete=lambda: seen.append(h.stats.counters.get("pcie_writes"))
        )
        sim.run()
        assert seen == [2]  # both lines written before the callback

    def test_read_buffer(self):
        sim, h, dma, _ = make_stack()
        dma.read_buffer(0x10000, 1514)
        sim.run()
        assert dma.lines_read == 24
        assert h.stats.counters.get("pcie_reads") == 24


class TestNicRx:
    def setup_queue(self, nic):
        flow = make_flow(0)
        nic.flow_director.install_rule(flow, 0)
        nic.add_queue(0, 0, desc_base=0x1000, buffer_base=0x100000)
        return flow

    def test_accepted_packet_dmas_buffer(self):
        sim, h, dma, nic = make_stack()
        flow = self.setup_queue(nic)
        assert nic.receive(Packet(flow=flow, size_bytes=1514))
        sim.run()
        assert dma.lines_written >= 24  # data + descriptor writeback
        assert nic.total_rx == 1

    def test_descriptor_visible_after_writeback(self):
        sim, h, dma, nic = make_stack()
        flow = self.setup_queue(nic)
        nic.receive(Packet(flow=flow))
        queue = nic.queues[0]
        assert queue.ring.peek_ready() is None
        sim.run()
        assert queue.ring.peek_ready() is not None

    def test_visibility_delay_matches_config(self):
        """First DMA to PMD visibility ~= descriptor writeback delay."""
        sim, h, dma, nic = make_stack()
        flow = self.setup_queue(nic)
        nic.receive(Packet(flow=flow))
        queue = nic.queues[0]
        ready_time = []

        def check():
            if queue.ring.peek_ready() is not None and not ready_time:
                ready_time.append(sim.now)
            if sim.now < units.microseconds(10):
                sim.schedule_after(units.nanoseconds(10), check)

        sim.schedule_at(0, check)
        sim.run(until=units.microseconds(10))
        assert ready_time, "packet never became visible"
        lag = ready_time[0] - RX_PIPELINE_DELAY
        assert lag >= DESCRIPTOR_WRITEBACK_DELAY

    def test_ring_full_drops(self):
        sim, h, dma, nic = make_stack(ring_size=2)
        flow = self.setup_queue(nic)
        results = [nic.receive(Packet(flow=flow)) for _ in range(3)]
        assert results == [True, True, False]
        assert nic.total_drops == 1
        assert nic.queues[0].rx_drops == 1

    def test_unpinned_core_rejected(self):
        sim, h, dma, nic = make_stack()
        self.setup_queue(nic)
        stray_flow = make_flow(9)  # default core 0 exists, so route there
        assert nic.receive(Packet(flow=stray_flow))

    def test_duplicate_queue_rejected(self):
        sim, h, dma, nic = make_stack()
        self.setup_queue(nic)
        with pytest.raises(ValueError):
            nic.add_queue(0, 1, desc_base=0x2000, buffer_base=0x200000)

    def test_rx_observer_called(self):
        sim, h, dma, nic = make_stack()
        flow = self.setup_queue(nic)
        seen = []
        nic.rx_observers.append(lambda p, core: seen.append(core))
        nic.receive(Packet(flow=flow))
        assert seen == [0]


class TestNicTx:
    def test_transmit_reads_buffer(self):
        sim, h, dma, nic = make_stack()
        done = []
        nic.transmit(0x100000, 1514, on_complete=lambda: done.append(sim.now))
        sim.run()
        assert dma.lines_read == 24
        assert nic.total_tx == 1
        assert done


class TestClassifierIntegration:
    def test_classifier_tags_reach_controller(self):
        seen_tags = []

        def hook(tag, addr, now):
            seen_tags.append(tag)
            return "llc"

        sim, h, dma, nic = make_stack(classifier=ClassifierConfig(), hook=hook)
        flow = make_flow(0)
        nic.flow_director.install_rule(flow, 0)
        nic.add_queue(0, 0, desc_base=0x1000, buffer_base=0x100000)
        nic.receive(Packet(flow=flow, size_bytes=1514))
        # Bounded run: the classifier's periodic reset task never drains.
        sim.run(until=units.microseconds(20))
        data_tags = seen_tags[:24]
        assert data_tags[0].is_header
        assert all(not t.is_header for t in data_tags[1:])
        # Descriptor writeback lines are tagged header-class.
        assert all(t.is_header for t in seen_tags[24:])
