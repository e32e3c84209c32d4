"""Unit tests for the queued MLC prefetcher (§V-C)."""

import pytest

from repro.core.prefetcher import MLCPrefetcher
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.sim import Simulator, units
from tests.memtxn import cpu_access, pcie_write


def make_prefetcher(queue_depth=32, service_time=units.nanoseconds(4)):
    sim = Simulator()
    h = MemoryHierarchy(HierarchyConfig(num_cores=1))
    pf = MLCPrefetcher(sim, h, 0, queue_depth=queue_depth, service_time=service_time)
    return sim, h, pf


class TestQueue:
    def test_hint_enqueues_and_drains(self):
        sim, h, pf = make_prefetcher()
        pcie_write(h, 0x1000, 0)
        assert pf.hint(0x1000)
        sim.run()
        assert 0x1000 in h.mlc[0]
        assert pf.prefetches_issued == 1
        assert pf.prefetches_useful == 1

    def test_full_queue_drops_hints(self):
        sim, h, pf = make_prefetcher(queue_depth=2)
        for i in range(5):
            pf.hint(0x1000 + i * 64)
        assert pf.hints_dropped == 3
        assert pf.hints_received == 5
        assert len(pf) == 2

    def test_default_queue_depth_is_32(self):
        sim = Simulator()
        h = MemoryHierarchy(HierarchyConfig(num_cores=1))
        pf = MLCPrefetcher(sim, h, 0)
        assert pf.queue_depth == 32

    def test_service_rate_paces_drains(self):
        sim, h, pf = make_prefetcher(service_time=units.nanoseconds(100))
        for i in range(3):
            pcie_write(h, 0x1000 + i * 64, 0)
            pf.hint(0x1000 + i * 64)
        sim.run(until=units.nanoseconds(150))
        assert pf.prefetches_issued == 1  # only one service interval elapsed
        sim.run(until=units.nanoseconds(350))
        assert pf.prefetches_issued == 3

    def test_useless_prefetch_counted(self):
        sim, h, pf = make_prefetcher()
        cpu_access(h, 0, 0x1000, False, 0)  # already in MLC
        pf.hint(0x1000)
        sim.run()
        assert pf.prefetches_issued == 1
        assert pf.prefetches_useful == 0

    def test_invalid_queue_depth(self):
        with pytest.raises(ValueError):
            make_prefetcher(queue_depth=0)

    def test_drain_restarts_after_idle(self):
        sim, h, pf = make_prefetcher()
        pcie_write(h, 0x1000, 0)
        pf.hint(0x1000)
        sim.run()
        pcie_write(h, 0x2000, 0)
        pf.hint(0x2000)
        sim.run()
        assert pf.prefetches_issued == 2
