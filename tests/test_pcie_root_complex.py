"""Unit tests for the root complex and its steering hook."""

from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.mem.transaction import DMA_WRITE
from repro.pcie.root_complex import RootComplex
from repro.pcie.tlp import IdioTag
from repro.sim import Simulator


def make_rc(hook=None):
    sim = Simulator()
    hierarchy = MemoryHierarchy(HierarchyConfig(num_cores=2))
    return sim, hierarchy, RootComplex(sim, hierarchy, hook)


class TestBaseline:
    def test_write_lands_in_llc_by_default(self):
        sim, h, rc = make_rc()
        rc.memory_write_batch([0x1000], [IdioTag()])
        assert 0x1000 in h.llc

    def test_an_untagged_burst_shows_observers_the_decoded_tag(self):
        """The DDIO burst takes one hierarchy run, and an observer still
        sees one write per line carrying the untagged TLP's fields."""
        sim, h, rc = make_rc()
        seen = []
        h.observe(seen.append)
        rc.memory_write_batch([0x1000, 0x1040, 0x1000])
        assert [(t.kind, t.addr, t.core, t.tag, t.placement) for t in seen] == [
            (DMA_WRITE, addr, 0, IdioTag(), "llc") for addr in (0x1000, 0x1040, 0x1000)
        ]

    def test_read_counts(self):
        sim, h, rc = make_rc()
        rc.memory_read_batch([0x1000])
        assert h.stats.counters.get("pcie_reads") == 1


class TestSteeringHook:
    def test_hook_receives_decoded_tag(self):
        seen = []

        def hook(tag, addr, now):
            seen.append((tag, addr))
            return "llc"

        sim, h, rc = make_rc(hook)
        tag = IdioTag(dest_core=3, is_header=True)
        rc.memory_write_batch([0x2000], [tag])
        assert seen == [(tag, 0x2000)]

    def test_hook_tag_roundtrips_through_tlp_bits(self):
        """The hook must see the tag after a real encode/decode cycle."""
        seen = []

        def hook(tag, addr, now):
            seen.append(tag)
            return "llc"

        sim, h, rc = make_rc(hook)
        original = IdioTag(dest_core=42, is_header=False, is_burst=True)
        rc.memory_write_batch([0x3000], [original])
        assert seen[0] == original

    def test_hook_dram_placement_respected(self):
        sim, h, rc = make_rc(lambda tag, addr, now: "dram")
        rc.memory_write_batch([0x4000], [IdioTag()])
        assert 0x4000 not in h.llc
        assert h.dram.writes == 1

    def test_attach_controller_replaces_hook(self):
        sim, h, rc = make_rc()
        rc.attach_controller(lambda tag, addr, now: "dram")
        rc.memory_write_batch([0x5000], [IdioTag()])
        assert h.dram.writes == 1
