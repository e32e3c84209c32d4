"""Tests for the banked (channels/banks/open-row) DRAM model."""

import pytest

from repro.mem.dram import BankedDRAM
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.mem.line import LINE_SIZE
from repro.mem.stats import StatsBundle
from repro.sim import units
from tests.memtxn import cpu_access


def make_dram(**kwargs):
    stats = StatsBundle()
    defaults = dict(channels=2, banks=4, row_bytes=1024, channel_gbps=1e9)
    defaults.update(kwargs)
    return stats, BankedDRAM(stats, **defaults)


class TestGeometry:
    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            make_dram(channels=0)
        with pytest.raises(ValueError):
            make_dram(banks=0)
        with pytest.raises(ValueError):
            make_dram(row_bytes=32)

    def test_consecutive_lines_interleave_channels(self):
        stats, dram = make_dram(channels=2)
        c0, _, _ = dram._locate(0)
        c1, _, _ = dram._locate(LINE_SIZE)
        assert c0 != c1


class TestRowBuffer:
    def test_first_access_is_row_miss(self):
        stats, dram = make_dram()
        dram.read(0, 0)
        assert stats.counters.get("dram_row_misses") == 1
        assert stats.counters.get("dram_row_hits") == 0

    def test_same_row_hits(self):
        stats, dram = make_dram(channels=1)
        dram.read(0, 0)
        dram.read(LINE_SIZE, 0)  # same row (1 KB row = 16 lines)
        assert stats.counters.get("dram_row_hits") == 1

    def test_row_hit_cheaper_than_miss(self):
        stats, dram = make_dram(channels=1)
        miss = dram.read(0, 0)
        hit = dram.read(LINE_SIZE, units.microseconds(1))
        assert hit < miss

    def test_conflicting_row_closes_previous(self):
        stats, dram = make_dram(channels=1, banks=1, row_bytes=1024)
        dram.read(0, 0)  # opens row 0
        dram.read(1024, 0)  # same bank (banks=1), different row
        dram.read(0, 0)  # row 0 was closed -> miss again
        assert stats.counters.get("dram_row_misses") == 3

    def test_row_hit_rate(self):
        stats, dram = make_dram(channels=1)
        for i in range(8):
            dram.read(i * LINE_SIZE, 0)  # streaming within one row
        assert stats.counters.get("dram_row_hits") == 7
        assert stats.counters.get("dram_row_misses") == 1


class TestChannelContention:
    def test_queueing_on_one_channel(self):
        stats, dram = make_dram(channels=1, channel_gbps=64 * 8 / 100.0)
        # One line per 100 ns of channel time.
        first = dram.read(0, 0)
        second = dram.read(LINE_SIZE, 0)
        assert second > first

    def test_channels_independent(self):
        stats, dram = make_dram(channels=2, channel_gbps=2 * 64 * 8 / 100.0)
        a = dram.read(0, 0)  # channel 0
        b = dram.read(LINE_SIZE, 0)  # channel 1: no queueing behind a
        assert b == pytest.approx(a, rel=0.01)


class TestHierarchyIntegration:
    def test_banked_model_selectable(self):
        h = MemoryHierarchy(
            HierarchyConfig(num_cores=1, l1_enabled=False, dram_model="banked")
        )
        assert isinstance(h.dram, BankedDRAM)
        cpu_access(h, 0, 0x100000, False, 0)
        assert h.dram.reads == 1

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            MemoryHierarchy(HierarchyConfig(num_cores=1, dram_model="quantum"))

    def test_streaming_dma_has_high_row_hit_rate(self):
        """Sequential DMA buffers enjoy row-buffer locality."""
        h = MemoryHierarchy(
            HierarchyConfig(num_cores=1, l1_enabled=False, dram_model="banked")
        )
        for i in range(256):
            h.dram.write(0x100000 + i * LINE_SIZE, 0)
        hits = h.stats.counters.get("dram_row_hits")
        misses = h.stats.counters.get("dram_row_misses")
        assert hits / (hits + misses) > 0.8
