"""Unit tests for the DRAM model."""

from repro.mem.dram import DRAM, DRAM_LATENCY
from repro.mem.stats import StatsBundle
from repro.sim import units


class TestDram:
    def test_counters(self):
        dram = DRAM(StatsBundle())
        dram.read(0, 0)
        dram.write(64, 10)
        dram.write(128, 20)
        assert dram.reads == 1
        assert dram.writes == 2

    def test_fixed_latency(self):
        dram = DRAM(StatsBundle())
        assert DRAM_LATENCY == units.nanoseconds(70)
        assert dram.read(0, 0) == dram.write(64, 0) == DRAM_LATENCY

    def test_no_throttle_by_default(self):
        dram = DRAM(StatsBundle())
        # Back-to-back accesses at the same tick see no queueing.
        assert dram.read(0, 0) == DRAM_LATENCY
        assert dram.read(64, 0) == DRAM_LATENCY

    def test_bandwidth_accounting(self):
        stats = StatsBundle()
        dram = DRAM(stats)
        # 1000 line writes over 1 us, each stamped at its issue tick.
        for i in range(1000):
            dram.write(i * 64, i * units.nanoseconds(1))
        assert stats.events.count_between("dram_writes", 0, units.microseconds(1)) == 1000

    def test_bandwidth_empty_window(self):
        stats = StatsBundle()
        DRAM(stats).write(0, 0)
        assert stats.events.count_between("dram_reads", 0, units.microseconds(1)) == 0
