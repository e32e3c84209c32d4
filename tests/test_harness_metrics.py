"""Unit tests for derived metrics."""

import pytest

from repro.harness import metrics
from repro.mem.stats import StatsBundle


class TestPercentile:
    def test_median_of_odd(self):
        assert metrics.percentile([1, 2, 3], 50) == 2

    def test_interpolation(self):
        assert metrics.percentile([0, 10], 50) == 5

    def test_p0_p100(self):
        data = [5, 1, 9]
        assert metrics.percentile(data, 0) == 1
        assert metrics.percentile(data, 100) == 9

    def test_p99_of_uniform(self):
        data = list(range(1000))
        assert metrics.percentile(data, 99) == pytest.approx(989.01)

    def test_single_value(self):
        assert metrics.percentile([7.0], 99) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            metrics.percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            metrics.percentile([1], 150)


class TestWindowStats:
    def make_stats(self):
        s = StatsBundle()
        for t in (10, 20, 30):
            s.bump("mlc_writebacks", t)
        s.bump("llc_writebacks", 15)
        s.bump("dram_writes", 15)
        s.bump("dram_reads", 25)
        for t in (5, 10, 15, 20):
            s.bump("pcie_writes", t)
        return s

    def test_collect_window(self):
        w = metrics.window_stats(self.make_stats(), 0, 100)
        assert w.mlc_writebacks == 3
        assert w.llc_writebacks == 1
        assert w.dram_reads == 1
        assert w.dram_writes == 1
        assert w.pcie_writes == 4

    def test_window_bounds_respected(self):
        w = metrics.window_stats(self.make_stats(), 15, 25)
        assert w.mlc_writebacks == 1  # only t=20

    def test_normalized_to(self):
        s = self.make_stats()
        full = metrics.window_stats(s, 0, 100)
        norm = full.normalized_to(full)
        assert norm["mlc_writebacks"] == 1.0
        assert norm["dram_writes"] == 1.0

    def test_normalized_zero_baseline(self):
        s = StatsBundle()
        w = metrics.window_stats(s, 0, 100)
        base = metrics.window_stats(self.make_stats(), 0, 100)
        assert w.normalized_to(base)["mlc_writebacks"] == 0.0
        # 0-baseline, 0-measured -> 0.0, not inf.
        assert base.normalized_to(w)["mlc_writebacks"] == float("inf")


class TestRates:
    def test_reduction_percent(self):
        assert metrics.reduction_percent(100.0, 25.0) == 75.0
        assert metrics.reduction_percent(0.0, 10.0) == 0.0


class TestBurstProcessingTime:
    def test_dma_start_to_last_completion(self):
        s = StatsBundle()
        s.bump("pcie_writes", 100)
        s.bump("pcie_writes", 200)
        assert metrics.burst_processing_time(s, [500, 900]) == 800

    def test_none_when_no_data(self):
        s = StatsBundle()
        assert metrics.burst_processing_time(s, []) is None
        s.bump("pcie_writes", 100)
        assert metrics.burst_processing_time(s, []) is None
