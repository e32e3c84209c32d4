"""Unit tests for counters and event logs."""

from array import array

import pytest

from repro.mem.stats import Counter, EventLog, StatsBundle, count_between, rate_series
from repro.sim import units


class TestCounter:
    def test_add_and_get(self):
        c = Counter()
        c.add("x")
        c.add("x", 4)
        assert c.get("x") == 5

    def test_unknown_is_zero(self):
        assert Counter().get("nope") == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter().add("x", -1)

    def test_snapshot_is_copy(self):
        c = Counter()
        c.add("a")
        snap = c.snapshot()
        snap["a"] = 99
        assert c.get("a") == 1

    def test_reset(self):
        c = Counter()
        c.add("a", 3)
        c.reset()
        assert c.get("a") == 0


class TestEventLog:
    def test_record_and_count(self):
        log = EventLog()
        log.record("wb", 10)
        log.record("wb", 20)
        assert log.count("wb") == 2
        assert log.count("other") == 0

    def test_count_between_half_open(self):
        log = EventLog()
        for t in (0, 10, 20, 30):
            log.record("wb", t)
        assert log.count_between("wb", 10, 30) == 2  # [10, 30)

    @pytest.mark.parametrize("wrap", [list, lambda ts: array("q", ts)], ids=["list", "array"])
    def test_detached_streams_bin_like_the_log(self, wrap):
        times = [0, 10, 10, 20, 30, 45]
        log = EventLog()
        for t in times:
            log.record("wb", t)
        detached = wrap(times)
        for start in range(-5, 55, 5):
            for end in range(start, 55, 5):
                expected = sum(start <= t < end for t in times)
                assert count_between(detached, start, end) == expected
        assert rate_series(detached, 10, 0, 50) == log.rate_series("wb", 10, 0, 50)

    def test_rate_series_bins(self):
        log = EventLog()
        for t in (0, 5, 10, 15, 25):
            log.record("wb", t)
        series = log.rate_series("wb", bin_ticks=10, start=0, end=30)
        assert series == [(0, 2), (10, 2), (20, 1)]

    def test_rate_series_includes_empty_bins(self):
        log = EventLog()
        log.record("wb", 25)
        series = log.rate_series("wb", bin_ticks=10, start=0, end=30)
        assert series == [(0, 0), (10, 0), (20, 1)]

    def test_rate_series_invalid_bin(self):
        with pytest.raises(ValueError):
            EventLog().rate_series("wb", 0)

    def test_mtps_series_units(self):
        log = EventLog()
        # 10 events within one 10 us bin = 1 MTPS.
        for i in range(10):
            log.record("wb", units.microseconds(1) * i)
        series = log.mtps_series(
            "wb", units.microseconds(10), 0, units.microseconds(10)
        )
        assert len(series) == 1
        t_us, mtps = series[0]
        assert t_us == 0.0
        assert mtps == pytest.approx(1.0)

    def test_timestamps_copy(self):
        log = EventLog()
        log.record("wb", 1)
        ts = log.timestamps("wb")
        ts.append(99)
        assert log.timestamps("wb") == [1]


class TestStatsBundle:
    def test_bump_updates_counter_and_log(self):
        s = StatsBundle()
        s.bump("mlc_writebacks", 100)
        assert s.counters.get("mlc_writebacks") == 1
        assert s.events.count("mlc_writebacks") == 1

    def test_bump_without_log(self):
        s = StatsBundle()
        s.bump("x", 5, log=False)
        assert s.counters.get("x") == 1
        assert s.events.count("x") == 0

    def test_bump_amount(self):
        s = StatsBundle()
        s.bump("x", 5, amount=3)
        assert s.counters.get("x") == 3
        assert s.events.count("x") == 3

    def test_reset(self):
        s = StatsBundle()
        s.bump("x", 5)
        s.reset()
        assert s.counters.get("x") == 0
        assert s.events.count("x") == 0
