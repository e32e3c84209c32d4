"""Unit tests for time/bandwidth unit conversions."""

import pytest

from repro.sim import units


class TestTimeConversions:
    def test_nanosecond_is_thousand_picoseconds(self):
        assert units.nanoseconds(1) == 1000 * units.picoseconds(1)

    def test_microsecond_chain(self):
        assert units.microseconds(1) == units.nanoseconds(1000)
        assert units.milliseconds(1) == units.microseconds(1000)
        assert units.seconds(1) == units.milliseconds(1000)

    def test_roundtrip_to_ns(self):
        assert units.to_nanoseconds(units.nanoseconds(123.0)) == pytest.approx(123.0)

    def test_roundtrip_to_us(self):
        assert units.to_microseconds(units.microseconds(7.5)) == pytest.approx(7.5)

    def test_roundtrip_to_ms_and_s(self):
        assert units.to_milliseconds(units.milliseconds(3)) == pytest.approx(3.0)
        assert units.to_seconds(units.seconds(2)) == pytest.approx(2.0)

    def test_fractional_nanoseconds_round(self):
        assert units.nanoseconds(0.5) == 500


class TestCycles:
    def test_one_cycle_at_3ghz_is_333ps(self):
        assert units.CPU_FREQ_GHZ == 3.0
        assert units.cycles(1) == 333

    def test_twelve_cycles_mlc_latency(self):
        # Table I: MLC latency is 12 cycles = 4 ns at 3 GHz.
        assert units.cycles(12) == pytest.approx(4000, abs=10)


class TestBandwidth:
    def test_transfer_time_100gbps_line(self):
        # 64 B at 100 Gbps = 5.12 ns.
        assert units.transfer_time(64, 100.0) == pytest.approx(5120, rel=1e-3)

    def test_transfer_time_mtu_at_10gbps(self):
        # 1538 B wire frame at 10 Gbps = 1230.4 ns.
        assert units.transfer_time(1538, 10.0) == pytest.approx(1_230_400, rel=1e-3)

    def test_transfer_time_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            units.transfer_time(64, 0)

    def test_bytes_to_gbps_roundtrip(self):
        ticks = units.transfer_time(10_000, 25.0)
        assert units.bytes_to_gbps(10_000, ticks) == pytest.approx(25.0, rel=1e-3)

    def test_bytes_to_gbps_zero_window(self):
        assert units.bytes_to_gbps(100, 0) == 0.0

    def test_gbps_to_bytes_per_tick(self):
        # 8 Gbps = 1 GB/s = 1e9 bytes / 1e12 ticks.
        assert units.gbps_to_bytes_per_tick(8.0) == pytest.approx(1e-3)
