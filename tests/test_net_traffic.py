"""Unit tests for the traffic profiles and the generator that schedules them."""

import pytest

from repro.net.flow import make_flow
from repro.net.packet import WIRE_OVERHEAD_BYTES, Packet
from repro.net.traffic import (
    IMIX_DISTRIBUTION,
    TRAFFIC_KINDS,
    BurstProfile,
    DiurnalProfile,
    HeavyTailProfile,
    ImixProfile,
    PoissonProfile,
    SteadyProfile,
    TrafficGenerator,
    make_profile,
)
from repro.sim import Simulator, units


def collect_arrivals(schedule):
    sim = Simulator()
    arrivals = []
    gen = TrafficGenerator(sim, make_flow(0), lambda p: arrivals.append(p))
    count = schedule(gen)
    sim.run()
    return arrivals, count


class TestSteadyProfile:
    def test_inter_arrival_matches_rate(self):
        profile = SteadyProfile(rate_gbps=10.0, duration=0, packet_bytes=1514)
        # 1538 wire bytes at 10 Gbps = 1230.4 ns.
        assert profile.inter_arrival() == pytest.approx(units.nanoseconds(1230.4), rel=1e-3)

    def test_packet_count_and_rate(self):
        profile = SteadyProfile(
            rate_gbps=10.0, duration=units.microseconds(100), packet_bytes=1514
        )
        arrivals, count = collect_arrivals(lambda g: g.schedule(profile))
        assert count == len(arrivals)
        # ~81 packets in 100 us at 10 Gbps.
        assert 78 <= len(arrivals) <= 84

    def test_arrival_times_monotone(self):
        profile = SteadyProfile(rate_gbps=25.0, duration=units.microseconds(50))
        arrivals, _ = collect_arrivals(lambda g: g.schedule(profile))
        times = [p.arrival_time for p in arrivals]
        assert times == sorted(times)

    def test_start_offset(self):
        profile = SteadyProfile(
            rate_gbps=10.0, duration=units.microseconds(10), start=units.microseconds(5)
        )
        arrivals, _ = collect_arrivals(lambda g: g.schedule(profile))
        assert arrivals[0].arrival_time == units.microseconds(5)


class TestBurstProfile:
    def test_burst_length_matches_paper_formula(self):
        # §VI: ring 1024 at 100 Gbps -> ~0.115 ms burst length.
        profile = BurstProfile(burst_rate_gbps=100.0, packets_per_burst=1024)
        assert units.to_milliseconds(profile.burst_length) == pytest.approx(0.126, abs=0.015)

    def test_burst_length_at_10gbps(self):
        # §VI: ring 1024 at 10 Gbps -> ~1.155 ms (paper's approximation).
        profile = BurstProfile(burst_rate_gbps=10.0, packets_per_burst=1024)
        assert units.to_milliseconds(profile.burst_length) == pytest.approx(1.26, abs=0.11)

    def test_packets_per_burst_delivered(self):
        profile = BurstProfile(burst_rate_gbps=100.0, packets_per_burst=64, num_bursts=3)
        arrivals, count = collect_arrivals(lambda g: g.schedule(profile))
        assert count == 192
        assert len(arrivals) == 192

    def test_burst_period_spacing(self):
        profile = BurstProfile(
            burst_rate_gbps=100.0,
            packets_per_burst=4,
            num_bursts=2,
            burst_period=units.milliseconds(1),
        )
        arrivals, _ = collect_arrivals(lambda g: g.schedule(profile))
        assert arrivals[4].arrival_time - arrivals[0].arrival_time == units.milliseconds(1)

    def test_app_class_propagated(self):
        sim = Simulator()
        out = []
        gen = TrafficGenerator(sim, make_flow(0), out.append, app_class=1)
        gen.schedule(BurstProfile(burst_rate_gbps=100.0, packets_per_burst=2))
        sim.run()
        assert all(p.app_class == 1 for p in out)


class TestPoissonProfile:
    def test_average_rate_close_to_target(self):
        sim = Simulator()
        arrivals = []
        gen = TrafficGenerator(sim, make_flow(0), arrivals.append)
        gen.schedule(PoissonProfile(25.0, units.milliseconds(2), seed=3))
        sim.run()
        # 25 Gbps of 1538 B wire frames over 2 ms -> ~4065 packets.
        assert len(arrivals) == pytest.approx(4065, rel=0.1)

    def test_seeded_reproducibility(self):
        def times(seed):
            sim = Simulator()
            out = []
            gen = TrafficGenerator(sim, make_flow(0), out.append)
            gen.schedule(PoissonProfile(10.0, units.microseconds(500), seed=seed))
            sim.run()
            return [p.arrival_time for p in out]

        assert times(7) == times(7)
        assert times(7) != times(8)

    def test_interarrival_variability(self):
        """Poisson gaps vary (unlike the steady profile's fixed gap)."""
        sim = Simulator()
        out = []
        gen = TrafficGenerator(sim, make_flow(0), out.append)
        gen.schedule(PoissonProfile(10.0, units.milliseconds(1), seed=1))
        sim.run()
        gaps = {
            out[i + 1].arrival_time - out[i].arrival_time
            for i in range(len(out) - 1)
        }
        assert len(gaps) > len(out) // 2

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            PoissonProfile(1e12, units.microseconds(1))


class TestHeavyTailProfile:
    def test_mean_rate_close_to_target(self):
        # The Pareto gaps are scaled so their mean equals the wire-rate
        # gap: over a long window the offered load approaches the target.
        profile = HeavyTailProfile(
            rate_gbps=25.0, duration=units.milliseconds(4), alpha=1.8, seed=11
        )
        arrivals, _ = collect_arrivals(lambda g: g.schedule(profile))
        # 25 Gbps of 1538 B frames over 4 ms -> ~8130 packets; the heavy
        # tail makes the sample mean noisy, hence the loose band.
        assert len(arrivals) == pytest.approx(8130, rel=0.35)
        times = [p.arrival_time for p in arrivals]
        assert times == sorted(times)

    def test_seeded_reproducibility(self):
        def times(seed):
            profile = HeavyTailProfile(
                rate_gbps=10.0, duration=units.milliseconds(1), seed=seed
            )
            arrivals, _ = collect_arrivals(
                lambda g: g.schedule(profile)
            )
            return [p.arrival_time for p in arrivals]

        assert times(7) == times(7)
        assert times(7) != times(8)

    def test_burstier_than_poisson(self):
        # Heavy-tailed gaps: the max gap dwarfs the median gap far more
        # than the exponential's ~log(n) ratio.
        profile = HeavyTailProfile(
            rate_gbps=10.0, duration=units.milliseconds(2), alpha=1.2, seed=3
        )
        arrivals, _ = collect_arrivals(lambda g: g.schedule(profile))
        gaps = sorted(
            arrivals[i + 1].arrival_time - arrivals[i].arrival_time
            for i in range(len(arrivals) - 1)
        )
        median = gaps[len(gaps) // 2]
        assert gaps[-1] > 20 * median

    def test_alpha_must_exceed_one(self):
        with pytest.raises(ValueError):
            HeavyTailProfile(
                rate_gbps=10.0, duration=units.microseconds(10), alpha=1.0
            )


class TestDiurnalProfile:
    def test_rate_shape(self):
        profile = DiurnalProfile(
            trough_rate_gbps=10.0,
            peak_rate_gbps=30.0,
            duration=units.milliseconds(1),
            period=units.milliseconds(1),
        )
        assert profile.rate_at(0) == pytest.approx(10.0)
        assert profile.rate_at(units.milliseconds(1) // 2) == pytest.approx(30.0)
        assert profile.rate_at(units.milliseconds(1)) == pytest.approx(10.0)

    def test_mean_rate_over_whole_periods(self):
        # Over an integer number of periods the realized load sits near
        # the trough/peak midpoint.
        period = units.milliseconds(1)
        profile = DiurnalProfile(
            trough_rate_gbps=5.0,
            peak_rate_gbps=15.0,
            duration=2 * period,
            period=period,
            seed=9,
        )
        arrivals, _ = collect_arrivals(lambda g: g.schedule(profile))
        # 10 Gbps mean of 1538 B frames over 2 ms -> ~1626 packets.
        assert len(arrivals) == pytest.approx(1626, rel=0.15)

    def test_peak_half_busier_than_trough_half(self):
        period = units.milliseconds(1)
        profile = DiurnalProfile(
            trough_rate_gbps=2.0,
            peak_rate_gbps=20.0,
            duration=period,
            period=period,
            seed=4,
        )
        arrivals, _ = collect_arrivals(lambda g: g.schedule(profile))
        mid_start, mid_end = period // 4, 3 * period // 4
        middle = sum(1 for p in arrivals if mid_start <= p.arrival_time < mid_end)
        edges = len(arrivals) - middle
        assert middle > 2 * edges

    def test_seeded_reproducibility(self):
        def times(seed):
            profile = DiurnalProfile(
                trough_rate_gbps=5.0,
                peak_rate_gbps=10.0,
                duration=units.microseconds(500),
                period=units.microseconds(250),
                seed=seed,
            )
            arrivals, _ = collect_arrivals(lambda g: g.schedule(profile))
            return [p.arrival_time for p in arrivals]

        assert times(7) == times(7)
        assert times(7) != times(8)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError, match="trough rate exceeds the peak"):
            DiurnalProfile(
                trough_rate_gbps=20.0,
                peak_rate_gbps=10.0,
                duration=units.microseconds(10),
            )
        with pytest.raises(ValueError):
            DiurnalProfile(
                trough_rate_gbps=-1.0,
                peak_rate_gbps=10.0,
                duration=units.microseconds(10),
            )


class TestImixProfile:
    def test_sizes_from_distribution(self):
        sim = Simulator()
        out = []
        gen = TrafficGenerator(sim, make_flow(0), out.append)
        gen.schedule(ImixProfile(10.0, units.milliseconds(1), seed=5))
        sim.run()
        allowed = {s for s, _ in IMIX_DISTRIBUTION}
        assert {p.size_bytes for p in out} <= allowed
        # The 7:4:1 mix makes 64 B the most common size.
        sizes = [p.size_bytes for p in out]
        assert sizes.count(64) > sizes.count(1518)

    def test_offered_load_near_target(self):
        sim = Simulator()
        out = []
        gen = TrafficGenerator(sim, make_flow(0), out.append)
        duration = units.milliseconds(2)
        gen.schedule(ImixProfile(10.0, duration, seed=5))
        sim.run()
        wire_bytes = sum(p.size_bytes + WIRE_OVERHEAD_BYTES for p in out)
        gbps = units.bytes_to_gbps(wire_bytes, duration)
        assert gbps == pytest.approx(10.0, rel=0.1)


class TestTrafficKinds:
    def test_every_kind_names_its_own_arrival_event(self):
        events = {cls.event for cls in TRAFFIC_KINDS.values()}
        assert len(events) == len(TRAFFIC_KINDS)
        assert all(e.endswith("-arrival") for e in events)

    def test_make_profile_keeps_only_the_kinds_parameters(self):
        profile = make_profile(
            "imix", rate_gbps=5.0, duration=100, packet_bytes=512, seed=3
        )
        assert profile == ImixProfile(rate_gbps=5.0, duration=100, seed=3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown traffic kind"):
            make_profile("square-wave", rate_gbps=1.0, duration=10)

    @pytest.mark.parametrize("kind", sorted(TRAFFIC_KINDS))
    def test_schedule_counts_every_arrival_before_end(self, kind):
        profile = make_profile(
            kind,
            burst_rate_gbps=100.0,
            packets_per_burst=8,
            num_bursts=2,
            burst_period=units.microseconds(20),
            rate_gbps=10.0,
            trough_rate_gbps=5.0,
            peak_rate_gbps=10.0,
            period=units.microseconds(25),
            duration=units.microseconds(50),
            start=units.microseconds(3),
            seed=2,
        )
        arrivals, count = collect_arrivals(lambda g: g.schedule(profile))
        assert count == len(arrivals) > 0
        assert all(
            profile.start <= p.arrival_time <= profile.end for p in arrivals
        )

    def test_burst_end_is_last_arrival(self):
        profile = BurstProfile(
            burst_rate_gbps=25.0, packets_per_burst=4, num_bursts=3,
            burst_period=units.microseconds(10),
        )
        arrivals, _ = collect_arrivals(lambda g: g.schedule(profile))
        assert arrivals[-1].arrival_time == profile.end
