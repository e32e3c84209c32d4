"""Unit tests for the IDIO classifier (§V-A)."""

import pytest

from repro.net.packet import Packet
from repro.nic.classifier import (
    ClassifierConfig,
    IdioClassifier,
    gbps_to_bytes_per_interval,
)
from repro.sim import Simulator, units


def make_classifier(threshold_gbps=10.0, num_cores=4):
    sim = Simulator()
    clf = IdioClassifier(
        sim,
        ClassifierConfig(rx_burst_threshold_gbps=threshold_gbps, num_cores=num_cores),
    )
    return sim, clf


class TestThreshold:
    def test_10gbps_threshold_is_1250_bytes_per_us(self):
        assert gbps_to_bytes_per_interval(10.0, units.microseconds(1)) == 1250

    def test_threshold_stored(self):
        _, clf = make_classifier(threshold_gbps=10.0)
        assert clf._threshold_bytes == 1250


class TestBurstDetection:
    def test_edge_fires_on_crossing(self):
        sim, clf = make_classifier()
        assert not clf.observe_packet(Packet(size_bytes=1000), 0)
        assert clf.observe_packet(Packet(size_bytes=1000), 0)  # crosses 1250
        assert clf.bursts_detected == 1

    def test_no_repeat_edge_within_window(self):
        sim, clf = make_classifier()
        clf.observe_packet(Packet(size_bytes=2000), 0)  # edge
        assert not clf.observe_packet(Packet(size_bytes=2000), 0)
        assert clf.bursts_detected == 1

    def test_sustained_burst_produces_single_edge(self):
        """Crossing every window (a long burst) must not re-notify."""
        sim, clf = make_classifier()
        interval = units.microseconds(1)
        for window in range(5):
            for _ in range(3):
                clf.observe_packet(Packet(size_bytes=1514), 0)
            sim.run(until=(window + 1) * interval)
        assert clf.bursts_detected == 1

    def test_quiet_window_rearms_detection(self):
        sim, clf = make_classifier()
        interval = units.microseconds(1)
        for _ in range(3):
            clf.observe_packet(Packet(size_bytes=1514), 0)
        # Two quiet windows.
        sim.run(until=3 * interval)
        for _ in range(3):
            clf.observe_packet(Packet(size_bytes=1514), 0)
        assert clf.bursts_detected == 2

    def test_counters_are_per_core(self):
        sim, clf = make_classifier()
        clf.observe_packet(Packet(size_bytes=1300), 0)
        assert clf.bursts_detected == 1
        # Core 1's counter is independent.
        assert not clf.observe_packet(Packet(size_bytes=1000), 1)

    def test_counter_resets_each_interval(self):
        sim, clf = make_classifier()
        clf.observe_packet(Packet(size_bytes=1000), 0)
        sim.run(until=units.microseconds(1))
        # Counter reset: another 1000 bytes does not cross.
        assert not clf.observe_packet(Packet(size_bytes=1000), 0)


class TestTagging:
    def test_first_line_is_header(self):
        _, clf = make_classifier()
        p = Packet(size_bytes=1514)
        tag0 = clf.tag_for_line(p, 2, 0, False)
        tag1 = clf.tag_for_line(p, 2, 1, False)
        assert tag0.is_header and not tag1.is_header
        assert tag0.dest_core == 2

    def test_class1_packet_tagged_class1(self):
        _, clf = make_classifier()
        p = Packet(size_bytes=1514, app_class=1)
        tag = clf.tag_for_line(p, 2, 5, False)
        assert tag.app_class == 1

    def test_burst_flag_propagated(self):
        _, clf = make_classifier()
        p = Packet()
        assert clf.tag_for_line(p, 0, 0, True).is_burst
        assert not clf.tag_for_line(p, 0, 0, False).is_burst

    def test_stop_halts_reset_task(self):
        sim, clf = make_classifier()
        clf.stop()
        sim.run(until=units.microseconds(10))  # must not loop forever
