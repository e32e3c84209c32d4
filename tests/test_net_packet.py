"""Unit tests for packets, flows, and DSCP classes."""

import pytest

from repro.net.flow import make_flow
from repro.net.packet import (
    APP_CLASS_LONG_USE,
    APP_CLASS_SHORT_USE,
    MTU_FRAME_BYTES,
    Packet,
)
from repro.net.traffic import SteadyProfile
from repro.sim import units


class TestPacket:
    def test_mtu_frame_geometry(self):
        p = Packet(size_bytes=MTU_FRAME_BYTES)
        assert p.num_lines == 24

    def test_1024_byte_packet(self):
        p = Packet(size_bytes=1024)
        assert p.num_lines == 16

    def test_tiny_packet_is_all_header(self):
        p = Packet(size_bytes=60)
        assert p.num_lines == 1

    def test_wire_bytes_includes_overhead(self):
        # Arrivals are spaced by the frame plus 24 B of wire overhead.
        profile = SteadyProfile(rate_gbps=10.0, duration=units.microseconds(10))
        assert profile.inter_arrival() == units.transfer_time(1538, 10.0)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Packet(size_bytes=0)

    def test_invalid_app_class(self):
        with pytest.raises(ValueError):
            Packet(app_class=2)

    def test_valid_app_classes(self):
        assert Packet(app_class=APP_CLASS_SHORT_USE).app_class == 0
        assert Packet(app_class=APP_CLASS_LONG_USE).app_class == 1

    def test_latency_none_until_completed(self):
        p = Packet(arrival_time=100)
        assert p.latency is None
        p.completion_time = 350
        assert p.latency == 250

    def test_unique_packet_ids(self):
        ids = {Packet().packet_id for _ in range(100)}
        assert len(ids) == 100


class TestFlowFactory:
    def test_flows_distinct(self):
        flows = [make_flow(i) for i in range(16)]
        assert len(set(flows)) == 16

    def test_deterministic(self):
        assert make_flow(3) == make_flow(3)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            make_flow(-1)
