"""Flow construction and ToR steering: the million-flow regime.

The historical ``make_flow`` silently overflowed the 16-bit port fields
past index ~45k, so distinct indices started colliding exactly where the
rack tier needs them distinct.  These tests pin the lane/slot encoding:
backward-compatible values for small indices, validity and uniqueness at
one million flows, and deterministic, balanced steering on top.
"""

from collections import Counter

import pytest

from repro.net.flow import (
    FLOW_LANE_SPAN,
    MAX_FLOWS,
    FlowSteering,
    flow_key,
    make_flow,
    make_flows,
)
from repro.net.packet import FiveTuple


class TestMakeFlow:
    def test_backward_compatible_below_one_lane(self):
        # Indices below FLOW_LANE_SPAN reproduce the historical
        # single-lane encoding exactly (committed fingerprints depend
        # on these values).
        for index in (0, 1, 7, 4_999, FLOW_LANE_SPAN - 1):
            flow = make_flow(index)
            assert flow.src_ip == 0x0A00_0001 + index
            assert flow.dst_ip == 0x0A00_1001 + index
            assert flow.src_port == 10_000 + index
            assert flow.dst_port == 20_000 + index

    def test_ports_stay_in_range_past_one_lane(self):
        # The old base+index scheme put src_port at 10_000 + 60_000 here.
        flow = make_flow(60_000)
        assert 0 < flow.src_port < 65_536
        assert 0 < flow.dst_port < 65_536

    @pytest.mark.parametrize("index", [-1, MAX_FLOWS])
    def test_out_of_range_rejected(self, index):
        with pytest.raises(ValueError):
            make_flow(index)

    def test_one_million_flows_unique_and_valid(self):
        # The rack-tier regression test: one million distinct indices
        # must produce one million distinct, valid 5-tuples.  Uniqueness
        # is checked on the packed integer key, which covers the whole
        # tuple at ~40 bytes/flow instead of materializing tuples twice.
        count = 1_000_000
        keys = set()
        min_sp = min_dp = 65_536
        max_sp = max_dp = 0
        for i in range(count):
            flow = make_flow(i)
            keys.add(flow_key(flow))
            if flow.src_port < min_sp:
                min_sp = flow.src_port
            if flow.src_port > max_sp:
                max_sp = flow.src_port
            if flow.dst_port < min_dp:
                min_dp = flow.dst_port
            if flow.dst_port > max_dp:
                max_dp = flow.dst_port
        assert len(keys) == count, f"{count - len(keys)} flow collisions"
        assert 0 < min_sp and max_sp < 65_536
        assert 0 < min_dp and max_dp < 65_536

    def test_src_ip_alone_recovers_index(self):
        # Injectivity argument: src_ip encodes (lane, slot) losslessly.
        for index in (0, FLOW_LANE_SPAN - 1, FLOW_LANE_SPAN, 1_234_567):
            flow = make_flow(index)
            lane = (flow.src_ip - 0x0A00_0001) >> 16
            slot = (flow.src_ip - 0x0A00_0001) & 0xFFFF
            assert lane * FLOW_LANE_SPAN + slot == index

    def test_make_flows_deterministic(self):
        assert make_flows(256) == make_flows(256)


class TestFlowKey:
    def test_distinct_fields_distinct_keys(self):
        a = FiveTuple(src_ip=1, dst_ip=2, src_port=3, dst_port=4)
        b = FiveTuple(src_ip=1, dst_ip=2, src_port=3, dst_port=5)
        assert flow_key(a) != flow_key(b)

    def test_key_is_stable(self):
        flow = make_flow(123_456)
        assert flow_key(flow) == flow_key(make_flow(123_456))


class TestFlowSteering:
    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            FlowSteering(0)
        with pytest.raises(ValueError):
            FlowSteering(4, mode="toeplitz")
        with pytest.raises(ValueError):
            FlowSteering(4, table_bits=0)

    @pytest.mark.parametrize("mode", ["rss", "rendezvous"])
    def test_deterministic_across_instances(self, mode):
        flows = make_flows(2_000)
        a = FlowSteering(5, mode=mode, seed=7)
        b = FlowSteering(5, mode=mode, seed=7)
        assert [a.server_for(f) for f in flows] == [
            b.server_for(f) for f in flows
        ]

    @pytest.mark.parametrize("mode", ["rss", "rendezvous"])
    def test_assignment_covers_all_flows(self, mode):
        flows = make_flows(4_096)
        steering = FlowSteering(4, mode=mode)
        servers = [steering.server_for(f) for f in flows]
        assert all(0 <= s < 4 for s in servers)
        assert steering.assignment_counts(flows) == [servers.count(i) for i in range(4)]

    @pytest.mark.parametrize("mode", ["rss", "rendezvous"])
    def test_reasonably_balanced(self, mode):
        flows = make_flows(8_192)
        counts = FlowSteering(4, mode=mode).assignment_counts(flows)
        expected = len(flows) / 4
        for count in counts:
            assert 0.7 * expected < count < 1.3 * expected, counts

    def test_rss_table_maximally_balanced(self):
        # Round-robin fill: per-server entry counts differ by at most 1.
        hist = Counter(FlowSteering(5, table_bits=10)._table)
        assert max(hist.values()) - min(hist.values()) <= 1
        assert sum(hist.values()) == 1 << 10

    def test_rendezvous_minimal_remap_on_server_removal(self):
        # The consistent-hashing property: dropping the last server
        # remaps only the flows that server owned.
        flows = make_flows(4_096)
        before = FlowSteering(5, mode="rendezvous", seed=3)
        after = FlowSteering(4, mode="rendezvous", seed=3)
        moved = 0
        for flow in flows:
            old = before.server_for(flow)
            new = after.server_for(flow)
            if old != new:
                moved += 1
                assert old == 4, "a surviving server's flow moved"
        owned_by_removed = before.assignment_counts(flows)[4]
        assert moved == owned_by_removed

    def test_digest_differs_by_configuration(self):
        base = FlowSteering(4, seed=0).digest()
        assert FlowSteering(5, seed=0).digest() != base
        assert FlowSteering(4, seed=1).digest() != base
        assert FlowSteering(4, mode="rendezvous", seed=0).digest() != base
        # Same configuration, fresh instance: identical digest.
        assert FlowSteering(4, seed=0).digest() == base
