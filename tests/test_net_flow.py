"""Flow construction: the lane/slot encoding of ``make_flow``.

The historical ``make_flow`` silently overflowed the 16-bit port fields
past index ~45k, so distinct indices started colliding.  These tests pin
the lane/slot encoding: backward-compatible values for small indices,
and validity and uniqueness at one million flows.
"""

import pytest

from repro.net.flow import FLOW_LANE_SPAN, MAX_FLOWS, make_flow


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
        # One million distinct indices must produce one million
        # distinct, valid 5-tuples.  Uniqueness is checked on the four
        # varying fields packed into one integer (~40 bytes/flow instead
        # of keeping a million tuples alive).
        count = 1_000_000
        keys = set()
        min_sp = min_dp = 65_536
        max_sp = max_dp = 0
        for i in range(count):
            flow = make_flow(i)
            keys.add(
                (flow.src_ip << 64) | (flow.dst_ip << 32) | (flow.src_port << 16) | flow.dst_port
            )
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
        assert [make_flow(i) for i in range(256)] == [make_flow(i) for i in range(256)]
