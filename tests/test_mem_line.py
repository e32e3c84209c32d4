"""Unit + property tests for cacheline address helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.mem.line import (
    LINE_SIZE,
    CacheLine,
    line_address,
    lines_spanning,
    num_lines,
)


class TestAddressHelpers:
    def test_line_address_aligns_down(self):
        assert line_address(0) == 0
        assert line_address(63) == 0
        assert line_address(64) == 64
        assert line_address(130) == 128

    def test_mtu_frame_spans_24_lines(self):
        assert num_lines(1514) == 24

    def test_1024_byte_packet_spans_16_lines(self):
        assert num_lines(1024) == 16

    def test_lines_spanning_aligned(self):
        assert list(lines_spanning(0, 128)) == [0, 64]

    def test_lines_spanning_unaligned_start(self):
        assert list(lines_spanning(32, 64)) == [0, 64]

    def test_lines_spanning_zero_bytes(self):
        assert list(lines_spanning(100, 0)) == []

    def test_lines_spanning_single_byte(self):
        assert list(lines_spanning(65, 1)) == [64]

    @given(st.integers(min_value=0, max_value=2**40), st.integers(min_value=1, max_value=65536))
    def test_spanning_count_matches_num_lines_when_aligned(self, addr, nbytes):
        base = line_address(addr)
        assert len(list(lines_spanning(base, nbytes))) == num_lines(nbytes)

    @given(st.integers(min_value=0, max_value=2**40))
    def test_line_address_idempotent(self, addr):
        assert line_address(line_address(addr)) == line_address(addr)


class TestCacheLine:
    def test_requires_aligned_address(self):
        with pytest.raises(ValueError):
            CacheLine(65)

    def test_defaults(self):
        line = CacheLine(128)
        assert not line.dirty
        assert line.origin == "cpu"
        assert line.owner == -1

    def test_io_origin(self):
        line = CacheLine(64, dirty=True, origin="io", owner=3)
        assert line.dirty and line.origin == "io" and line.owner == 3
