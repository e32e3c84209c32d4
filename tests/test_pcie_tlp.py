"""Unit + property tests for the TLP reserved-bit encoding (Fig. 7)."""

import pytest
from hypothesis import given, strategies as st

from repro.pcie.tlp import (
    APP_CLASS1_CORE_CODE,
    BURST_FLAG_BIT,
    DEST_CORE_BITS,
    HEADER_FLAG_BIT,
    IDIO_METADATA_BITS,
    MAX_DEST_CORE,
    IdioTag,
    decode_idio_bits,
    encode_idio_bits,
)

#: DW0 format/type of a memory-write TLP with a 3DW header.
MWR_FMT_TYPE = 0x40 << 24


class TestBitLayout:
    def test_reserved_bit_positions(self):
        # Fig. 7: destCore in bits 23, [19:16], 11; header 31; burst 10.
        assert HEADER_FLAG_BIT == 31
        assert BURST_FLAG_BIT == 10
        assert DEST_CORE_BITS == (23, 19, 18, 17, 16, 11)

    def test_supports_up_to_63_cores(self):
        assert MAX_DEST_CORE == 62
        assert APP_CLASS1_CORE_CODE == 63

    def test_bits_do_not_overlap_tlp_fmt_type(self):
        # Format/type live in bits [31:24]; IDIO only uses bit 31 there
        # (documented reserved for MWr) and otherwise stays below bit 24.
        word = encode_idio_bits(IdioTag(dest_core=62, is_header=False, is_burst=True))
        assert word & 0x7F00_0000 == 0  # bits 30..24 untouched


class TestEncodeDecode:
    def test_roundtrip_simple(self):
        tag = IdioTag(dest_core=5, app_class=0, is_header=True, is_burst=False)
        assert decode_idio_bits(encode_idio_bits(tag)) == tag

    def test_class1_encodes_all_core_bits(self):
        word = encode_idio_bits(IdioTag(app_class=1))
        for bit in DEST_CORE_BITS:
            assert (word >> bit) & 1 == 1

    def test_class1_decodes_regardless_of_flags(self):
        tag = IdioTag(app_class=1, is_header=True, is_burst=True)
        decoded = decode_idio_bits(encode_idio_bits(tag))
        assert decoded.app_class == 1
        assert decoded.is_header and decoded.is_burst

    def test_zero_word_is_core0_class0(self):
        decoded = decode_idio_bits(0)
        assert decoded == IdioTag(dest_core=0, app_class=0)

    def test_invalid_core_rejected(self):
        with pytest.raises(ValueError):
            IdioTag(dest_core=63, app_class=0)
        with pytest.raises(ValueError):
            IdioTag(dest_core=-1, app_class=0)

    def test_invalid_app_class_rejected(self):
        with pytest.raises(ValueError):
            IdioTag(app_class=2)

    @given(
        st.integers(min_value=0, max_value=62),
        st.booleans(),
        st.booleans(),
    )
    def test_roundtrip_property(self, core, header, burst):
        tag = IdioTag(dest_core=core, app_class=0, is_header=header, is_burst=burst)
        assert decode_idio_bits(encode_idio_bits(tag)) == tag

    @given(st.integers(min_value=0, max_value=62), st.integers(min_value=0, max_value=62))
    def test_distinct_cores_distinct_words(self, a, b):
        wa = encode_idio_bits(IdioTag(dest_core=a))
        wb = encode_idio_bits(IdioTag(dest_core=b))
        assert (wa == wb) == (a == b)


class TestMemWriteTLP:
    """A memory-write DW0: the MWr format/type plus the IDIO reserved bits."""

    def test_header_word_contains_mwr_type(self):
        word = MWR_FMT_TYPE | encode_idio_bits(IdioTag(dest_core=1))
        assert (word >> 24) & 0x7F == 0x40

    def test_header_word_roundtrips_tag(self):
        tag = IdioTag(dest_core=7, is_header=True)
        assert decode_idio_bits(MWR_FMT_TYPE | encode_idio_bits(tag)) == tag

    def test_untagged_word_not_idio_tagged(self):
        assert decode_idio_bits(MWR_FMT_TYPE) == IdioTag()

    def test_tagged_word_detected(self):
        word = encode_idio_bits(IdioTag(dest_core=1))
        assert word != 0
        assert word & ~sum(1 << b for b in IDIO_METADATA_BITS) == 0
