"""PCIe Transaction Layer Packet headers with IDIO metadata.

IDIO transports four pieces of classifier metadata from the NIC to the
on-chip controller inside the *reserved* bits of the TLP header's first
doubleword (Fig. 7):

* ``destCore`` — 6 bits spread over bit 23, bits [19:16], and bit 11;
* ``appClass == 1`` — signaled by all six destCore bits being set
  (so at most 63 cores are addressable);
* ``isHeader`` — bit 31;
* ``isBurst``  — bit 10.

We encode/decode the real bit layout so the "fits in reserved bits" claim
is checked by construction, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

#: Reserved-bit positions of the first TLP header DW used by IDIO (Fig. 7).
HEADER_FLAG_BIT = 31
BURST_FLAG_BIT = 10
#: destCore bit positions, most-significant first: bit 23, bits 19..16, bit 11.
DEST_CORE_BITS = (23, 19, 18, 17, 16, 11)
#: All six destCore bits set => application class 1 (§V-A).
APP_CLASS1_CORE_CODE = (1 << len(DEST_CORE_BITS)) - 1
#: Maximum addressable core number (63 is reserved for appClass 1).
MAX_DEST_CORE = APP_CLASS1_CORE_CODE - 1

#: Every reserved-bit position IDIO repurposes, in descending order.  The
#: fault injector flips bits drawn from this tuple to model corrupted
#: metadata that the decode path must tolerate.
IDIO_METADATA_BITS = tuple(
    sorted((HEADER_FLAG_BIT, BURST_FLAG_BIT) + DEST_CORE_BITS, reverse=True)
)


@dataclass(frozen=True, slots=True)
class IdioTag:
    """Classifier metadata carried by one DMA write TLP (Alg. 1 inputs)."""

    dest_core: int = 0
    app_class: int = 0
    is_header: bool = False
    is_burst: bool = False

    def __post_init__(self) -> None:
        if self.app_class not in (0, 1):
            raise ValueError(f"app_class must be 0 or 1, got {self.app_class}")
        if self.app_class == 0 and not 0 <= self.dest_core <= MAX_DEST_CORE:
            raise ValueError(
                f"dest_core must be in 0..{MAX_DEST_CORE}, got {self.dest_core}"
            )


@lru_cache(maxsize=None)
def encode_idio_bits(tag: IdioTag) -> int:
    """Pack an :class:`IdioTag` into the reserved bits of a TLP header DW.

    Memoized: only a handful of distinct tags ever exist per run (per-core
    header/payload/burst combinations), and tags are frozen/hashable.
    """
    core_code = APP_CLASS1_CORE_CODE if tag.app_class == 1 else tag.dest_core
    word = 0
    for i, bit in enumerate(DEST_CORE_BITS):
        if core_code & (1 << (len(DEST_CORE_BITS) - 1 - i)):
            word |= 1 << bit
    if tag.is_header:
        word |= 1 << HEADER_FLAG_BIT
    if tag.is_burst:
        word |= 1 << BURST_FLAG_BIT
    return word


@lru_cache(maxsize=None)
def decode_idio_bits(word: int) -> IdioTag:
    """Unpack the reserved bits back into an :class:`IdioTag`.

    Memoized on the header word; the returned tag is immutable, so sharing
    one instance across transactions is safe.
    """
    core_code = 0
    for bit in DEST_CORE_BITS:
        core_code = (core_code << 1) | ((word >> bit) & 1)
    is_header = bool((word >> HEADER_FLAG_BIT) & 1)
    is_burst = bool((word >> BURST_FLAG_BIT) & 1)
    if core_code == APP_CLASS1_CORE_CODE:
        return IdioTag(dest_core=0, app_class=1, is_header=is_header, is_burst=is_burst)
    return IdioTag(
        dest_core=core_code, app_class=0, is_header=is_header, is_burst=is_burst
    )
