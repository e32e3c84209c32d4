"""Cacheline primitives and address helpers.

All caches operate on 64-byte lines.  Addresses are plain integers in an
abstract physical address space; helpers convert between byte addresses and
line addresses.
"""

from __future__ import annotations

#: Cacheline size in bytes (fixed, matching the evaluated platforms).
LINE_SIZE = 64
_LINE_SHIFT = LINE_SIZE.bit_length() - 1
_LINE_MASK = ~(LINE_SIZE - 1)


def line_address(byte_address: int) -> int:
    """The line-aligned address containing ``byte_address``."""
    return byte_address & _LINE_MASK


def lines_spanning(byte_address: int, num_bytes: int) -> range:
    """The line-aligned addresses covering ``[addr, addr+num_bytes)``.

    A 1514-byte Ethernet frame starting on a line boundary spans 24 lines.
    """
    if num_bytes <= 0:
        return range(0)
    first = line_address(byte_address)
    return range(first, line_address(byte_address + num_bytes - 1) + 1, LINE_SIZE)


def num_lines(num_bytes: int) -> int:
    """Number of lines needed for ``num_bytes`` starting on a line boundary."""
    return -(-num_bytes // LINE_SIZE)


class CacheLine:
    """State for one resident cacheline.

    ``origin`` records who brought the line in — ``"io"`` for DDIO
    write-allocates, ``"cpu"`` for demand fills and victim fills.  The paper
    notes that after an MLC writeback a line is "no longer classified as I/O
    data"; we keep the origin tag purely for occupancy accounting (the DMA
    bloating statistics) — it never affects replacement decisions.
    """

    __slots__ = ("addr", "dirty", "origin", "owner")

    def __init__(
        self,
        addr: int,
        dirty: bool = False,
        origin: str = "cpu",
        owner: int = -1,
    ) -> None:
        if addr != line_address(addr):
            raise ValueError(f"address {addr:#x} is not line-aligned")
        self.addr = addr
        self.dirty = dirty
        self.origin = origin
        self.owner = owner

    def __repr__(self) -> str:
        d = "D" if self.dirty else "C"
        return f"<Line {self.addr:#x} {d} {self.origin} core={self.owner}>"
