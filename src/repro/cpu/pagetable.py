"""Page-table model with the *Invalidatable* PTE bit (§V-D).

The invalidate-without-writeback instruction leaks stale data across
processes if it can be issued on arbitrary pages (the zeroed-page example
in §V-D).  The paper's mitigation: the kernel marks pages of specially
allocated buffers *Invalidatable* using a reserved PTE bit, flushing them
to DRAM first; the instruction checks the bit and faults otherwise.

We model a flat page table mapping page numbers to PTEs.  The
``allocate_invalidatable`` path performs the flush-then-mark sequence, and
:class:`InvalidatePermissionError` is the modeled fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional

PAGE_SIZE = 4096


class InvalidatePermissionError(PermissionError):
    """Invalidate-without-writeback issued on a non-Invalidatable page."""


@dataclass
class PageTableEntry:
    """The PTE state we model: presence plus the reserved Invalidatable bit."""

    page_number: int
    present: bool = True
    invalidatable: bool = False
    owner_pid: int = 0


class PageTable:
    """A flat per-system page table (sufficient for DMA buffer modeling)."""

    def __init__(self) -> None:
        self._entries: Dict[int, PageTableEntry] = {}

    @staticmethod
    def page_number(addr: int) -> int:
        return addr // PAGE_SIZE

    def map_range(self, base: int, num_bytes: int, pid: int = 0) -> None:
        """Map ordinary (non-Invalidatable) pages covering the range."""
        for pn in self._pages(base, num_bytes):
            self._entries[pn] = PageTableEntry(pn, owner_pid=pid)

    def allocate_invalidatable(
        self,
        base: int,
        num_bytes: int,
        pid: int = 0,
        flush: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Kernel path for Invalidatable buffers (§V-D).

        The kernel first flushes the pages to DRAM (``flush`` is invoked
        with each page base address) and only then sets the PTE bit, so a
        later invalidate cannot expose a previous owner's data.
        """
        for pn in self._pages(base, num_bytes):
            if flush is not None:
                flush(pn * PAGE_SIZE)
            self._entries[pn] = PageTableEntry(pn, invalidatable=True, owner_pid=pid)

    def entry(self, addr: int) -> Optional[PageTableEntry]:
        return self._entries.get(self.page_number(addr))

    def is_invalidatable(self, addr: int) -> bool:
        entry = self.entry(addr)
        return bool(entry and entry.present and entry.invalidatable)

    def check_invalidate(self, addr: int) -> None:
        """The hardware check performed by the new instruction."""
        if not self.is_invalidatable(addr):
            raise InvalidatePermissionError(
                f"page {self.page_number(addr):#x} is not marked Invalidatable"
            )

    @staticmethod
    def _pages(base: int, num_bytes: int) -> Iterable[int]:
        if num_bytes <= 0:
            return range(0)
        first = base // PAGE_SIZE
        last = (base + num_bytes - 1) // PAGE_SIZE
        return range(first, last + 1)
