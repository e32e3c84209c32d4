"""Cache-maintenance operations, including the paper's new instruction.

Modern ISAs already provide invalidate-without-flush operations (ARMv7's
DCIMVAC, PowerPC's dcbi); the paper extends this family with a
*multi-cacheline* invalidate that drops lines from the private dcache and
MLC without any writeback (§V-D), gated by the Invalidatable PTE bit.

:class:`MaintenanceUnit` is the per-core execution facade the software
stack calls.  It charges a small per-line cost (the instruction retires
like a store) and enforces the PTE permission check.
"""

from __future__ import annotations

from typing import Optional

from ..mem.hierarchy import MemoryHierarchy
from ..mem.line import lines_spanning
from ..mem.transaction import INVALIDATE, MemoryTransaction
from ..sim import units
from .pagetable import PageTable


class MaintenanceUnit:
    """Executes cache-maintenance operations for one core."""

    #: Per-line issue cost of the invalidate instruction (~1 cycle at 3 GHz;
    #: the operation carries no data so it retires quickly).
    INVALIDATE_LINE_COST = units.cycles(1)

    def __init__(
        self,
        core: int,
        hierarchy: MemoryHierarchy,
        page_table: Optional[PageTable] = None,
        scope: str = "all",
    ) -> None:
        self.core = core
        self.hierarchy = hierarchy
        self.page_table = page_table
        self.scope = scope
        self.invalidated_lines = 0
        # Scratch transaction for the invalidate loop (IDIO issues one
        # invalidate per consumed buffer line), re-initialized per line;
        # an observed hierarchy publishes a copy, never this object.
        self._scratch_txn = MemoryTransaction(INVALIDATE, 0, 0, core=core)

    def invalidate_range(self, base: int, num_bytes: int, now: int) -> int:
        """Invalidate-without-writeback over ``[base, base+num_bytes)``.

        Returns the instruction cost in ticks.  Raises
        :class:`~repro.cpu.pagetable.InvalidatePermissionError` when the
        page table is attached and any page lacks the Invalidatable bit.
        """
        page_table = self.page_table
        lines = 0
        run = self.hierarchy._run_invalidate
        txn = self._scratch_txn
        txn.now = now
        txn.scope = self.scope
        for addr in lines_spanning(base, num_bytes):
            if page_table is not None:
                page_table.check_invalidate(addr)
            txn.addr = addr
            run(txn)
            lines += 1
        self.invalidated_lines += lines
        return lines * self.INVALIDATE_LINE_COST
