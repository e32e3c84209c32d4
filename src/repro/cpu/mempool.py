"""A DPDK-style buffer pool (mempool) for the re-allocate recycling mode.

In the re-allocate mode (§II-B, M2) the driver replenishes the RX ring
with *different* DMA buffers drawn from a pool, stashing the filled ones
for deferred processing.  The pool models rte_mempool at the granularity
the simulation needs: a free list of fixed-stride buffer addresses.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List


class BufferPoolExhausted(RuntimeError):
    """Raised when an allocation is requested from an empty pool."""


class BufferPool:
    """A LIFO free list of fixed-size DMA buffers.

    LIFO (like rte_mempool's per-core cache) maximizes the chance that a
    recycled buffer is still cache-resident when reused.
    """

    def __init__(self, base: int, stride: int, count: int) -> None:
        if stride <= 0 or count <= 0:
            raise ValueError("stride and count must be positive")
        self.base = base
        self.stride = stride
        self.count = count
        self._free: Deque[int] = deque(
            base + i * stride for i in range(count)
        )
        self.allocations = 0
        self.frees = 0

    def __len__(self) -> int:
        return len(self._free)

    def alloc(self) -> int:
        """Take a buffer address from the pool."""
        if not self._free:
            raise BufferPoolExhausted(
                f"pool of {self.count} buffers exhausted"
            )
        self.allocations += 1
        return self._free.pop()

    def reserve(self, addr: int) -> None:
        """Mark a specific buffer as allocated (ring setup time).

        Used when the RX ring's initial buffers are carved out of the
        pool's address range; O(n), called only during initialization.
        """
        try:
            self._free.remove(addr)
        except ValueError:
            raise ValueError(f"address {addr:#x} is not free in this pool") from None
        self.allocations += 1

    def free(self, addr: int) -> None:
        """Return a buffer address to the pool."""
        if not self.base <= addr < self.base + self.count * self.stride:
            raise ValueError(f"address {addr:#x} does not belong to this pool")
        if (addr - self.base) % self.stride:
            raise ValueError(f"address {addr:#x} is not stride-aligned")
        self.frees += 1
        self._free.append(addr)

    def addresses(self) -> List[int]:
        """All buffer addresses the pool manages (free or not)."""
        return [self.base + i * self.stride for i in range(self.count)]
