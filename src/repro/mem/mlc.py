"""Private per-core caches (L1 data cache and mid-level cache).

Both levels are plain set-associative caches owned by one core; the
interesting policy lives in :mod:`repro.mem.hierarchy`, which decides what
happens to victims (non-inclusive victim fill into the LLC, writeback,
silent drop ...).
"""

from __future__ import annotations

from typing import Optional

from .cache import CacheConfig, SetAssociativeCache
from .line import CacheLine
from .stats import StatsBundle


class PrivateCache:
    """A private cache level (L1D or MLC) belonging to ``core``."""

    def __init__(self, config: CacheConfig, core: int, stats: StatsBundle) -> None:
        self.config = config
        self.core = core
        self.stats = stats
        self.data = SetAssociativeCache(config)
        # The eviction counter name is fixed for the cache's lifetime and
        # the bump is unlogged: pre-format the name once and hit the
        # shared counter dict directly (one fill = at most one increment).
        self._evict_counter = f"{config.name}_evictions"
        self._counter_values = stats._counter_values

    def __contains__(self, addr: int) -> bool:
        return addr in self.data

    def __len__(self) -> int:
        return len(self.data)

    def peek(self, addr: int) -> Optional[CacheLine]:
        return self.data.peek(addr)

    def lookup(self, addr: int) -> Optional[CacheLine]:
        return self.data.lookup(addr)

    def fill(self, line: CacheLine, now: int) -> Optional[CacheLine]:
        """Insert a line; returns the evicted victim, if any."""
        line.owner = self.core
        victim = self.data.insert(line)
        if victim is not None:
            self._counter_values[self._evict_counter] += 1
        return victim

    def remove(self, addr: int) -> Optional[CacheLine]:
        return self.data.remove(addr)
