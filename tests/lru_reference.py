"""The reference LRU that the cache's fused victim scan must match.

:class:`ReferenceLRUPolicy` is the original dict + ``min()`` formulation
of true LRU.  Ties (never-touched ways) break toward the first eligible
way.  :class:`ReferenceLRUCache` pairs it with the plain fill protocol:
take the first free way in mask order, else evict the policy's victim.
``tests/test_mem_replacement_property.py`` drives
:class:`~repro.mem.cache.SetAssociativeCache` and this reference with
the same traces and requires the same victims throughout.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from repro.mem.line import LINE_SIZE


class ReferenceLRUPolicy:
    """Recency per ``(set, way)`` from one global access counter."""

    def __init__(self) -> None:
        self._tick = 0
        self._last_use: Dict[Tuple[int, int], int] = {}

    def on_access(self, set_idx: int, way: int) -> None:
        self._tick += 1
        self._last_use[(set_idx, way)] = self._tick

    def on_evict(self, set_idx: int, way: int) -> None:
        self._last_use.pop((set_idx, way), None)

    def victim(self, set_idx: int, eligible_ways: Sequence[int]) -> int:
        if not eligible_ways:
            raise ValueError("no eligible ways to evict")
        return min(eligible_ways, key=lambda w: self._last_use.get((set_idx, w), 0))


class ReferenceLRUCache:
    """A set-associative cache of line addresses over the reference policy."""

    def __init__(self, num_sets: int, assoc: int) -> None:
        self.num_sets = num_sets
        self.assoc = assoc
        self.policy = ReferenceLRUPolicy()
        self.sets: List[List[Optional[int]]] = [[None] * assoc for _ in range(num_sets)]
        self.where: Dict[int, int] = {}

    def set_index(self, addr: int) -> int:
        return (addr // LINE_SIZE) % self.num_sets

    def lookup(self, addr: int) -> bool:
        way = self.where.get(addr)
        if way is None:
            return False
        self.policy.on_access(self.set_index(addr), way)
        return True

    def insert(self, addr: int, way_mask: Optional[Sequence[int]] = None) -> Optional[int]:
        """Fill ``addr``; return the evicted line address, if any."""
        set_idx = self.set_index(addr)
        way = self.where.get(addr)
        if way is not None:
            self.policy.on_access(set_idx, way)
            return None
        ways = range(self.assoc) if way_mask is None else way_mask
        cache_set = self.sets[set_idx]
        evicted = None
        free = [w for w in ways if cache_set[w] is None]
        if free:
            way = free[0]
        else:
            way = self.policy.victim(set_idx, list(ways))
            evicted = cache_set[way]
            del self.where[evicted]
            self.policy.on_evict(set_idx, way)
        cache_set[way] = addr
        self.where[addr] = way
        self.policy.on_access(set_idx, way)
        return evicted

    def remove(self, addr: int) -> bool:
        way = self.where.pop(addr, None)
        if way is None:
            return False
        set_idx = self.set_index(addr)
        self.sets[set_idx][way] = None
        self.policy.on_evict(set_idx, way)
        return True
