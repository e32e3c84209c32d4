"""Generic set-associative cache with way masks.

This is the building block for both the private MLC and the shared LLC.
Way masks are how the two partitioning features of the paper are modeled:

* DDIO write-allocates may only land in the first ``ddio_ways`` ways of the
  LLC (the "DDIO ways" of Fig. 1);
* CAT-style partitioning restricts a core's fills to a subset of ways
  (the ``_1way`` configurations of Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .line import LINE_SIZE, CacheLine, line_address
from .replacement import LRUPolicy, ReplacementPolicy, make_policy

_LINE_MASK = ~(LINE_SIZE - 1)


@dataclass(frozen=True, slots=True)
class CacheConfig:
    """Geometry and timing of one cache level.

    ``latency`` is in simulator ticks and charged per access by the caller
    (the hierarchy), not inside the cache container itself.
    """

    name: str
    size_bytes: int
    assoc: int
    latency: int
    mshrs: int = 32
    replacement: str = "lru"
    line_size: int = LINE_SIZE

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.assoc * self.line_size)
        if sets <= 0:
            raise ValueError(f"{self.name}: size too small for geometry")
        return sets

    def validate(self) -> None:
        if self.line_size <= 0 or self.line_size & (self.line_size - 1):
            raise ValueError(f"{self.name}: line size {self.line_size} not a power of two")
        if self.size_bytes % (self.assoc * self.line_size):
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"assoc*line_size ({self.assoc}*{self.line_size})"
            )
        if self.assoc <= 0:
            raise ValueError(f"{self.name}: associativity must be positive")


class SetAssociativeCache:
    """A set-associative cache storing :class:`CacheLine` objects.

    Lookup/insert/remove are O(assoc).  The container holds no timing; it
    is pure state plus replacement bookkeeping.
    """

    __slots__ = (
        "config",
        "num_sets",
        "assoc",
        "_sets",
        "_where",
        "policy",
        "_all_ways",
        "_mask_cache",
        "_line_shift",
        "_lru_rows",
    )

    def __init__(self, config: CacheConfig) -> None:
        config.validate()
        self.config = config
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        self._sets: List[List[Optional[CacheLine]]] = [
            [None] * self.assoc for _ in range(self.num_sets)
        ]
        #: Line address -> way (the set is recomputed from the address):
        #: one small int per line, nothing for the cyclic GC to walk.
        self._where: Dict[int, int] = {}
        self.policy: ReplacementPolicy = make_policy(
            config.replacement, self.num_sets, self.assoc
        )
        self._all_ways: Tuple[int, ...] = tuple(range(self.assoc))
        #: Validated way masks keyed by their tuple form (masks repeat:
        #: the DDIO ways, the CPU fill order, per-core CAT masks).
        self._mask_cache: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        # The set index is the line number modulo the set count, which
        # need not be a power of two (a 4.5 MB 12-way LLC has 6144 sets).
        self._line_shift = config.line_size.bit_length() - 1
        # Fast-path recency: for the exact default LRU policy the cache
        # bumps the policy's per-set tick rows directly, fusing the
        # free-way scan and the victim scan into one pass over the set.
        # Any other policy (plru, random, the reference LRU)
        # goes through the generic on_access/victim protocol.
        self._lru_rows: Optional[List[List[int]]] = (
            self.policy._last_use if type(self.policy) is LRUPolicy else None
        )

    # -- addressing ---------------------------------------------------

    def set_index(self, addr: int) -> int:
        return (addr >> self._line_shift) % self.num_sets

    def _validated_mask(self, key: Tuple[int, ...]) -> Tuple[int, ...]:
        if not key:
            raise ValueError(f"{self.config.name}: empty way mask")
        for w in key:
            if w < 0 or w >= self.assoc:
                raise ValueError(
                    f"{self.config.name}: way {w} outside 0..{self.assoc - 1}"
                )
        self._mask_cache[key] = key
        return key

    # -- queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, addr: int) -> bool:
        return line_address(addr) in self._where

    def location(self, addr: int) -> Optional[Tuple[int, int]]:
        """``(set, way)`` of the resident line at ``addr``, or ``None``."""
        addr = line_address(addr)
        way = self._where.get(addr)
        return None if way is None else (self.set_index(addr), way)

    def peek(self, addr: int) -> Optional[CacheLine]:
        """Return the resident line without touching recency state."""
        addr = line_address(addr)
        way = self._where.get(addr)
        if way is None:
            return None
        return self._sets[self.set_index(addr)][way]

    def lookup(self, addr: int) -> Optional[CacheLine]:
        """Return the resident line and update recency (a cache hit)."""
        addr &= _LINE_MASK
        way = self._where.get(addr)
        if way is None:
            return None
        set_idx = (addr >> self._line_shift) % self.num_sets
        rows = self._lru_rows
        if rows is not None:
            policy = self.policy
            tick = policy._tick + 1
            policy._tick = tick
            rows[set_idx][way] = tick
        else:
            self.policy.on_access(set_idx, way)
        return self._sets[set_idx][way]

    def lines(self) -> Iterator[CacheLine]:
        """Iterate over all resident lines (test/diagnostic use)."""
        for cache_set in self._sets:
            for entry in cache_set:
                if entry is not None:
                    yield entry

    # -- mutation -----------------------------------------------------

    def insert(
        self,
        line: CacheLine,
        way_mask: Optional[Sequence[int]] = None,
    ) -> Optional[CacheLine]:
        """Insert ``line``; return the evicted victim line, if any.

        ``way_mask`` restricts which ways the fill may use (and therefore
        which resident lines may be evicted).  If the line is already
        resident this degenerates to an in-place update (dirty OR-ed in,
        recency touched) and returns ``None``.
        """
        addr = line.addr
        where = self._where
        set_idx = (addr >> self._line_shift) % self.num_sets
        way = where.get(addr)
        rows = self._lru_rows
        if way is not None:
            resident = self._sets[set_idx][way]
            assert resident is not None
            resident.dirty = resident.dirty or line.dirty
            resident.origin = line.origin
            resident.owner = line.owner
            if rows is not None:
                policy = self.policy
                tick = policy._tick + 1
                policy._tick = tick
                rows[set_idx][way] = tick
            else:
                self.policy.on_access(set_idx, way)
            return None

        if way_mask is None:
            ways: Tuple[int, ...] = self._all_ways
        else:
            key = tuple(way_mask)
            ways = self._mask_cache.get(key) or self._validated_mask(key)

        cache_set = self._sets[set_idx]
        victim: Optional[CacheLine] = None

        if rows is not None:
            # Fused scan: one pass finds the first free way *and* tracks
            # the LRU victim among occupied ways, so a full set costs one
            # traversal instead of free-scan + policy.victim + bookkeeping
            # calls.  Tie-break (first eligible among never-touched ways)
            # matches LRUPolicy.victim exactly.
            row = rows[set_idx]
            target_way = -1
            best_way = -1
            best_tick = -1
            for w in ways:
                if cache_set[w] is None:
                    target_way = w
                    break
                t = row[w]
                if best_tick < 0 or t < best_tick:
                    best_way = w
                    best_tick = t
            if target_way < 0:
                target_way = best_way
                victim = cache_set[target_way]
                del where[victim.addr]
            policy = self.policy
            tick = policy._tick + 1
            policy._tick = tick
            cache_set[target_way] = line
            where[addr] = target_way
            row[target_way] = tick
            return victim

        target_way = -1
        for w in ways:
            if cache_set[w] is None:
                target_way = w
                break
        if target_way < 0:
            target_way = self.policy.victim(set_idx, ways)
            victim = cache_set[target_way]
            del where[victim.addr]
            self.policy.on_evict(set_idx, target_way)

        cache_set[target_way] = line
        where[addr] = target_way
        self.policy.on_access(set_idx, target_way)
        return victim

    def remove(self, addr: int) -> Optional[CacheLine]:
        """Remove and return the line at ``addr`` (no writeback implied)."""
        addr = line_address(addr)
        way = self._where.pop(addr, None)
        if way is None:
            return None
        set_idx = (addr >> self._line_shift) % self.num_sets
        line = self._sets[set_idx][way]
        self._sets[set_idx][way] = None
        self.policy.on_evict(set_idx, way)
        return line

    def clear(self) -> None:
        for set_idx in range(self.num_sets):
            self._sets[set_idx] = [None] * self.assoc
        self._where.clear()
