"""Generic set-associative cache with way masks.

This is the building block for both the private MLC and the shared LLC.
Way masks are how the two partitioning features of the paper are modeled:

* DDIO write-allocates may only land in the first ``ddio_ways`` ways of the
  LLC (the "DDIO ways" of Fig. 1);
* CAT-style partitioning restricts a core's fills to a subset of ways
  (the ``_1way`` configurations of Fig. 4).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .line import _LINE_MASK, _LINE_SHIFT, LINE_SIZE, CacheLine, line_address


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

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * LINE_SIZE)

    def validate(self) -> None:
        if self.assoc <= 0:
            raise ValueError(
                f"{self.name}: associativity must be positive, got {self.assoc}"
            )
        if self.size_bytes <= 0 or self.size_bytes % (self.assoc * LINE_SIZE):
            raise ValueError(
                f"{self.name}: size {self.size_bytes} B is not a positive "
                f"multiple of {self.assoc} ways x {LINE_SIZE} B lines"
            )


class SetAssociativeCache:
    """A true-LRU set-associative cache storing :class:`CacheLine` objects.

    Lookup/insert/remove are O(assoc).  The container holds no timing; it
    is pure state plus recency bookkeeping: a cache-wide access counter
    stamps the touched way in its set's row of ``_last_use`` (0 marks an
    empty way), and a fill into a full set evicts the allowed way with
    the smallest stamp.
    """

    __slots__ = (
        "config",
        "num_sets",
        "assoc",
        "_sets",
        "_where",
        "_last_use",
        "_tick",
    )

    def __init__(self, config: CacheConfig) -> None:
        config.validate()
        self.config = config
        # The set index is the line number modulo the set count, which
        # need not be a power of two (a 4.5 MB 12-way LLC has 6144 sets).
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        self._sets: List[List[Optional[CacheLine]]] = [
            [None] * self.assoc for _ in range(self.num_sets)
        ]
        #: Line address -> way (the set is recomputed from the address):
        #: one small int per line, nothing for the cyclic GC to walk.
        self._where: Dict[int, int] = {}
        #: Per-set recency stamps, one per way (0 = empty).
        self._last_use: List[List[int]] = [
            [0] * self.assoc for _ in range(self.num_sets)
        ]
        self._tick = 0

    # -- addressing ---------------------------------------------------

    def set_index(self, addr: int) -> int:
        return (addr >> _LINE_SHIFT) % self.num_sets

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
        set_idx = (addr >> _LINE_SHIFT) % self.num_sets
        tick = self._tick + 1
        self._tick = tick
        self._last_use[set_idx][way] = tick
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

        ``way_mask`` lists the ways the fill may use, in the order free
        ways are preferred, and therefore which resident lines may be
        evicted.  The caller owns its validity: the LLC's way-mask
        setters check each mask once, when it is installed.  If the line
        is already resident this degenerates to an in-place update (dirty
        OR-ed in, recency touched) and returns ``None``.
        """
        addr = line.addr
        where = self._where
        set_idx = (addr >> _LINE_SHIFT) % self.num_sets
        way = where.get(addr)
        row = self._last_use[set_idx]
        tick = self._tick + 1
        self._tick = tick
        if way is not None:
            resident = self._sets[set_idx][way]
            assert resident is not None
            resident.dirty = resident.dirty or line.dirty
            resident.origin = line.origin
            resident.owner = line.owner
            row[way] = tick
            return None

        # An empty way's stamp is 0 and occupied ways' stamps are distinct
        # positive ticks, so the first minimum in mask order is the first
        # free way, or else the least recently used way.  When the mask
        # lists every way and none is free, its order cannot matter.
        if way_mask is None or (len(way_mask) == self.assoc and 0 not in row):
            target_way = row.index(min(row))
        else:
            target_way = min(way_mask, key=row.__getitem__)
        cache_set = self._sets[set_idx]
        victim = cache_set[target_way]
        if victim is not None:
            del where[victim.addr]
        cache_set[target_way] = line
        where[addr] = target_way
        row[target_way] = tick
        return victim

    def remove(self, addr: int) -> Optional[CacheLine]:
        """Remove and return the line at ``addr`` (no writeback implied)."""
        addr = line_address(addr)
        way = self._where.pop(addr, None)
        if way is None:
            return None
        set_idx = (addr >> _LINE_SHIFT) % self.num_sets
        line = self._sets[set_idx][way]
        self._sets[set_idx][way] = None
        self._last_use[set_idx][way] = 0
        return line

    def dump_state(self) -> bytes:
        """The cache's contents and recency state as bytes.

        Each way is ``None`` or an ``(addr, dirty, origin, owner)``
        tuple, set by set; ``_where``, ``_last_use`` and ``_tick`` follow
        as they are.  No :class:`CacheLine` object is kept, so the bytes
        pin nothing of this cache.
        """
        ways = [
            None if line is None else (line.addr, line.dirty, line.origin, line.owner)
            for cache_set in self._sets
            for line in cache_set
        ]
        return pickle.dumps(
            (ways, self._where, self._last_use, self._tick),
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def load_state(self, state: bytes) -> None:
        """Replace every line and recency stamp with a :meth:`dump_state`
        of a cache of the same geometry, rebuilt as fresh lines."""
        ways, where, last_use, tick = pickle.loads(state)
        lines = [None if way is None else CacheLine(*way) for way in ways]
        assoc = self.assoc
        self._sets = [lines[i : i + assoc] for i in range(0, len(lines), assoc)]
        self._where = where
        self._last_use = last_use
        self._tick = tick

    def clear(self) -> None:
        for set_idx in range(self.num_sets):
            self._sets[set_idx] = [None] * self.assoc
            self._last_use[set_idx] = [0] * self.assoc
        self._where.clear()
