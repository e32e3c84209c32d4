"""Shared non-inclusive LLC with DDIO way partition and snoop-filter directory.

This models the Skylake-style LLC of Fig. 1:

* data ways (``assoc`` total) of which the first ``ddio_ways`` are the only
  ways a DDIO write-allocate may fill ("DDIO" ways);
* a snoop-filter directory ("Excl MLC" in the figure) holding the tags of
  lines currently resident in some private MLC, used to filter coherence
  traffic.  It is provisioned to cover every MLC, as on real parts, so it
  never evicts.

Inclusive mode (``inclusive=True``) is provided as a counterfactual used by
the ablation benchmarks: in inclusive mode the LLC keeps a copy of every
MLC-resident line and MLC evictions of clean lines need no LLC fill.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from .cache import CacheConfig, SetAssociativeCache
from .line import _LINE_MASK, CacheLine, line_address
from .stats import StatsBundle


def owner_cores(mask: int) -> List[int]:
    """The cores whose bits are set in an owner ``mask``, ascending."""
    cores = []
    while mask:
        low = mask & -mask
        cores.append(low.bit_length() - 1)
        mask ^= low
    return cores


class SnoopFilterDirectory:
    """Tag directory of MLC-resident lines.

    Each tracked line maps to an owner bitmask, the presence vector of a
    hardware snoop filter: bit ``c`` is set while core ``c``'s MLC holds
    the line.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, addr: int) -> bool:
        return line_address(addr) in self._entries

    def owners(self, addr: int) -> Set[int]:
        return set(owner_cores(self.get(addr)))

    def get(self, addr: int) -> int:
        """The owner bitmask of ``addr`` (0 when untracked)."""
        return self._entries.get(addr & _LINE_MASK, 0)

    def add(self, addr: int, core: int) -> None:
        """Track line address ``addr`` as resident in ``core``'s MLC.

        ``addr`` is stored as given, so callers pass the line address
        their caches already key on.
        """
        entries = self._entries
        entries[addr] = entries.get(addr, 0) | (1 << core)

    def remove(self, addr: int, core: Optional[int] = None) -> None:
        """Drop ``core``'s residency (or the whole entry when ``core=None``)."""
        addr = addr & _LINE_MASK
        if core is None:
            self._entries.pop(addr, None)
            return
        mask = self._entries.get(addr, 0) & ~(1 << core)
        if mask:
            self._entries[addr] = mask
        else:
            self._entries.pop(addr, None)


def _cpu_fill_order(ddio_ways: int, assoc: int) -> Tuple[int, ...]:
    """Every way, the non-DDIO ("Excl LLC") ones first."""
    return tuple(range(ddio_ways, assoc)) + tuple(range(ddio_ways))


class NonInclusiveLLC:
    """The shared LLC: data array + directory + way-partition bookkeeping."""

    def __init__(
        self,
        config: CacheConfig,
        stats: StatsBundle,
        ddio_ways: int = 2,
        inclusive: bool = False,
        slices: int = 0,
        hop_latency: int = 0,
    ) -> None:
        """``slices > 0`` enables the NUCA model: the LLC is distributed
        as one slice per position on a ring, a line's home slice is an
        address hash, and an access from core ``c`` pays ``hop_latency``
        per ring hop to the line's slice.  Slice assignment affects only
        latency, never placement capacity (real slices are separate
        arrays; our monolithic array approximates the aggregate, which is
        exact for the uniform hash)."""
        if not 0 < ddio_ways <= config.assoc:
            raise ValueError(
                f"ddio_ways must be in 1..{config.assoc}, got {ddio_ways}"
            )
        if slices < 0:
            raise ValueError(f"slices must be non-negative, got {slices}")
        self.config = config
        self.stats = stats
        # Eviction counting is one unlogged increment per fill victim;
        # the shared counter dict is hit directly (see StatsBundle.bump).
        self._counter_values = stats._counter_values
        self.data = SetAssociativeCache(config)
        self.directory = SnoopFilterDirectory()
        self.ddio_ways = ddio_ways
        self.inclusive = inclusive
        self.slices = slices
        self.hop_latency = hop_latency
        #: CacheDirector-style per-line home-slice overrides.
        self._slice_override: Dict[int, int] = {}
        # Way masks are validated tuples, built when they are installed
        # and handed to every fill as they are.
        self._io_mask: Tuple[int, ...] = tuple(range(ddio_ways))
        # CPU fills may use any way, but prefer the non-DDIO ("Excl LLC")
        # ways: empty-slot scans follow this order, so CPU data only
        # spills into the DDIO ways when the rest of the set is full.
        # (DMA bloating still happens — a full set's LRU victim can be
        # anywhere — but CPU lines do not gratuitously park in the ways
        # the next DMA write-allocate will reclaim.)
        self._cpu_fill_order = _cpu_fill_order(ddio_ways, config.assoc)
        #: per-core CAT masks; a core absent from this map fills in the
        #: CPU fill order.
        self._core_masks: Dict[int, Tuple[int, ...]] = {}
        #: per-tenant I/O way masks (IOCA-style partitioning); a tenant
        #: absent from this map falls back to the shared DDIO partition.
        self._tenant_io_masks: Dict[int, Tuple[int, ...]] = {}

    # -- configuration -------------------------------------------------

    def set_ddio_ways(self, ddio_ways: int) -> None:
        """Reconfigure the number of DDIO ways at runtime.

        This is the knob IAT-style dynamic DDIO policies turn (the paper's
        related work [41]): growing the partition gives inbound DMA more
        LLC room, shrinking it protects application data.  Lines already
        resident outside the new partition stay where they are (as on real
        hardware, where way masks only gate *future* allocations).
        """
        if not 0 < ddio_ways <= self.config.assoc:
            raise ValueError(
                f"ddio_ways must be in 1..{self.config.assoc}, got {ddio_ways}"
            )
        self.ddio_ways = ddio_ways
        self._io_mask = tuple(range(ddio_ways))
        self._cpu_fill_order = _cpu_fill_order(ddio_ways, self.config.assoc)

    def set_core_way_mask(self, core: int, ways: Sequence[int]) -> None:
        """CAT-style restriction of a core's LLC fills to ``ways``.

        Used by the ``_1way`` configurations of Fig. 4.
        """
        mask = tuple(sorted(set(ways)))
        if not mask:
            raise ValueError("way mask must not be empty")
        for w in mask:
            if w < 0 or w >= self.config.assoc:
                raise ValueError(f"way {w} outside the LLC's {self.config.assoc} ways")
        self._core_masks[core] = mask

    def set_tenant_io_ways(self, tenant: int, ways: Sequence[int]) -> None:
        """Restrict ``tenant``'s DMA write-allocates to ``ways``.

        The IOCA-style partitioning knob: each tenant's inbound DMA fills
        only its own slice of the DDIO partition, so one tenant's burst
        cannot evict another's I/O lines.  Like :meth:`set_ddio_ways`,
        masks gate only *future* allocations — resident lines stay put.
        Ways must lie inside the DDIO partition.
        """
        if tenant < 0:
            raise ValueError(f"tenant must be non-negative, got {tenant}")
        mask = tuple(sorted(set(ways)))
        if not mask:
            raise ValueError("tenant way mask must not be empty")
        for w in mask:
            if w < 0 or w >= self.ddio_ways:
                raise ValueError(
                    f"tenant way {w} outside the {self.ddio_ways}-way DDIO partition"
                )
        self._tenant_io_masks[tenant] = mask

    def tenant_way_table(self) -> Dict[int, List[int]]:
        """A copy of the per-tenant I/O way masks (sanitizer/summary hook)."""
        return {t: list(ways) for t, ways in self._tenant_io_masks.items()}

    # -- NUCA slice model -----------------------------------------------

    def slice_of(self, addr: int) -> int:
        """Home slice of a line: override if present, else address hash.

        The hash folds the line number's bits, approximating the Intel
        CBo slice-selection hash's uniform spread.
        """
        if self.slices <= 0:
            return 0
        addr = line_address(addr)
        override = self._slice_override.get(addr)
        if override is not None:
            return override
        h = addr >> 6
        h = (h ^ (h >> 7) ^ (h >> 13) ^ (h >> 21)) * 0x9E3779B1
        return (h >> 8) % self.slices

    def set_slice_override(self, addr: int, target_slice: int) -> None:
        """Pin a line's home slice (CacheDirector-style steering)."""
        if self.slices <= 0:
            raise ValueError("slice override requires a sliced LLC")
        if not 0 <= target_slice < self.slices:
            raise ValueError(f"slice {target_slice} outside 0..{self.slices - 1}")
        self._slice_override[line_address(addr)] = target_slice

    def home_slice_of_core(self, core: int) -> int:
        """The slice co-located with ``core`` on the ring."""
        if self.slices <= 0:
            return 0
        return core % self.slices

    def access_latency(self, core: int, addr: int) -> int:
        """Latency of an access from ``core`` to ``addr``'s home slice."""
        if self.slices <= 0:
            return self.config.latency
        src = self.home_slice_of_core(core)
        dst = self.slice_of(addr)
        hops = min((dst - src) % self.slices, (src - dst) % self.slices)
        return self.config.latency + hops * self.hop_latency

    # -- queries --------------------------------------------------------

    def __contains__(self, addr: int) -> bool:
        return addr in self.data

    def peek(self, addr: int) -> Optional[CacheLine]:
        return self.data.peek(addr)

    def lookup(self, addr: int) -> Optional[CacheLine]:
        return self.data.lookup(addr)

    # -- fills ----------------------------------------------------------

    def fill_io(
        self, line: CacheLine, now: int, tenant: int = -1
    ) -> Optional[CacheLine]:
        """DDIO write-allocate into the DDIO ways; returns the victim.

        When ``tenant`` has a partition installed via
        :meth:`set_tenant_io_ways`, the fill is confined to that
        tenant's ways; otherwise it may use the whole DDIO partition.
        """
        line.origin = "io"
        if tenant >= 0 and self._tenant_io_masks:
            mask = self._tenant_io_masks.get(tenant, self._io_mask)
        else:
            mask = self._io_mask
        victim = self.data.insert(line, way_mask=mask)
        if victim is not None:
            self._counter_values["llc_evictions"] += 1
        return victim

    def fill_cpu(
        self, line: CacheLine, now: int, core: Optional[int] = None
    ) -> Optional[CacheLine]:
        """CPU-side fill (MLC victim or inclusive fill); any allowed way.

        This is the path that produces *DMA bloating*: an MLC writeback of a
        consumed DMA line lands in a non-DDIO way with origin ``cpu``.
        """
        victim = self.data.insert(
            line, way_mask=self._core_masks.get(core, self._cpu_fill_order)
        )
        if victim is not None:
            self._counter_values["llc_evictions"] += 1
        return victim

    def remove(self, addr: int) -> Optional[CacheLine]:
        return self.data.remove(addr)
