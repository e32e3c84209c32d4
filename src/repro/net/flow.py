"""Flow construction and flow-to-server steering.

Experiments pin one application instance per core; each instance receives
one (or several) 5-tuple flows.  ``make_flows`` builds deterministic,
distinct flows so Flow Director steering is reproducible across runs.

The rack tier (``repro.rack``) raises the stakes: a ToR switch tracks
*millions* of concurrent flows and steers each one to a server.  Two
pieces here serve that regime:

* ``make_flow`` uses a lane/slot encoding so 5-tuples stay *valid*
  (ports within 16 bits) and *unique* out to ~2.8 billion flows — the
  naive ``base + index`` scheme silently overflowed the port fields past
  index ~45k;
* :class:`FlowSteering` maps flows to servers either RSS-style (a
  power-of-two indirection table indexed by the Toeplitz-like 5-tuple
  hash) or by rendezvous (highest-random-weight) consistent hashing,
  which keeps remapping minimal when a server leaves the rack.
"""

from __future__ import annotations

from typing import List, Sequence

from .packet import FiveTuple

#: Flow indices per source-IP lane.  ``src_port`` spans
#: ``[10_000, 55_000)`` and ``dst_port`` spans ``[20_000, 65_000)``, both
#: comfortably inside the 16-bit port space; indices below one span
#: reproduce the historical single-lane encoding exactly.
FLOW_LANE_SPAN = 45_000

#: Lanes available before ``src_ip`` would leave the 32-bit address
#: space (lane is encoded in bits 16+ above the ``10.0.0.1`` base).
_MAX_LANES = (0xFFFF_FFFF - 0x0A00_0001) >> 16

#: Hard ceiling on ``make_flow`` indices (~2.8 billion distinct flows).
MAX_FLOWS = _MAX_LANES * FLOW_LANE_SPAN


def make_flow(index: int, app_class: int = 0) -> FiveTuple:
    """A deterministic distinct flow for flow ``index``.

    The index is split into ``(lane, slot)`` with ``slot < FLOW_LANE_SPAN``:
    the slot offsets the ports and the low IP bits, the lane offsets the
    IP's third octet and up.  The mapping is injective (``src_ip`` alone
    recovers the index), so any two distinct indices below
    :data:`MAX_FLOWS` produce distinct — and valid — 5-tuples.
    """
    if index < 0:
        raise ValueError(f"flow index must be non-negative, got {index}")
    if index >= MAX_FLOWS:
        raise ValueError(f"flow index {index} exceeds MAX_FLOWS ({MAX_FLOWS})")
    lane, slot = divmod(index, FLOW_LANE_SPAN)
    lane_base = lane << 16
    return FiveTuple(
        src_ip=0x0A00_0001 + lane_base + slot,
        dst_ip=0x0A00_1001 + lane_base + slot,
        src_port=10_000 + slot,
        dst_port=20_000 + slot,
    )


def make_flows(count: int) -> List[FiveTuple]:
    """``count`` deterministic distinct flows."""
    return [make_flow(i) for i in range(count)]


def make_tenant_flow(tenant: int, slot: int) -> FiveTuple:
    """A deterministic flow tagged with a tenant id.

    Tenant tagging reuses the lane/slot encoding of :func:`make_flow`:
    the *lane* is the tenant id and the *slot* indexes the tenant's flow
    population, so a tenant-tagged flow is indistinguishable from any
    other ``make_flow`` product on the wire but carries its owner in the
    IP's upper bits.  :func:`flow_tenant` recovers the tag.
    """
    if tenant < 0:
        raise ValueError(f"tenant id must be non-negative, got {tenant}")
    if slot < 0 or slot >= FLOW_LANE_SPAN:
        raise ValueError(
            f"tenant flow slot must be in [0, {FLOW_LANE_SPAN}), got {slot}"
        )
    return make_flow(tenant * FLOW_LANE_SPAN + slot)


def flow_tenant(flow: FiveTuple) -> int:
    """The tenant id (lane) encoded in a :func:`make_tenant_flow` flow.

    Only meaningful for flows produced by the ``make_flow`` family: the
    lane bits of ``src_ip`` *are* the tenant id under tenant tagging.
    Untenanted single-server flows all decode to tenant 0.
    """
    return (flow.src_ip - 0x0A00_0001) >> 16


def flow_key(flow: FiveTuple) -> int:
    """The 5-tuple packed into one integer (a stable steering key)."""
    return (
        (flow.src_ip << 72)
        | (flow.dst_ip << 40)
        | (flow.src_port << 24)
        | (flow.dst_port << 8)
        | flow.protocol
    )


def _mix64(value: int) -> int:
    """SplitMix64 finalizer: a deterministic 64-bit avalanche mix."""
    value &= 0xFFFF_FFFF_FFFF_FFFF
    value = (value ^ (value >> 30)) * 0xBF58_476D_1CE4_E5B9 & 0xFFFF_FFFF_FFFF_FFFF
    value = (value ^ (value >> 27)) * 0x94D0_49BB_1331_11EB & 0xFFFF_FFFF_FFFF_FFFF
    return value ^ (value >> 31)


#: Steering modes understood by :class:`FlowSteering`.
STEERING_MODES = ("rss", "rendezvous")


class FlowSteering:
    """Deterministic flow-to-server steering for a rack's ToR switch.

    ``rss`` models the receive-side-scaling shape real ToR load balancers
    and NICs share: the flow hash indexes a ``2**table_bits``-entry
    indirection table whose entries name servers round-robin.  Constant
    time per flow and near-uniform at scale, but resizing the rack
    rewrites the whole table.

    ``rendezvous`` is highest-random-weight consistent hashing: each flow
    goes to the server maximizing ``mix(flow_key, server, seed)``.
    O(num_servers) per lookup, but removing a server remaps only the
    flows that server owned — the property rack-scale draining relies on.
    """

    __slots__ = ("num_servers", "mode", "table_bits", "seed", "_table")

    def __init__(
        self,
        num_servers: int,
        mode: str = "rss",
        table_bits: int = 17,
        seed: int = 0,
    ) -> None:
        if num_servers <= 0:
            raise ValueError(f"num_servers must be positive, got {num_servers}")
        if mode not in STEERING_MODES:
            raise ValueError(
                f"unknown steering mode {mode!r}; choose from {STEERING_MODES}"
            )
        if not 1 <= table_bits <= 24:
            raise ValueError(f"table_bits must be in [1, 24], got {table_bits}")
        self.num_servers = num_servers
        self.mode = mode
        self.table_bits = table_bits
        self.seed = seed
        self._table: List[int] = []
        if mode == "rss":
            # Round-robin fill starting at a seed-derived offset: the
            # indirection table is maximally balanced (entry counts per
            # server differ by at most one) and still seed-diverse.
            offset = _mix64(seed) % num_servers
            size = 1 << table_bits
            self._table = [(offset + i) % num_servers for i in range(size)]

    def server_for(self, flow: FiveTuple) -> int:
        """The server index (``0..num_servers-1``) this flow steers to."""
        if self.mode == "rss":
            return self._table[flow.hash_value(self.table_bits)]
        key = flow_key(flow)
        best_server = 0
        best_weight = -1
        for server in range(self.num_servers):
            weight = _mix64(key ^ _mix64((self.seed << 20) | server))
            if weight > best_weight:
                best_weight = weight
                best_server = server
        return best_server

    def assignment_counts(self, flows: Sequence[FiveTuple]) -> List[int]:
        """Flows per server without materializing the partition."""
        counts = [0] * self.num_servers
        for flow in flows:
            counts[self.server_for(flow)] += 1
        return counts

    def digest(self) -> int:
        """A deterministic fingerprint of the steering configuration.

        Built purely from integer mixing (never ``hash()``, which is
        salted per process) so the digest is stable across processes —
        it participates in the rack fingerprint.
        """
        mode_code = STEERING_MODES.index(self.mode)
        digest = _mix64(0x9E37_79B9)
        for part in (mode_code, self.num_servers, self.table_bits, self.seed):
            digest = _mix64(digest ^ _mix64(part))
        return digest
