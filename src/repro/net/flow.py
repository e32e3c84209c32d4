"""Flow construction.

Experiments pin one application instance per core; each instance receives
one (or several) 5-tuple flows.  ``make_flow`` builds deterministic,
distinct flows so Flow Director steering is reproducible across runs, and
its lane/slot encoding keeps 5-tuples *valid* (ports within 16 bits) and
*unique* out to ~2.8 billion flows — the naive ``base + index`` scheme
silently overflowed the port fields past index ~45k.  Tenant tagging
(``make_tenant_flow``) reuses the lane as the tenant id.
"""

from __future__ import annotations

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


def _mix64(value: int) -> int:
    """SplitMix64 finalizer: a deterministic 64-bit avalanche mix."""
    value &= 0xFFFF_FFFF_FFFF_FFFF
    value = (value ^ (value >> 30)) * 0xBF58_476D_1CE4_E5B9 & 0xFFFF_FFFF_FFFF_FFFF
    value = (value ^ (value >> 27)) * 0x94D0_49BB_1331_11EB & 0xFFFF_FFFF_FFFF_FFFF
    return value ^ (value >> 31)
