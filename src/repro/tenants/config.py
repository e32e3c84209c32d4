"""Tenant configuration: who owns which flows, cores, and LLC ways.

A :class:`TenantConfig` binds one tenant's identity to its flow
population (lane/slot tagged through :func:`repro.net.flow.make_tenant_flow`),
its NF/app binding, its LLC I/O way quota, and a priority class the
partitioning controller weighs.  A :class:`TenantSet` groups the tenants
co-located on one server and rides on ``ServerConfig.tenants`` so the
whole arrangement is digest- and fingerprint-visible (SIM013).

Randomness discipline: every stochastic draw a tenant makes must come
from :func:`tenant_rng`, the per-tenant seeded stream, so adding or
reordering tenants never perturbs another tenant's arrivals (enforced by
simlint SIM016).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from typing import List, Tuple

from ..mem.line import LINE_SIZE
from ..net.flow import FLOW_LANE_SPAN, _mix64
from ..net.packet import MTU_FRAME_BYTES
from ..net.traffic import TRAFFIC_KINDS, TrafficProfile, make_profile
from ..sim import units

#: Priority classes the partitioning controller understands.  ``latency``
#: tenants get a weighting boost when ways are apportioned; ``bulk``
#: tenants yield first under pressure.
PRIORITY_CLASSES = ("latency", "normal", "bulk")

#: Scenario roles (used by the isolation matrix to pick the victim whose
#: p99 degradation is scored; ``workload`` tenants are neutral).
TENANT_ROLES = ("workload", "victim", "aggressor")

#: Traffic shapes a tenant's generators can follow: every kind whose
#: parameters a :class:`TenantConfig` carries (it has no diurnal swing,
#: and IMIX fixes its own frame sizes).
TENANT_TRAFFIC_KINDS = tuple(k for k in TRAFFIC_KINDS if k not in ("imix", "diurnal"))

#: Ceiling on co-located tenants: way masks and core blocks stay small.
MAX_TENANTS = 16


def tenant_rng(seed: int, tenant: int) -> random.Random:
    """The per-tenant RNG stream for ``tenant`` under sweep ``seed``.

    The stream is seeded with a SplitMix64 avalanche of
    ``((seed & 0xFFFFFFFF) << 24) ^ (tenant + 1)``: the sweep seed's low
    32 bits occupy the high bits and the tenant id perturbs the low bits,
    so streams are decorrelated across both axes and tenant ``k``'s draws
    never depend on how many tenants precede it.
    """
    return random.Random(_mix64(((seed & 0xFFFF_FFFF) << 24) ^ (tenant + 1)))


@dataclass(frozen=True, slots=True)
class TenantConfig:
    """One tenant's identity, traffic, NF binding, and LLC quota.

    ``tenant_id`` doubles as the flow lane (see
    :func:`repro.net.flow.make_tenant_flow`) and the index of the
    tenant's core block, so ids must be dense: ``TenantSet`` requires
    tenant ``i`` at position ``i``.
    """

    tenant_id: int
    name: str
    app: str = "touchdrop"
    #: NF cores dedicated to this tenant (assigned as one contiguous
    #: block, in tenant order, so DMA buffer ranges stay per-tenant).
    nf_cores: int = 1
    traffic: str = "steady"
    #: Per-core offered rate (steady/poisson/heavytail) or burst rate
    #: (bursty), in Gbps.
    rate_gbps: float = 10.0
    packets_per_burst: int = 64
    num_bursts: int = 2
    burst_period_us: float = 40.0
    heavy_tail_alpha: float = 1.5
    #: Guaranteed DDIO/LLC I/O ways under static partitioning; the floor
    #: (before priority weighting) under the dynamic IOCA-style policy.
    llc_way_quota: int = 1
    priority: str = "normal"
    role: str = "workload"
    #: Give this tenant a cache-thrashing LLCAntagonist core of its own.
    antagonist: bool = False
    antagonist_footprint_bytes: int = 4 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.tenant_id < 0:
            raise ValueError(f"tenant_id must be non-negative, got {self.tenant_id}")
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.nf_cores <= 0:
            raise ValueError(f"nf_cores must be positive, got {self.nf_cores}")
        if self.nf_cores > FLOW_LANE_SPAN:
            raise ValueError(
                f"tenant {self.tenant_id} needs {self.nf_cores} flow slots; "
                f"a lane holds {FLOW_LANE_SPAN}"
            )
        if self.traffic not in TENANT_TRAFFIC_KINDS:
            raise ValueError(
                f"unknown tenant traffic {self.traffic!r}; "
                f"choose from {TENANT_TRAFFIC_KINDS}"
            )
        self.traffic_profile(duration=0)  # rejects a bad traffic shape
        if self.llc_way_quota <= 0:
            raise ValueError(
                f"llc_way_quota must be positive, got {self.llc_way_quota}"
            )
        if self.priority not in PRIORITY_CLASSES:
            raise ValueError(
                f"unknown priority {self.priority!r}; choose from {PRIORITY_CLASSES}"
            )
        if self.role not in TENANT_ROLES:
            raise ValueError(
                f"unknown tenant role {self.role!r}; choose from {TENANT_ROLES}"
            )
        if self.antagonist_footprint_bytes < LINE_SIZE:
            raise ValueError(
                f"antagonist_footprint_bytes must be at least {LINE_SIZE} (one line), "
                f"got {self.antagonist_footprint_bytes}"
            )

    def traffic_profile(
        self, duration: int, start: int = 0, packet_bytes: int = MTU_FRAME_BYTES, seed: int = 0
    ) -> TrafficProfile:
        """The profile one of this tenant's flows follows."""
        return make_profile(
            self.traffic,
            rate_gbps=self.rate_gbps,
            burst_rate_gbps=self.rate_gbps,
            packets_per_burst=self.packets_per_burst,
            burst_period=units.microseconds(self.burst_period_us),
            num_bursts=self.num_bursts,
            alpha=self.heavy_tail_alpha,
            duration=duration,
            packet_bytes=packet_bytes,
            start=start,
            seed=seed,
        )


@dataclass(frozen=True, slots=True)
class TenantSet:
    """The tenants co-located on one server, plus the sweep seed.

    Tenants are ordered by id (``tenants[i].tenant_id == i``) so the
    NF-core blocks, DMA buffer ranges, and antagonist cores derived from
    the set are all deterministic functions of the config alone.
    """

    tenants: Tuple[TenantConfig, ...]
    seed: int = field(default=1234)

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("a TenantSet needs at least one tenant")
        if len(self.tenants) > MAX_TENANTS:
            raise ValueError(
                f"at most {MAX_TENANTS} tenants per server, got {len(self.tenants)}"
            )
        for index, tenant in enumerate(self.tenants):
            if tenant.tenant_id != index:
                raise ValueError(
                    f"tenant ids must be dense and ordered: position {index} "
                    f"holds tenant_id {tenant.tenant_id}"
                )
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")

    def __len__(self) -> int:
        return len(self.tenants)

    def __iter__(self):
        return iter(self.tenants)

    @property
    def total_nf_cores(self) -> int:
        """NF cores across all tenants (the server's ``num_nf_cores``)."""
        return sum(t.nf_cores for t in self.tenants)

    @property
    def num_antagonists(self) -> int:
        return sum(1 for t in self.tenants if t.antagonist)

    @property
    def total_way_quota(self) -> int:
        """Sum of per-tenant I/O way quotas (checked against ``ddio_ways``)."""
        return sum(t.llc_way_quota for t in self.tenants)

    def core_tenant(self, core: int) -> int:
        """The tenant owning NF core ``core`` (blocks in tenant order)."""
        base = 0
        for tenant in self.tenants:
            if core < base + tenant.nf_cores:
                return tenant.tenant_id
            base += tenant.nf_cores
        raise ValueError(f"core {core} is not an NF core of this tenant set")

    def tenant_cores(self, tenant_id: int) -> range:
        """The contiguous NF-core block assigned to ``tenant_id``."""
        base = 0
        for tenant in self.tenants:
            if tenant.tenant_id == tenant_id:
                return range(base, base + tenant.nf_cores)
            base += tenant.nf_cores
        raise ValueError(f"no tenant with id {tenant_id}")

    def traffic_profiles(
        self, duration: int, start: int = 0, packet_bytes: int = MTU_FRAME_BYTES
    ) -> List[TrafficProfile]:
        """One profile per flow in tenant-block order (the server's
        generator order).  Seeded kinds draw each flow's seed from the
        owner's :func:`tenant_rng` stream, so tenant ``k``'s arrivals never
        depend on another tenant's configuration (SIM016)."""
        profiles: List[TrafficProfile] = []
        for tenant in self.tenants:
            rng = tenant_rng(self.seed, tenant.tenant_id)
            seeded = "seed" in {f.name for f in fields(TRAFFIC_KINDS[tenant.traffic])}
            for _ in range(tenant.nf_cores):
                seed = rng.getrandbits(32) if seeded else 0
                profiles.append(tenant.traffic_profile(duration, start, packet_bytes, seed))
        return profiles

    def victims(self) -> Tuple[int, ...]:
        """Tenant ids playing the ``victim`` role (isolation scoring)."""
        return tuple(t.tenant_id for t in self.tenants if t.role == "victim")

    def aggressors(self) -> Tuple[int, ...]:
        """Tenant ids playing the ``aggressor`` role."""
        return tuple(t.tenant_id for t in self.tenants if t.role == "aggressor")


__all__ = [
    "MAX_TENANTS",
    "PRIORITY_CLASSES",
    "TENANT_ROLES",
    "TENANT_TRAFFIC_KINDS",
    "TenantConfig",
    "TenantSet",
    "tenant_rng",
]
