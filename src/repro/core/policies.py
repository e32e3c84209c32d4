"""Inbound data placement policies evaluated in the paper.

A :class:`PolicyConfig` is one software switch — the driver's
self-invalidation (M1) — plus at most one hardware steering mechanism in
its ``steering`` slot.  Fig. 9/10 compare five configurations:

===========  ===============  ===========================================
name         self-invalidate  steering
===========  ===============  ===========================================
DDIO         no               ``None``
Invalidate   yes              ``None``
Prefetch     no               ``IdioSteering("dynamic")``
Static       yes              ``IdioSteering("static")``
IDIO         yes              ``IdioSteering("dynamic", direct_dram=True)``
===========  ===============  ===========================================

The related-work baselines are other choices for the same slot:
:class:`IatResizing` (IAT), :class:`SlicePinning` (CacheDirector) and
:class:`TenantPartition` (static quotas or IOCA).  One slot rather than
a tuple means "at most one steering controller" holds by the type.
``steering=None`` installs no controller at all: the root complex
applies the static LLC placement, exactly as today's hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Optional, Union

from .cachedirector import CacheDirectorController
from .config import IDIOConfig
from .controller import IDIOController
from .iat import IATController
from .ioca import IOCAController

if TYPE_CHECKING:
    from ..harness.server import SimulatedServer

#: MLC prefetch modes.
PREFETCH_OFF = "off"
PREFETCH_DYNAMIC = "dynamic"
PREFETCH_STATIC = "static"
PREFETCH_MODES = (PREFETCH_OFF, PREFETCH_DYNAMIC, PREFETCH_STATIC)

#: What :meth:`Steering.install` may start.
SteeringController = Union[IDIOController, IATController, CacheDirectorController, IOCAController]


@dataclass(frozen=True)
class Steering:
    """A hardware steering mechanism; :meth:`install` wires it into a server."""

    #: Whether the NIC must tag every TLP with the classifier's metadata.
    needs_classifier = False
    #: LLC slice count to build when ``ServerConfig.llc_slices`` is 0.
    llc_slices = 0

    def install(self, server: "SimulatedServer") -> Optional[SteeringController]:
        """Wire the mechanism into ``server``; return the controller it started."""
        raise NotImplementedError


@dataclass(frozen=True)
class IdioSteering(Steering):
    """IDIO's root-complex controller (§V-B): MLC prefetch (M2) and
    selective direct DRAM placement of class-1 payloads (M3)."""

    #: ``"off"``, ``"dynamic"`` (per-core FSM) or ``"static"`` (always MLC).
    prefetch: str = PREFETCH_DYNAMIC
    direct_dram: bool = False

    needs_classifier = True

    def __post_init__(self) -> None:
        if self.prefetch not in PREFETCH_MODES:
            raise ValueError(
                f"unknown prefetch mode {self.prefetch!r}; choose from {PREFETCH_MODES}"
            )

    def install(self, server: "SimulatedServer") -> IDIOController:
        controller = IDIOController(
            server.sim,
            server.hierarchy,
            config=server.config.policy.idio,
            static_mlc=self.prefetch == PREFETCH_STATIC,
            prefetch_enabled=self.prefetch != PREFETCH_OFF,
            direct_dram_enabled=self.direct_dram,
        )
        server.root_complex.attach_controller(controller.steer)
        if server.sanitizer is not None:
            server.sanitizer.register_controller(controller)
        return controller


@dataclass(frozen=True)
class IatResizing(Steering):
    """IAT-style dynamic DDIO-way resizing (related work [41])."""

    def install(self, server: "SimulatedServer") -> IATController:
        return IATController(server.sim, server.hierarchy)


@dataclass(frozen=True)
class SlicePinning(Steering):
    """CacheDirector-style header slice pinning (related work [14])."""

    needs_classifier = True
    llc_slices = 8  # CacheDirector needs a NUCA topology

    def install(self, server: "SimulatedServer") -> CacheDirectorController:
        controller = CacheDirectorController(server.sim, server.hierarchy)
        server.root_complex.attach_controller(controller.steer)
        return controller


@dataclass(frozen=True)
class TenantPartition(Steering):
    """Per-tenant DDIO way partitioning (IOCA-style, related work):
    fixed quotas, contiguous in tenant order, or with ``dynamic`` an
    :class:`~repro.core.ioca.IOCAController` that reapportions them each
    epoch.  Without ``ServerConfig.tenants`` it is plain DDIO."""

    dynamic: bool = False

    def install(self, server: "SimulatedServer") -> Optional[IOCAController]:
        tenants = server.config.tenants
        if tenants is None:
            return None
        if self.dynamic:
            return IOCAController(server.sim, server.hierarchy, tenants)
        start_way = 0
        for tenant in tenants:
            server.hierarchy.llc.set_tenant_io_ways(
                tenant.tenant_id,
                range(start_way, start_way + tenant.llc_way_quota),
            )
            start_way += tenant.llc_way_quota
        return None


@dataclass(frozen=True)
class PolicyConfig:
    """One inbound-placement configuration."""

    name: str
    self_invalidate: bool = False
    steering: Optional[Steering] = None
    idio: IDIOConfig = field(default_factory=IDIOConfig)

    def with_threshold(self, mlc_threshold_mtps: float) -> "PolicyConfig":
        """A copy with a different mlcTHR (the Fig. 14 sweep)."""
        return replace(self, idio=replace(self.idio, mlc_threshold_mtps=mlc_threshold_mtps))

    def with_burst_threshold(self, rx_burst_threshold_gbps: float) -> "PolicyConfig":
        """A copy with a different rxBurstTHR (extension sweep)."""
        return replace(
            self,
            idio=replace(self.idio, rx_burst_threshold_gbps=rx_burst_threshold_gbps),
        )


def ddio() -> PolicyConfig:
    """Baseline DDIO: static LLC placement, no IDIO mechanisms."""
    return PolicyConfig(name="ddio")


def invalidate_only() -> PolicyConfig:
    """Self-invalidating I/O buffers only (Fig. 9c/9d)."""
    return PolicyConfig(name="invalidate", self_invalidate=True)


def prefetch_only() -> PolicyConfig:
    """Network-driven MLC prefetching only (Fig. 9e/9f)."""
    return PolicyConfig(name="prefetch", steering=IdioSteering(PREFETCH_DYNAMIC))


def static_idio() -> PolicyConfig:
    """Invalidate + always-on MLC prefetching (the "Static" config)."""
    return PolicyConfig(
        name="static", self_invalidate=True, steering=IdioSteering(PREFETCH_STATIC)
    )


def idio() -> PolicyConfig:
    """Full dynamic IDIO: all three mechanisms (M1+M2+M3)."""
    return PolicyConfig(
        name="idio",
        self_invalidate=True,
        steering=IdioSteering(PREFETCH_DYNAMIC, direct_dram=True),
    )


def regulated_idio() -> PolicyConfig:
    """IDIO with the CPU-pointer-following prefetcher (§VII future work)."""
    return PolicyConfig(
        name="idio-regulated",
        self_invalidate=True,
        steering=IdioSteering(PREFETCH_DYNAMIC, direct_dram=True),
        idio=IDIOConfig(prefetch_regulated=True),
    )


def iat() -> PolicyConfig:
    """IAT-style dynamic DDIO-way resizing baseline (related work [41])."""
    return PolicyConfig(name="iat", steering=IatResizing())


def cachedirector() -> PolicyConfig:
    """CacheDirector-style header slice steering baseline (related work [14])."""
    return PolicyConfig(name="cachedirector", steering=SlicePinning())


def ioca() -> PolicyConfig:
    """IOCA-style dynamic per-tenant I/O way partitioning (related work).

    Installs an :class:`~repro.core.ioca.IOCAController` that samples
    the hierarchy's per-tenant DMA counters and reapportions the DDIO
    partition between tenants at epoch boundaries.  Requires a tenanted
    ``ServerConfig``; without tenants it degrades to plain DDIO.
    """
    return PolicyConfig(name="ioca", steering=TenantPartition(dynamic=True))


def static_partition() -> PolicyConfig:
    """Static per-tenant I/O way quotas (the IOCA comparison baseline)."""
    return PolicyConfig(name="static-partition", steering=TenantPartition())


def all_policies() -> Dict[str, PolicyConfig]:
    """The five Fig. 9 configurations, keyed by name."""
    configs = [ddio(), invalidate_only(), prefetch_only(), static_idio(), idio()]
    return {c.name: c for c in configs}


def extended_policies() -> Dict[str, PolicyConfig]:
    """Fig. 9 configurations plus the extension/ablation policies."""
    table = all_policies()
    for extra in (regulated_idio(), iat(), cachedirector(), ioca(), static_partition()):
        table[extra.name] = extra
    return table


def policy_by_name(name: str) -> PolicyConfig:
    table = extended_policies()
    try:
        return table[name]
    except KeyError:
        raise ValueError(f"unknown policy {name!r}; choose from {sorted(table)}") from None
