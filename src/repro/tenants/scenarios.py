"""Named multi-tenant scenario packs for the isolation sweeps.

A *mix* is a recipe for a :class:`~repro.tenants.config.TenantSet`:
which tenants co-locate, what traffic each offers, and who plays victim
versus aggressor.  The ``intensity`` knob scales the aggressors' offered
load *in the config itself*, so two intensities produce two distinct
cache digests and the result cache never conflates them.

The packs compose with ``repro.faults``: a fault plan attaches to the
``ServerConfig`` built by :func:`tenant_server` exactly as it would for
a single-tenant run.
"""

from __future__ import annotations

from typing import Tuple

from ..core.policies import PolicyConfig
from ..harness.experiment import Experiment
from ..harness.server import ServerConfig
from ..sim import units
from .config import TenantConfig, TenantSet

#: Mix names accepted by :func:`tenant_mix` and the ``--tenant-mix`` flag.
TENANT_MIXES = ("noisy-neighbor", "balanced", "antagonist-storm")

#: Default LLC shape for tenant runs: a 4-way DDIO partition leaves the
#: partitioning policies room to move ways between tenants, and the
#: smaller capacity (fewer sets) makes aggressor DMA actually thrash the
#: shared partition within a victim packet's queueing window — with the
#: stock 3 MB LLC the per-set fill pressure is too low to ever evict a
#: victim line before its core reads it, and every policy looks perfect.
TENANT_LLC_BYTES = 768 * 1024
TENANT_LLC_WAYS = 12
TENANT_DDIO_WAYS = 4


def _aggressor_rate(intensity: float) -> float:
    """Aggressor offered rate in Gbps; floored so intensity 0 is legal."""
    return max(0.5, 40.0 * intensity)


def tenant_mix(
    name: str,
    tenants: int = 2,
    intensity: float = 1.0,
    seed: int = 1234,
) -> TenantSet:
    """Build the named scenario pack with ``tenants`` co-located tenants.

    ``intensity`` scales the aggressors' offered rate (victims are
    untouched), so sweeping it traces out the victim-degradation curve.
    """
    if name not in TENANT_MIXES:
        raise ValueError(f"unknown tenant mix {name!r}; choose from {TENANT_MIXES}")
    if tenants < 1:
        raise ValueError(f"need at least one tenant, got {tenants}")
    if intensity < 0:
        raise ValueError(f"intensity must be non-negative, got {intensity}")
    members: Tuple[TenantConfig, ...]
    if name == "balanced":
        members = tuple(
            TenantConfig(
                tenant_id=i,
                name=f"t{i}",
                traffic="steady",
                rate_gbps=max(0.5, 10.0 * intensity),
                llc_way_quota=1,
            )
            for i in range(tenants)
        )
    elif name == "noisy-neighbor":
        if tenants < 2:
            raise ValueError("the noisy-neighbor mix needs at least two tenants")
        victim = TenantConfig(
            tenant_id=0,
            name="victim",
            traffic="bursty",
            rate_gbps=25.0,
            packets_per_burst=48,
            num_bursts=3,
            burst_period_us=30.0,
            llc_way_quota=1,
            priority="latency",
            role="victim",
        )
        aggressors = tuple(
            TenantConfig(
                tenant_id=i,
                name=f"aggressor{i}",
                traffic="heavytail",
                rate_gbps=_aggressor_rate(intensity),
                heavy_tail_alpha=1.3,
                llc_way_quota=1,
                priority="bulk",
                role="aggressor",
                antagonist=True,
            )
            for i in range(1, tenants)
        )
        members = (victim,) + aggressors
    else:  # antagonist-storm
        if tenants < 2:
            raise ValueError("the antagonist-storm mix needs at least two tenants")
        victim = TenantConfig(
            tenant_id=0,
            name="victim",
            traffic="steady",
            rate_gbps=15.0,
            llc_way_quota=1,
            priority="latency",
            role="victim",
        )
        aggressors = tuple(
            TenantConfig(
                tenant_id=i,
                name=f"storm{i}",
                traffic="poisson",
                rate_gbps=_aggressor_rate(intensity),
                llc_way_quota=1,
                priority="bulk",
                role="aggressor",
                antagonist=True,
                antagonist_footprint_bytes=8 * 1024 * 1024,
            )
            for i in range(1, tenants)
        )
        members = (victim,) + aggressors
    return TenantSet(tenants=members, seed=seed)


def tenant_server(
    tenants: TenantSet,
    policy: PolicyConfig,
    checked: bool = False,
) -> ServerConfig:
    """A ``ServerConfig`` shaped for ``tenants`` under ``policy``."""
    return ServerConfig(
        policy=policy,
        num_nf_cores=tenants.total_nf_cores,
        llc_bytes=TENANT_LLC_BYTES,
        llc_ways=TENANT_LLC_WAYS,
        ddio_ways=TENANT_DDIO_WAYS,
        tenants=tenants,
        checked_mode=checked,
    )


def tenant_experiment(
    tenants: TenantSet,
    policy: PolicyConfig,
    name: str,
    duration_us: float = 200.0,
    checked: bool = False,
) -> Experiment:
    """One isolation-matrix cell: ``tenants`` under ``policy``.

    The traffic schedule itself comes from
    :meth:`~repro.tenants.TenantSet.traffic_profiles`, which reads each
    tenant's traffic shape off the config; ``duration_us`` bounds the
    injection window.
    """
    return Experiment(
        name=name,
        server=tenant_server(tenants, policy, checked=checked),
        traffic="steady",
        steady_duration=int(units.microseconds(duration_us)),
    )


__all__ = [
    "TENANT_DDIO_WAYS",
    "TENANT_LLC_BYTES",
    "TENANT_LLC_WAYS",
    "TENANT_MIXES",
    "tenant_experiment",
    "tenant_mix",
    "tenant_server",
]
