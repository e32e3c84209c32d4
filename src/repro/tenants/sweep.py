"""The ``repro tenants`` isolation sweep: policy x mix x intensity.

Each cell runs one multi-tenant server — a scenario pack from
:mod:`repro.tenants.scenarios` under one LLC policy — and reads the
per-tenant p50/p95/p99 tail latencies off
``ExperimentSummary.tenant_stats``.  The fold scores *victim
degradation*: how much a victim tenant's p99 inflates as aggressor
intensity rises, relative to the same policy's quietest cell.  IOCA-style
dynamic partitioning should hold that ratio near 1 where plain DDIO lets
it climb.

Cells fan out through :func:`repro.harness.runner.run_sweep`, so the
matrix shards over the warm worker pool and memoizes per-cell summaries
in the result cache exactly like the fault and rack sweeps.

This module imports the harness, so it must *not* be re-exported from
``repro.tenants.__init__`` (the harness imports ``repro.tenants.config``;
see the package docstring).  Import :func:`run_tenants` from here or via
``repro.api``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..analysis.determinism import fingerprint_digest
from ..core.policies import PolicyConfig
from ..harness.report import format_table
from ..harness.runner import run_sweep
from ..obs.bus import EventBus
from ..obs.events import LaneSeries
from .config import TenantSet
from .scenarios import tenant_experiment, tenant_mix

#: Per-tenant percentile streams published as :class:`LaneSeries` when a
#: trace recorder subscribes.
TENANT_LANE_STREAMS = ("p50_us", "p95_us", "p99_us")

#: Intensity is a small float (0.25, 1.0, ...); lanes scale it into the
#: timestamp domain, since Chrome traces want monotonic numeric stamps.
INTENSITY_SCALE = 1000.0


@dataclass
class TenantCell:
    """One (policy, intensity) cell of the isolation matrix."""

    policy: str
    intensity: float
    #: ``{tenant_id: {completed, dma_writes, io_lines, io_ways,
    #: p50_us, p95_us, p99_us}}`` straight off the summary.
    tenant_stats: Dict[int, Dict[str, float]]
    digest: str
    status: str
    cached: bool = False

    def stat(self, tenant: int, key: str) -> float:
        return self.tenant_stats.get(tenant, {}).get(key, 0.0)


@dataclass
class TenantSweepSummary:
    """The deterministic fold of one isolation sweep."""

    mix: str
    num_tenants: int
    tenants: Optional[TenantSet]
    policies: Sequence[str]
    intensities: Sequence[float]
    cells: List[TenantCell] = field(default_factory=list)
    #: 0 = all cells ran; 1 = partial failure; 2 = nothing ran.
    exit_code: int = 0
    #: SHA-256 over the matrix shape and per-cell digests — equal for a
    #: serial and a pool-sharded sweep of the same seeded matrix.
    fingerprint: str = ""

    def cell(self, policy: str, intensity: float) -> Optional[TenantCell]:
        for cell in self.cells:
            if cell.policy == policy and cell.intensity == intensity:
                return cell
        return None

    def _victim_ids(self) -> Sequence[int]:
        if self.tenants is not None and self.tenants.victims():
            return self.tenants.victims()
        return (0,)

    def victim_p99(self, policy: str, intensity: float) -> float:
        """Worst victim p99 (us) in the named cell (0.0 if it failed)."""
        cell = self.cell(policy, intensity)
        if cell is None:
            return 0.0
        return max(cell.stat(t, "p99_us") for t in self._victim_ids())

    def victim_degradation(self, policy: str) -> Dict[float, float]:
        """``{intensity: victim p99 / quietest-cell victim p99}``.

        The same policy's lowest-intensity cell is the baseline, so the
        score isolates *neighbor pressure* from the policy's intrinsic
        latency: 1.0 means perfect isolation.
        """
        baseline = None
        for intensity in sorted(self.intensities):
            value = self.victim_p99(policy, intensity)
            if value > 0:
                baseline = value
                break
        out: Dict[float, float] = {}
        for intensity in self.intensities:
            value = self.victim_p99(policy, intensity)
            out[intensity] = value / baseline if baseline else 0.0
        return out

    def compute_fingerprint(self) -> str:
        """Digest of the matrix: shape + per-cell summary fingerprints.

        Cell digests come from :func:`fingerprint_digest` (which folds in
        ``tenant_stats``), so a serial sweep and a warm-pool sweep of the
        same seeded matrix — and a cache hit replaying either — are
        byte-identical.
        """
        payload = repr(
            (
                self.mix,
                self.num_tenants,
                tuple(self.policies),
                tuple(self.intensities),
                tuple((c.policy, c.intensity, c.digest) for c in self.cells),
            )
        ).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def render(self) -> str:
        """An ASCII matrix: one row per (policy, intensity, tenant)."""
        rows: List[List[object]] = []
        for cell in self.cells:
            for tenant in sorted(cell.tenant_stats):
                rows.append(
                    [
                        cell.policy,
                        f"{cell.intensity:g}",
                        f"t{tenant}",
                        int(cell.stat(tenant, "completed")),
                        int(cell.stat(tenant, "dma_writes")),
                        int(cell.stat(tenant, "io_ways")),
                        round(cell.stat(tenant, "p50_us"), 2),
                        round(cell.stat(tenant, "p95_us"), 2),
                        round(cell.stat(tenant, "p99_us"), 2),
                        cell.status,
                    ]
                )
        table = format_table(
            ["policy", "intensity", "tenant", "completed", "dma",
             "io ways", "p50 us", "p95 us", "p99 us", "status"],
            rows,
            title=(
                f"tenant isolation: {self.mix} x{self.num_tenants} "
                f"({len(self.cells)} cells)"
            ),
        )
        scores: List[str] = []
        for policy in self.policies:
            degradation = self.victim_degradation(policy)
            worst = max(degradation.values()) if degradation else 0.0
            scores.append(f"{policy}: worst victim degradation {worst:.2f}x")
        return table + "\n" + "\n".join(scores)

    def to_json(self) -> Dict[str, Any]:
        """A JSON-able dict (CLI ``--out`` artifact)."""
        return {
            "mix": self.mix,
            "num_tenants": self.num_tenants,
            "policies": list(self.policies),
            "intensities": list(self.intensities),
            "fingerprint": self.fingerprint,
            "exit_code": self.exit_code,
            "victim_degradation": {
                policy: {
                    f"{intensity:g}": value
                    for intensity, value in self.victim_degradation(policy).items()
                }
                for policy in self.policies
            },
            "cells": [
                {
                    "policy": cell.policy,
                    "intensity": cell.intensity,
                    "status": cell.status,
                    "cached": cell.cached,
                    "digest": cell.digest,
                    "tenants": {
                        f"t{tenant}": stats
                        for tenant, stats in sorted(cell.tenant_stats.items())
                    },
                }
                for cell in self.cells
            ],
        }


def _publish_lanes(
    bus: EventBus, summary: TenantSweepSummary
) -> None:
    """Publish per-tenant percentile series, gated on live subscribers.

    One :class:`LaneSeries` per (tenant, policy, stream) on process
    ``tenant-N``; points are ``(intensity x INTENSITY_SCALE, value_us)``
    pairs across the sweep's cells, so a trace recorder draws the
    degradation curves directly.
    """
    if not bus.has_subscribers(LaneSeries):
        return
    tenant_ids = sorted(
        {tenant for cell in summary.cells for tenant in cell.tenant_stats}
    )
    for tenant in tenant_ids:
        for policy in summary.policies:
            for stream in TENANT_LANE_STREAMS:
                points = tuple(
                    (cell.intensity * INTENSITY_SCALE, cell.stat(tenant, stream))
                    for cell in summary.cells
                    if cell.policy == policy
                )
                bus.publish(
                    LaneSeries(
                        process=f"tenant-{tenant}",
                        lane=f"{policy}:{stream}",
                        points=points,
                        unit="us",
                    )
                )


def run_tenants(
    policies: Sequence[PolicyConfig],
    mix: str = "noisy-neighbor",
    tenants: int = 2,
    intensities: Sequence[float] = (0.25, 1.0, 2.0),
    seed: int = 1234,
    duration_us: float = 200.0,
    jobs: int = 1,
    cache=None,
    checked: bool = False,
    bus: Optional[EventBus] = None,
) -> TenantSweepSummary:
    """Run the isolation matrix: ``policies`` x ``intensities`` cells.

    Every cell is an independent seeded experiment, so the matrix shards
    over the warm pool (``jobs``) and memoizes in the result cache
    (``cache``, following :func:`repro.harness.runner.run_sweep`
    semantics).  Pass an :class:`~repro.obs.bus.EventBus` with a
    :class:`LaneSeries` subscriber to capture degradation curves.
    """
    if not policies:
        raise ValueError("run_tenants needs at least one policy")
    if not intensities:
        raise ValueError("run_tenants needs at least one intensity")
    experiments = []
    keys = []
    tenant_sets: Dict[float, TenantSet] = {}
    for policy in policies:
        for intensity in intensities:
            ts = tenant_sets.get(intensity)
            if ts is None:
                ts = tenant_mix(mix, tenants=tenants, intensity=intensity, seed=seed)
                tenant_sets[intensity] = ts
            name = f"tenants-{mix}-{policy.name}-i{intensity:g}"
            experiments.append(
                tenant_experiment(
                    ts,
                    policy,
                    name,
                    duration_us=duration_us,
                    checked=checked,
                )
            )
            keys.append((policy.name, intensity))
    result = run_sweep(experiments, jobs=jobs, cache=cache)
    summary = TenantSweepSummary(
        mix=mix,
        num_tenants=tenants,
        tenants=tenant_sets[intensities[0]],
        policies=[p.name for p in policies],
        intensities=list(intensities),
        exit_code=result.exit_code,
    )
    for (policy_name, intensity), cell_summary, record in zip(
        keys, result.summaries, result.records
    ):
        if cell_summary is None:
            summary.cells.append(
                TenantCell(
                    policy=policy_name,
                    intensity=intensity,
                    tenant_stats={},
                    digest="",
                    status=record.status,
                )
            )
            continue
        summary.cells.append(
            TenantCell(
                policy=policy_name,
                intensity=intensity,
                tenant_stats=cell_summary.tenant_stats,
                digest=fingerprint_digest(cell_summary),
                status=record.status,
                cached=record.status == "cached",
            )
        )
    summary.fingerprint = summary.compute_fingerprint()
    if bus is not None:
        _publish_lanes(bus, summary)
    return summary


__all__ = [
    "TENANT_LANE_STREAMS",
    "TenantCell",
    "TenantSweepSummary",
    "run_tenants",
]
