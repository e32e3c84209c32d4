"""The ``repro tenants`` isolation sweep: policy x mix x intensity.

Each cell runs one multi-tenant server — a scenario pack from
:mod:`repro.tenants.scenarios` under one LLC policy — and reads the
per-tenant p50/p95/p99 tail latencies off
``ExperimentSummary.tenant_stats``.  The footer scores *victim
degradation*: how much a victim tenant's p99 inflates as aggressor
intensity rises, relative to the same policy's quietest cell.  IOCA-style
dynamic partitioning should hold that ratio near 1 where plain DDIO lets
it climb.

The sweep is a ``policy`` x ``intensity``
:class:`~repro.harness.matrix.Matrix` run by
:func:`repro.harness.runner.run_sweep`, so it shards over the warm
worker pool and memoizes per-cell summaries in the result cache exactly
like the fault sweep.

This module imports the harness, so it must *not* be re-exported from
``repro.tenants.__init__`` (the harness imports ``repro.tenants.config``;
see the package docstring).  Import :func:`run_tenants` from here or via
``repro.api``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Sequence

from ..core.policies import PolicyConfig
from ..harness.matrix import Cell, Matrix, SweepResult
from ..harness.runner import run_sweep
from ..obs.events import LaneSeries
from .scenarios import tenant_experiment, tenant_mix

#: Per-tenant percentile streams drawn as trace lanes.
TENANT_LANE_STREAMS = ("p50_us", "p95_us", "p99_us")

#: Intensity is a small float (0.25, 1.0, ...); lanes scale it into the
#: timestamp domain, since Chrome traces want monotonic numeric stamps.
INTENSITY_SCALE = 1000.0

TENANT_COLUMNS = ("policy", "intensity", "tenant", "completed", ("dma", "dma_writes"),
                  ("io ways", "io_ways"), ("p50 us", "p50_us"), ("p95 us", "p95_us"),
                  ("p99 us", "p99_us"), "status")


def tenant_stats(cell: Cell) -> Dict[int, Dict[str, float]]:
    """``{tenant_id: {completed, dma_writes, io_lines, io_ways, p50_us,
    p95_us, p99_us}}`` of one cell (empty when the cell failed)."""
    return cell.summary.tenant_stats if cell.summary is not None else {}


def _stat(cell: Cell, tenant: int, key: str) -> float:
    return tenant_stats(cell).get(tenant, {}).get(key, 0.0)


def victim_p99(result: SweepResult, policy: str, intensity: float) -> float:
    """Worst victim p99 (us) in the named cell (0.0 if it failed)."""
    for cell in result.cells:
        if cell.policy == policy and cell.intensity == intensity:
            victims = cell.experiment.server.tenants.victims() or (0,)
            return max(_stat(cell, tenant, "p99_us") for tenant in victims)
    return 0.0


def victim_degradation(result: SweepResult, policy: str) -> Dict[float, float]:
    """``{intensity: victim p99 / quietest-cell victim p99}``.

    The same policy's lowest-intensity cell is the baseline, so the
    score isolates *neighbor pressure* from the policy's intrinsic
    latency: 1.0 means perfect isolation.
    """
    intensities = [cell.intensity for cell in result.cells if cell.policy == policy]
    baseline = None
    for intensity in sorted(intensities):
        value = victim_p99(result, policy, intensity)
        if value > 0:
            baseline = value
            break
    return {
        intensity: victim_p99(result, policy, intensity) / baseline if baseline else 0.0
        for intensity in intensities
    }


def tenant_matrix(
    policies: Sequence[PolicyConfig],
    mix: str = "noisy-neighbor",
    tenants: int = 2,
    intensities: Sequence[float] = (0.25, 1.0, 2.0),
    seed: int = 1234,
    duration_us: float = 200.0,
    checked: bool = False,
) -> Matrix:
    """The isolation matrix: one cell per ``policies`` x ``intensities``."""
    if not policies:
        raise ValueError("run_tenants needs at least one policy")
    if not intensities:
        raise ValueError("run_tenants needs at least one intensity")
    by_name = {policy.name: policy for policy in policies}
    names = [policy.name for policy in policies]

    def cell(policy: str, intensity: float):
        return tenant_experiment(
            tenant_mix(mix, tenants=tenants, intensity=intensity, seed=seed),
            by_name[policy],
            f"tenants-{mix}-{policy}-i{intensity:g}",
            duration_us=duration_us,
            checked=checked,
        )

    def rows(result: SweepResult) -> Iterator[Dict[str, object]]:
        for c in result.cells:
            for tenant, stats in sorted(tenant_stats(c).items()):
                yield {
                    "policy": c.policy, "intensity": f"{c.intensity:g}", "tenant": f"t{tenant}",
                    **{key: int(stats[key]) for key in ("completed", "dma_writes", "io_ways")},
                    **{key: round(stats[key], 2) for key in ("p50_us", "p95_us", "p99_us")},
                    "status": c.status,
                }

    def footer(result: SweepResult) -> Iterator[str]:
        for policy in names:
            worst = max(victim_degradation(result, policy).values(), default=0.0)
            yield f"{policy}: worst victim degradation {worst:.2f}x"

    def fold(result: SweepResult) -> tuple:
        return (
            mix,
            tenants,
            tuple(names),
            tuple(intensities),
            tuple((c.policy, c.intensity, c.digest) for c in result.cells),
        )

    def info(result: SweepResult) -> Dict[str, Any]:
        return {
            "mix": mix,
            "num_tenants": tenants,
            "policies": names,
            "intensities": list(intensities),
            "victim_degradation": {
                policy: {
                    f"{intensity:g}": value
                    for intensity, value in victim_degradation(result, policy).items()
                }
                for policy in names
            },
        }

    def lanes(result: SweepResult) -> Iterator[LaneSeries]:
        # One lane per (tenant, policy, stream) on process ``tenant-N``;
        # points are ``(intensity x INTENSITY_SCALE, value_us)`` pairs,
        # so a trace draws the degradation curves directly.
        cells = result.cells
        for tenant in sorted({t for c in cells for t in tenant_stats(c)}):
            for policy in names:
                for stream in TENANT_LANE_STREAMS:
                    points = tuple(
                        (c.intensity * INTENSITY_SCALE, _stat(c, tenant, stream))
                        for c in cells
                        if c.policy == policy
                    )
                    yield LaneSeries(f"tenant-{tenant}", f"{policy}:{stream}", points, unit="us")

    keys = [(name, intensity) for name in names for intensity in intensities]
    return Matrix.build(
        ("policy", "intensity"),
        keys,
        cell,
        title=f"tenant isolation: {mix} x{tenants} ({len(keys)} cells)",
        columns=TENANT_COLUMNS,
        rows=rows,
        footer=footer,
        fold=fold,
        info=info,
        cell_info=lambda c: {
            "tenants": {f"t{tenant}": stats for tenant, stats in sorted(tenant_stats(c).items())}
        },
        lanes=lanes,
    )


def run_tenants(
    policies: Sequence[PolicyConfig], *, jobs: int = 1, cache=None, **matrix: Any
) -> SweepResult:
    """Run the isolation matrix (:func:`tenant_matrix` takes ``matrix``).

    Every cell is an independent seeded experiment, so the matrix shards
    over the warm pool (``jobs``) and memoizes in the result cache
    (``cache``, following :func:`repro.harness.runner.run_sweep`
    semantics).  A failed cell is reported in the result's
    ``exit_code``; ``lanes()`` yields the per-tenant degradation curves.
    Each cell's summary comes back without its event streams (about
    2 MB a noisy cell): the views read ``tenant_stats``, and the cell's
    digest, taken first, covers the streams.
    """
    result = run_sweep(tenant_matrix(policies, **matrix), jobs=jobs, cache=cache)
    for cell in result.cells:
        if cell.digest:
            cell.summary.event_streams = {}
    return result


__all__ = [
    "TENANT_LANE_STREAMS",
    "run_tenants",
    "tenant_matrix",
    "tenant_stats",
    "victim_degradation",
    "victim_p99",
]
