"""The stable public facade of the ``repro`` package.

Everything re-exported here — and nothing else — is covered by the API
stability policy in ``docs/api.md``: these names keep working across
minor versions, while the subpackages behind them (``repro.mem``,
``repro.nic``, ``repro.core``, ...) are internal and may change shape in
any release.  ``repro/__init__`` re-exports exactly this module, so
``from repro import run_experiment`` and ``from repro.api import
run_experiment`` are the same promise.

The facade covers the five things external code does:

* **build & run** — :func:`build_server`, :func:`run_experiment`,
  :func:`run_experiments`, :func:`run_policy_comparison`, configured via
  :class:`ServerConfig` / :class:`Experiment` / :class:`PolicyConfig`;
* **resilient sweeps** — :func:`run_sweep` over a :class:`Matrix` (named
  axes, one experiment per cell) or a bare experiment list, with
  per-experiment timeouts, crash retry, and a partial-result
  :class:`SweepResult` keyed by the matrix's axes;
* **fault injection** — :class:`FaultPlan` / :class:`FaultSpec` /
  :func:`standard_plan` schedules riding inside ``ServerConfig``, with
  injections observable as :class:`FaultEvent` counts;
* **multi-tenant isolation** — :class:`TenantConfig` / :class:`TenantSet`
  riding on ``ServerConfig.tenants`` for per-tenant flow tagging and DMA
  attribution, the :func:`ioca` dynamic way-partitioning policy, and
  :func:`run_tenants`, the policy x intensity isolation matrix;
* **result caching** — :class:`ResultCache`, the fingerprint-keyed
  on-disk memoization every runner entry point consults (hits are
  byte-identical to cold recomputes; ``docs/caching.md``).
"""

from __future__ import annotations

from .cache import ResultCache
from .core.policies import PolicyConfig, all_policies, ddio, idio, ioca
from .faults import (
    FAULT_KINDS,
    FAULT_LAYERS,
    FaultEvent,
    FaultPlan,
    FaultSpec,
    standard_plan,
)
from .harness.experiment import (
    Experiment,
    ExperimentResult,
    ExperimentSummary,
    run_experiment,
    run_policy_comparison,
)
from .harness.matrix import Matrix, SweepRecord, SweepResult
from .harness.runner import run_experiments, run_sweep
from .harness.server import ServerConfig, SimulatedServer
from .sim import Simulator, units
from .tenants.config import TenantConfig, TenantSet
from .tenants.sweep import run_tenants


def build_server(config: ServerConfig) -> SimulatedServer:
    """Build one fully wired simulated server from a config.

    The returned server is un-started: call :meth:`SimulatedServer.start`,
    inject traffic, then drive it with :meth:`SimulatedServer.run` /
    :meth:`SimulatedServer.run_until_drained`.  Most callers want
    :func:`run_experiment`, which does all of that; ``build_server`` is
    the escape hatch for custom traffic schedules and white-box
    inspection.
    """
    return SimulatedServer(config)


__all__ = [
    "Experiment",
    "ExperimentResult",
    "ExperimentSummary",
    "FAULT_KINDS",
    "FAULT_LAYERS",
    "FaultEvent",
    "FaultPlan",
    "FaultSpec",
    "Matrix",
    "PolicyConfig",
    "ResultCache",
    "ServerConfig",
    "SimulatedServer",
    "Simulator",
    "SweepRecord",
    "SweepResult",
    "TenantConfig",
    "TenantSet",
    "all_policies",
    "build_server",
    "ddio",
    "idio",
    "ioca",
    "run_experiment",
    "run_experiments",
    "run_policy_comparison",
    "run_sweep",
    "run_tenants",
    "standard_plan",
    "units",
]
