"""repro — a Python reproduction of IDIO (MICRO 2022).

IDIO extends DDIO — the technology that lands inbound network DMA in the
last-level cache — with network-driven orchestration across the whole
hierarchy: self-invalidating I/O buffers, burst-triggered MLC prefetching,
and selective direct DRAM access.  This package implements the full system
stack the paper evaluates (non-inclusive cache hierarchy, NIC with Flow
Director, PCIe TLP metadata transport, DPDK-style polling network
functions) as a discrete-event simulation, plus the harness reproducing
every figure in the paper's evaluation.

This top-level module re-exports exactly the stable facade defined in
:mod:`repro.api`; see ``docs/api.md`` for the stability policy.
Subpackages (``repro.mem``, ``repro.harness``, ...) remain importable for
white-box work but are internal surface.

Quick start::

    from repro import Experiment, ServerConfig, run_experiment
    from repro.core import ddio, idio

    exp = Experiment(server=ServerConfig(app="touchdrop", ring_size=1024),
                     burst_rate_gbps=25.0)
    base = run_experiment(exp.with_policy(ddio()))
    ours = run_experiment(exp.with_policy(idio()))
    print(ours.normalized_to(base))
"""

from .api import (
    FAULT_KINDS,
    FAULT_LAYERS,
    Experiment,
    ExperimentResult,
    ExperimentSummary,
    FaultEvent,
    FaultPlan,
    FaultSpec,
    Matrix,
    PolicyConfig,
    ResultCache,
    ServerConfig,
    SimulatedServer,
    Simulator,
    SweepRecord,
    SweepResult,
    TenantConfig,
    TenantSet,
    all_policies,
    build_server,
    ddio,
    idio,
    ioca,
    run_experiment,
    run_experiments,
    run_policy_comparison,
    run_sweep,
    run_tenants,
    standard_plan,
    units,
)

__version__ = "0.21.0"

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
