"""Experiment harness: server builder, runner, metrics, figure reproductions."""

from . import extensions, figures, metrics, report, runner, traces
from .experiment import (
    Experiment,
    ExperimentResult,
    ExperimentSummary,
    run_experiment,
    run_policy_comparison,
)
from .matrix import Matrix, SweepRecord, SweepResult
from .runner import (
    run_experiment_summary,
    run_experiments,
    run_sweep,
)
from .server import APP_FACTORIES, ServerConfig, SimulatedServer

__all__ = [
    "APP_FACTORIES",
    "Experiment",
    "ExperimentResult",
    "ExperimentSummary",
    "Matrix",
    "ServerConfig",
    "SimulatedServer",
    "SweepRecord",
    "SweepResult",
    "extensions",
    "figures",
    "metrics",
    "report",
    "run_experiment",
    "run_experiment_summary",
    "run_experiments",
    "run_policy_comparison",
    "run_sweep",
    "runner",
    "traces",
]
