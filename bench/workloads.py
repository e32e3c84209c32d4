"""The four benchmark workloads, their simulated metrics and correctness gates.

Each workload is a closed loop of back-to-back reps in one process; the
simulated traffic inside a rep is an open loop at a fixed offered rate,
so simulated latency includes queueing.  Every rep of a workload repeats
the same inputs, so every rep has the same fingerprint.

Calls into ``repro`` go through module attributes (``runner.run_experiments``,
``determinism.fingerprint_digest``) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.analysis import determinism
from repro.cache import cache_session
from repro.core import policies
from repro.harness import figures, runner
from repro.harness.experiment import Experiment, ExperimentSummary
from repro.harness.server import ServerConfig
from repro.sim import units
from repro.tenants import scenarios, sweep

from bench.hostspeed import Stopwatch

#: The Fig. 10 co-run burst rate, and the paper's IDIO-vs-DDIO burst
#: processing time improvement at that rate (percent).
FIG10_RATE_GBPS = 100.0
PAPER_CORUN_EXE_IMPROVEMENT = figures.PAPER_FIG10_CORUN_EXE_IMPROVEMENT[FIG10_RATE_GBPS]

#: ``l2fwd_poisson`` offered load.  At 5 Gbps per NF core the cross-seed
#: spread of the p99 is 4.5%; at 10 Gbps it is 18%, too wide for a bound.
POISSON_GBPS_PER_NF = 5.0
POISSON_DURATION_US = 4000.0

#: ``tenants_sweep`` matrix.  300 us lets the aggressor fill the victim's
#: ring at intensity 2.0 in every seed, which caps the simulated work;
#: at 150 us the work of a sweep varies by 17% across seeds.
TENANT_POLICIES = ("ddio", "ioca")
#: Noisy first: with two workers the pool then pairs each long noisy cell
#: with a short quiet one instead of chaining both quiet cells before the
#: last noisy cell.
TENANT_INTENSITIES = (2.0, 0.25)
TENANT_DURATION_US = 300.0
TENANT_WARM_RERUNS = 10
VICTIM = 0


@dataclass
class Rep:
    """The outputs of one rep."""

    #: Host seconds of the rep's headline work (the cold sweep on tenants),
    #: as the run's :class:`~bench.hostspeed.Stopwatch` reports them.
    wall_s: float
    #: Labelled summaries of every simulation in the rep.
    summaries: Dict[str, ExperimentSummary]
    fingerprint: str
    #: Host seconds of each fully cached re-run (tenants only).
    warm_s: List[float] = field(default_factory=list)
    #: ``runner.last_dispatch`` right after the rep's cold dispatch.
    dispatch: Dict[str, object] = field(default_factory=dict)
    #: Result-cache traffic: hits, misses, bytes (tenants only).
    cache: Dict[str, int] = field(default_factory=dict)
    #: Cells retried by the sweep runner.
    retried: int = 0
    #: Correctness-gate violations found inside the rep.
    violations: List[str] = field(default_factory=list)

    @property
    def events(self) -> int:
        return sum(s.events_fired for s in self.summaries.values())


@dataclass(frozen=True)
class Workload:
    name: str
    #: label -> experiment, for a seed and size; the first is the one the
    #: setup measurement builds and warms up.
    experiments: Callable[[int, bool], Dict[str, Experiment]]
    #: ``(seed, smoke, jobs, watch) -> Rep``; ``watch`` times the segments.
    run: Callable[[int, bool, int, Stopwatch], Rep]
    #: Simulated end-to-end metrics of a rep.
    sim_metrics: Callable[[Rep], Dict[str, float]]
    pooled: bool = False

    def jobs(self) -> int:
        """Worker processes the timed reps use (the traced rep uses one)."""
        return min(2, runner.default_jobs()) if self.pooled else 1

    def first_experiment(self, seed: int, smoke: bool) -> Experiment:
        return next(iter(self.experiments(seed, smoke).values()))


def combined_digest(digests: List[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def _run_one(experiment: Experiment):
    summary = runner.run_experiments([experiment], jobs=1, cache=False)[0]
    return summary, determinism.fingerprint_digest(summary)


def _run_batch(experiments: Dict[str, Experiment], watch: Stopwatch) -> Rep:
    """Run and fingerprint labelled experiments, one timed segment each."""
    first = len(watch.segments)
    results = {label: watch.time(_run_one, exp) for label, exp in experiments.items()}
    return Rep(
        wall_s=sum(watch.segments[first:]),
        summaries={label: summary for label, (summary, _) in results.items()},
        fingerprint=combined_digest([digest for _, digest in results.values()]),
        dispatch=dict(runner.last_dispatch),
    )


def _packet_metrics(summary: ExperimentSummary, p50_us: float, tail_us: float, samples: int) -> Dict[str, float]:
    window = summary.window
    return {
        "sim_p50_us": p50_us,
        "sim_tail_us": tail_us,
        "sim_tail_samples": samples,
        "sim_exe_us": units.to_microseconds(summary.burst_processing_time),
        "sim_mlc_wb_per_pkt": window.mlc_writebacks / summary.completed,
        "sim_dram_lines_per_pkt": (window.dram_reads + window.dram_writes) / summary.completed,
    }


def _latency_metrics(summary: ExperimentSummary) -> Dict[str, float]:
    return _packet_metrics(
        summary, summary.p50_ns / 1000.0, summary.p99_ns / 1000.0, len(summary.latencies_ns)
    )


# -- burst_ddio ---------------------------------------------------------------


def _burst_experiments(seed: int, smoke: bool) -> Dict[str, Experiment]:
    del seed  # periodic line-rate bursts: nothing to seed
    ring = 64 if smoke else 1024
    return {
        "ddio": Experiment(
            name="burst_ddio",
            server=ServerConfig(ring_size=ring),
            burst_rate_gbps=FIG10_RATE_GBPS,
        )
    }


def _burst_metrics(rep: Rep) -> Dict[str, float]:
    return _latency_metrics(rep.summaries["ddio"])


# -- fig10_corun --------------------------------------------------------------


def _fig10_experiments(seed: int, smoke: bool) -> Dict[str, Experiment]:
    del seed  # the LLCAntagonist seeds its own RNG
    ring = 64 if smoke else 1024
    return {
        name: figures._bursty_experiment(
            f"fig10-{name}-{FIG10_RATE_GBPS:g}g-corun", FIG10_RATE_GBPS, ring, antagonist=True
        ).with_policy(policies.policy_by_name(name))
        for name in ("ddio", "idio")
    }


def _fig10_metrics(rep: Rep) -> Dict[str, float]:
    ddio, idio = rep.summaries["ddio"], rep.summaries["idio"]
    improvement = (1.0 - idio.burst_processing_time / ddio.burst_processing_time) * 100.0
    metrics = _latency_metrics(idio)
    metrics["paper_gap_pp"] = abs(improvement - PAPER_CORUN_EXE_IMPROVEMENT)
    return metrics


# -- l2fwd_poisson ------------------------------------------------------------


def _poisson_experiments(seed: int, smoke: bool) -> Dict[str, Experiment]:
    return {
        "l2fwd": Experiment(
            name="l2fwd_poisson",
            server=ServerConfig(app="l2fwd"),
            traffic="poisson",
            traffic_seed=seed,
            steady_rate_gbps_per_nf=POISSON_GBPS_PER_NF,
            steady_duration=units.microseconds(100.0 if smoke else POISSON_DURATION_US),
        )
    }


def _poisson_metrics(rep: Rep) -> Dict[str, float]:
    return _latency_metrics(rep.summaries["l2fwd"])


# -- tenants_sweep ------------------------------------------------------------


def _tenant_kwargs(seed: int, smoke: bool, jobs: int) -> dict:
    return dict(
        policies=[policies.policy_by_name(name) for name in TENANT_POLICIES],
        mix="noisy-neighbor",
        tenants=2,
        intensities=TENANT_INTENSITIES,
        seed=seed,
        duration_us=30.0 if smoke else TENANT_DURATION_US,
        jobs=jobs,
    )


def _tenant_experiments(seed: int, smoke: bool) -> Dict[str, Experiment]:
    kwargs = _tenant_kwargs(seed, smoke, 1)
    return {
        f"{policy.name}@{intensity:g}": scenarios.tenant_experiment(
            scenarios.tenant_mix(kwargs["mix"], tenants=kwargs["tenants"], intensity=intensity, seed=seed),
            policy,
            f"bench-tenants-{policy.name}-i{intensity:g}",
            duration_us=kwargs["duration_us"],
        )
        for policy in kwargs["policies"]
        for intensity in TENANT_INTENSITIES
    }


def _run_tenants(seed: int, smoke: bool, jobs: int, watch: Stopwatch) -> Rep:
    """A cold sweep on a fresh result cache, then fully cached re-runs."""
    kwargs = _tenant_kwargs(seed, smoke, jobs)
    violations: List[str] = []
    with tempfile.TemporaryDirectory(prefix="tenants-cache-") as root:
        with cache_session(root) as cache:
            cold = watch.time(sweep.run_tenants, **kwargs)
            wall = watch.segments[-1]
            dispatch = dict(runner.last_dispatch)
            if cold.exit_code != 0:
                violations.append(f"cold sweep exit code {cold.exit_code}")
            warm = []
            for _ in range(TENANT_WARM_RERUNS):
                again = watch.time(sweep.run_tenants, **kwargs)
                warm.append(watch.segments[-1])
                if again.fingerprint != cold.fingerprint or not all(c.cached for c in again.cells):
                    violations.append("a cached re-run was not served byte-identically from the cache")
            paths = cache.entry_paths()
            counts = {
                "hits": cache.hits,
                "misses": cache.misses,
                "bytes": sum(p.stat().st_size for p in paths),
            }
        # Entries are this process's own pickles; map them to cells by the
        # fingerprint digest both carry.
        by_digest = {}
        for path in paths:
            with open(path, "rb") as fh:
                entry = pickle.load(fh)
            by_digest[entry["fingerprint"]] = entry["summary"]
    summaries = {f"{c.policy}@{c.intensity:g}": by_digest[c.digest] for c in cold.cells}
    return Rep(
        wall_s=wall,
        summaries=summaries,
        fingerprint=cold.fingerprint,
        warm_s=warm,
        dispatch=dispatch,
        cache=counts,
        retried=sum(1 for c in cold.cells if c.status == "retried"),
        violations=violations,
    )


def _tenant_metrics(rep: Rep) -> Dict[str, float]:
    quiet = rep.summaries[f"ioca@{min(TENANT_INTENSITIES):g}"]
    noisy = rep.summaries[f"ioca@{max(TENANT_INTENSITIES):g}"]
    # Victim latency comes from the quiet cell: in the noisy cell it
    # depends on how the aggressor's heavy-tailed bursts line up with the
    # victim's, and its p95 moves by up to 11% between seeds (2.7% in the
    # quiet cell).  The victim completes 144 packets, so its p99 would
    # rest on one packet; the tail is its p95.  Work per packet comes
    # from the noisy cell, where the aggressor's full ring caps it.
    victim = quiet.tenant_stats[VICTIM]
    return _packet_metrics(noisy, victim["p50_us"], victim["p95_us"], int(victim["completed"]))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "burst_ddio",
            _burst_experiments,
            lambda seed, smoke, jobs, watch: _run_batch(_burst_experiments(seed, smoke), watch),
            _burst_metrics,
        ),
        Workload(
            "fig10_corun",
            _fig10_experiments,
            lambda seed, smoke, jobs, watch: _run_batch(_fig10_experiments(seed, smoke), watch),
            _fig10_metrics,
        ),
        Workload(
            "l2fwd_poisson",
            _poisson_experiments,
            lambda seed, smoke, jobs, watch: _run_batch(_poisson_experiments(seed, smoke), watch),
            _poisson_metrics,
        ),
        Workload(
            "tenants_sweep",
            _tenant_experiments,
            _run_tenants,
            _tenant_metrics,
            pooled=True,
        ),
    )
}


# -- gates and model counts ---------------------------------------------------


def accounting_violations(rep: Rep) -> List[str]:
    """Packet accounting: offered = received + dropped, completed = received."""
    out = []
    for label, s in rep.summaries.items():
        if s.offered_packets != s.rx_packets + s.rx_drops:
            out.append(
                f"{label}: offered {s.offered_packets} != received {s.rx_packets} + dropped {s.rx_drops}"
            )
        if s.completed != s.rx_packets:
            out.append(f"{label}: completed {s.completed} != received {s.rx_packets}")
    return out


def drop_frac(rep: Rep) -> float:
    offered = sum(s.offered_packets for s in rep.summaries.values())
    return sum(s.rx_drops for s in rep.summaries.values()) / offered


def model_counts(rep: Rep) -> Dict[str, float]:
    """Deterministic model counts summed over the rep's simulations."""
    summaries = list(rep.summaries.values())

    def window(name: str) -> int:
        return sum(getattr(s.window, name) for s in summaries)

    def counter(name: str) -> int:
        return sum(s.counters.get(name, 0) for s in summaries)

    def decisions(name: str) -> int:
        return sum(s.decisions.get(name, 0) for s in summaries)

    completed = sum(s.completed for s in summaries)

    def mean_breakdown(name: str) -> float:
        return sum(s.latency_breakdown[name] * s.completed for s in summaries) / completed

    lookups = counter("llc_hits") + counter("llc_misses")
    return {
        "model.events": rep.events,
        "model.pcie_writes": window("pcie_writes"),
        "model.pcie_reads": counter("pcie_reads"),
        "model.mlc_writebacks": window("mlc_writebacks"),
        "model.llc_writebacks": window("llc_writebacks"),
        "model.dram_reads": window("dram_reads"),
        "model.dram_writes": window("dram_writes"),
        "model.mlc_invalidations": window("mlc_invalidations"),
        "model.ddio_allocations": counter("ddio_allocations"),
        "model.llc_hit_ratio": counter("llc_hits") / lookups if lookups else 0.0,
        "model.mean_queueing_ns": mean_breakdown("mean_queueing_ns"),
        "model.mean_service_ns": mean_breakdown("mean_service_ns"),
        "model.decisions.header_prefetch": decisions("header_prefetch"),
        "model.decisions.direct_dram": decisions("direct_dram"),
        "model.decisions.mlc_prefetch": decisions("mlc_prefetch"),
    }
