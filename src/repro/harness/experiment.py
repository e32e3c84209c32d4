"""Experiment runner: one (policy, workload) run with derived metrics.

An :class:`Experiment` describes the workload; :func:`run_experiment`
builds a :class:`~repro.harness.server.SimulatedServer`, drives it, and
returns an :class:`ExperimentResult` with all the figure-level metrics
(window statistics, timelines, latency percentiles, burst processing
time).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.cachedirector import CacheDirectorController
from ..core.controller import IDIOController
from ..core.policies import PolicyConfig
from ..mem import stats as stats_mod
from ..mem.line import LINE_SIZE
from ..net.traffic import TrafficProfile, make_profile
from ..sim import units
from . import metrics
from .server import ServerConfig, SimulatedServer, WarmCheckpoint

#: Event streams whose raw timestamps an :class:`ExperimentSummary` keeps,
#: so summary timelines/window counts bin exactly like the live event log.
#: The summary holds each one as an ``array('q')``: 8 bytes per event in
#: one buffer, which pickles as raw bytes (a list of ints costs about 40
#: bytes per event once unpickled).
SUMMARY_STREAMS: Tuple[str, ...] = (
    "pcie_writes",
    "mlc_writebacks",
    "llc_writebacks",
    "mlc_invalidations",
    "dram_reads",
    "dram_writes",
)

#: Tick the offered traffic starts at, after warm-up settles.
TRAFFIC_START = units.microseconds(20)


@dataclass
class Experiment:
    """One workload description, independent of the placement policy."""

    name: str = "experiment"
    server: ServerConfig = field(default_factory=ServerConfig)
    #: One of :data:`~repro.net.traffic.TRAFFIC_KINDS`.
    traffic: str = "bursty"
    #: Seed for the stochastic traffic kinds (poisson/imix/heavytail/diurnal);
    #: NF generator ``i`` draws from ``traffic_seed + i``.
    traffic_seed: int = 0
    burst_rate_gbps: float = 100.0
    packets_per_burst: Optional[int] = None
    num_bursts: int = 1
    burst_period: int = units.milliseconds(10)
    steady_rate_gbps_per_nf: float = 10.0
    steady_duration: int = units.milliseconds(1)
    #: Pareto shape for ``traffic="heavytail"`` (must exceed 1).
    heavy_tail_alpha: float = 1.5
    #: Peak rate for ``traffic="diurnal"``; the trough is
    #: ``steady_rate_gbps_per_nf`` (``None`` = 2x the trough).
    diurnal_peak_gbps_per_nf: Optional[float] = None
    #: One simulated "day" for ``traffic="diurnal"``.
    diurnal_period: int = units.milliseconds(1)
    #: Extra time after the traffic ends to let the CPUs drain the rings.
    drain_allowance: int = units.milliseconds(8)

    def __post_init__(self) -> None:
        # Build (and so validate) the traffic now, not inside the run.
        self.traffic_profile(self.traffic_seed)

    def with_policy(self, policy: PolicyConfig) -> "Experiment":
        return replace(self, server=replace(self.server, policy=policy))

    def traffic_profile(self, seed: int) -> TrafficProfile:
        """The profile one NF generator follows under ``seed``.  Bursts
        default to one ring fill each (the paper's burst length)."""
        rate = self.steady_rate_gbps_per_nf
        peak = self.diurnal_peak_gbps_per_nf
        return make_profile(
            self.traffic,
            burst_rate_gbps=self.burst_rate_gbps,
            packets_per_burst=self.packets_per_burst or self.server.ring_size,
            burst_period=self.burst_period,
            num_bursts=self.num_bursts,
            rate_gbps=rate,
            trough_rate_gbps=rate,
            peak_rate_gbps=2.0 * rate if peak is None else peak,
            period=self.diurnal_period,
            alpha=self.heavy_tail_alpha,
            duration=self.steady_duration,
            packet_bytes=self.server.packet_bytes,
            start=TRAFFIC_START,
            seed=seed,
        )


def _normalized_exe_time(
    value: Optional[int], baseline: Optional[int]
) -> Optional[float]:
    """``value / baseline`` with explicit degenerate-baseline semantics.

    A zero baseline (a baseline run that processed its burst in literally
    zero ticks — possible for empty/degenerate workloads) must not raise
    out of a figure sweep: the ratio is ``inf`` when the comparison run
    took any time at all and ``0.0`` when both took none.  ``None`` on
    either side means the metric is unavailable and is skipped.
    """
    if value is None or baseline is None:
        return None
    if baseline == 0:
        return float("inf") if value > 0 else 0.0
    return value / baseline


@dataclass
class ExperimentSummary:
    """The slim, picklable slice of a run the figure harness consumes.

    An :class:`ExperimentResult` drags the whole :class:`SimulatedServer`
    (caches, rings, per-packet objects) — cheap to hand around in-process,
    but unserializable in practice and a memory leak across a sweep.  The
    summary carries only derived data: window statistics, the raw
    timestamp arrays of the :data:`SUMMARY_STREAMS`, latencies, counters,
    and a handful of scalars the figures and extensions read off the
    server.  Everything here pickles, so it is also the unit of transfer
    for the process-pool runner (``repro.harness.runner``).
    """

    experiment: Experiment
    policy_name: str
    window: metrics.WindowStats
    offered_packets: int
    rx_packets: int
    rx_drops: int
    completed: int
    tx_packets: int
    burst_processing_time: Optional[int]
    latencies_ns: List[float]
    antagonist_access_ns: Optional[float]
    antagonist_accesses: int
    decisions: Dict[str, int]
    #: Full counter snapshot (``direct_dram_writes``, ``back_invalidations`` ...).
    counters: Dict[str, int]
    #: Raw timestamps per stream in :data:`SUMMARY_STREAMS`, as ``array('q')``.
    event_streams: Dict[str, array[int]]
    latency_breakdown: Dict[str, float]
    #: Per-core ``stats.mem_accesses`` (NF cores first, antagonist last).
    core_mem_accesses: List[int]
    #: Per-NF-driver mean completed-packet latency in microseconds.
    per_core_mean_latency_us: List[float]
    #: NIC classifier bursts (0 when no classifier is attached).
    bursts_detected: int
    #: CacheDirector slice steers (0 when not configured).
    headers_steered: int
    #: Wall-clock diagnostics of the producing simulation.
    events_fired: int
    wall_seconds: float
    events_per_second: float
    #: Outcome assigned by the sweep runner: "ok" for a clean first-try
    #: run, "retried" when a crash was retried successfully ("timeout"
    #: and "failed" runs never produce a summary — see
    #: :class:`repro.harness.runner.SweepRecord`).
    status: str = "ok"
    #: Worker attempts this summary took (1 unless the runner retried).
    attempts: int = 1
    #: Injected-fault counts by kind (empty for a fault-free run).
    fault_counts: Dict[str, int] = field(default_factory=dict)
    #: Per-tenant attribution (empty for an untenanted server): tenant id
    #: -> ``{"completed", "p50_us", "p95_us", "p99_us", "dma_writes",
    #: "io_lines", "io_ways"}``.  Percentiles use 0.0 as the "no
    #: completions" sentinel (never ``None`` — the dict stays
    #: homogeneous and fingerprintable).
    tenant_stats: Dict[int, Dict[str, float]] = field(default_factory=dict)

    @property
    def p50_ns(self) -> Optional[float]:
        if not self.latencies_ns:
            return None
        return metrics.percentile(self.latencies_ns, 50)

    @property
    def p99_ns(self) -> Optional[float]:
        if not self.latencies_ns:
            return None
        return metrics.percentile(self.latencies_ns, 99)

    def latency_breakdown_ns(self) -> Dict[str, float]:
        return dict(self.latency_breakdown)

    def _stream(self, stream: str) -> array[int]:
        try:
            return self.event_streams[stream]
        except KeyError:
            raise KeyError(
                f"stream {stream!r} not captured in summary; available: "
                f"{sorted(self.event_streams)}"
            ) from None

    def count_between(self, stream: str, start: int, end: int) -> int:
        """Events of a captured stream in ``[start, end)``."""
        return stats_mod.count_between(self._stream(stream), start, end)

    def timeline(self, stream: str, bin_us: float = 10.0) -> List[Tuple[float, float]]:
        """(time_us, MTPS) series for a captured stream over the run window."""
        return stats_mod.mtps_series(
            self._stream(stream),
            units.microseconds(bin_us),
            self.window.start,
            self.window.end,
        )

    def rate_per_rx_line(self, name: str) -> float:
        """Window count of a stat normalized to RX line rate (Fig. 4)."""
        rx = self.window.pcie_writes
        if rx == 0:
            return 0.0
        return getattr(self.window, name) / rx

    def dram_gbps(self, name: str) -> float:
        """Average bandwidth of ``dram_reads``/``dram_writes`` over the window."""
        if self.window.duration <= 0:
            return 0.0
        count = getattr(self.window, name)
        return units.bytes_to_gbps(count * LINE_SIZE, self.window.duration)

    def normalized_to(self, baseline: "ExperimentSummary") -> Dict[str, float]:
        """Fig. 10-style normalization against a baseline run."""
        values = self.window.normalized_to(baseline.window)
        exe_time = _normalized_exe_time(
            self.burst_processing_time, baseline.burst_processing_time
        )
        if exe_time is not None:
            values["exe_time"] = exe_time
        return values

    def fingerprint(self) -> Tuple:
        """A deterministic digest of everything simulation-derived.

        Excludes the wall-clock diagnostics (``wall_seconds`` and
        ``events_per_second`` vary run to run even for identical
        simulations); two runs of the same seeded experiment must produce
        equal fingerprints whether they ran serially or in a worker
        process.  Each event stream appears as its stored ``array('q')``;
        :func:`~repro.analysis.determinism.fingerprint_digest` writes it as
        the tuple of its timestamps.
        """
        return (
            self.policy_name,
            (self.window.start, self.window.end, self.window.mlc_writebacks,
             self.window.llc_writebacks, self.window.dram_reads,
             self.window.dram_writes, self.window.mlc_invalidations,
             self.window.pcie_writes),
            self.offered_packets,
            self.rx_packets,
            self.rx_drops,
            self.completed,
            self.tx_packets,
            self.burst_processing_time,
            tuple(self.latencies_ns),
            self.antagonist_access_ns,
            self.antagonist_accesses,
            tuple(sorted(self.decisions.items())),
            tuple(sorted(self.counters.items())),
            tuple(sorted(self.event_streams.items())),
            tuple(sorted(self.latency_breakdown.items())),
            tuple(self.core_mem_accesses),
            tuple(self.per_core_mean_latency_us),
            self.bursts_detected,
            self.headers_steered,
            self.events_fired,
            tuple(sorted(self.fault_counts.items())),
            tuple(
                (tenant, tuple(sorted(stats.items())))
                for tenant, stats in sorted(self.tenant_stats.items())
            ),
        )


@dataclass
class ExperimentResult:
    """Everything the figure benchmarks consume, plus the live server.

    Holding the server keeps every cache/ring/packet object reachable —
    convenient for white-box tests, but heavy.  Sweeps should convert to
    :meth:`summary` (and :meth:`drop_server`) as soon as the run finishes;
    the parallel runner does this inside the worker process.
    """

    experiment: Experiment
    policy_name: str
    window: metrics.WindowStats
    offered_packets: int
    rx_packets: int
    rx_drops: int
    completed: int
    burst_processing_time: Optional[int]
    latencies_ns: List[float]
    antagonist_access_ns: Optional[float]
    antagonist_accesses: int
    decisions: Dict[str, int]
    server: Optional[SimulatedServer]

    def _require_server(self) -> SimulatedServer:
        if self.server is None:
            raise RuntimeError(
                "server was dropped from this ExperimentResult; use the "
                "ExperimentSummary captured before drop_server()"
            )
        return self.server

    @property
    def p50_ns(self) -> Optional[float]:
        if not self.latencies_ns:
            return None
        return metrics.percentile(self.latencies_ns, 50)

    @property
    def p99_ns(self) -> Optional[float]:
        if not self.latencies_ns:
            return None
        return metrics.percentile(self.latencies_ns, 99)

    def latency_breakdown_ns(self) -> Dict[str, float]:
        """Mean queueing delay vs service time of completed packets.

        Queueing delay covers NIC pipeline + descriptor writeback + ring
        wait + batching; service time is the pure processing component.
        When the server ran with tracing enabled, the recorder's real
        per-component split (``mean_l1_ns``/``mean_mlc_ns``/...) is folded
        in on top.
        """
        from ..obs.trace import merge_latency_breakdowns
        from ..sim import units as _units

        server = self._require_server()
        packets = server.completed_packets()
        queueing = [p.queueing_delay for p in packets if p.queueing_delay is not None]
        service = [p.service_time for p in packets if p.service_time is not None]
        breakdown = {
            "mean_queueing_ns": (
                _units.to_nanoseconds(sum(queueing)) / len(queueing) if queueing else 0.0
            ),
            "mean_service_ns": (
                _units.to_nanoseconds(sum(service)) / len(service) if service else 0.0
            ),
        }
        return merge_latency_breakdowns(breakdown, server.trace_recorder)

    def timeline(self, stream: str, bin_us: float = 10.0) -> List[Tuple[float, float]]:
        """(time_us, MTPS) series for a stat stream over the run window."""
        return metrics.timeline_mtps(
            self._require_server().stats,
            stream,
            self.window.start,
            self.window.end,
            bin_ticks=units.microseconds(bin_us),
        )

    def normalized_to(self, baseline: "ExperimentResult") -> Dict[str, float]:
        """Fig. 10-style normalization against a baseline run."""
        values = self.window.normalized_to(baseline.window)
        exe_time = _normalized_exe_time(
            self.burst_processing_time, baseline.burst_processing_time
        )
        if exe_time is not None:
            values["exe_time"] = exe_time
        return values

    def summary(self, streams: Sequence[str] = SUMMARY_STREAMS) -> ExperimentSummary:
        """Derive the slim :class:`ExperimentSummary` from the live server."""
        server = self._require_server()
        events = server.stats.events
        per_core_latency: List[float] = []
        for driver in server.drivers:
            lats = [p.latency for p in driver.completed_packets if p.latency]
            per_core_latency.append(
                units.to_microseconds(sum(lats) // len(lats)) if lats else 0.0
            )
        bursts = sum(
            nic.classifier.bursts_detected
            for nic in server.nics
            if nic.classifier is not None
        )
        steered = 0
        if isinstance(server.steering, CacheDirectorController):
            steered = server.steering.headers_steered
        return ExperimentSummary(
            experiment=self.experiment,
            policy_name=self.policy_name,
            window=self.window,
            offered_packets=self.offered_packets,
            rx_packets=self.rx_packets,
            rx_drops=self.rx_drops,
            completed=self.completed,
            tx_packets=server.total_tx,
            burst_processing_time=self.burst_processing_time,
            latencies_ns=list(self.latencies_ns),
            antagonist_access_ns=self.antagonist_access_ns,
            antagonist_accesses=self.antagonist_accesses,
            decisions=dict(self.decisions),
            counters=server.stats.counters.snapshot(),
            event_streams={s: array("q", events.timestamps(s)) for s in streams},
            latency_breakdown=self.latency_breakdown_ns(),
            core_mem_accesses=[c.stats.mem_accesses for c in server.cores],
            per_core_mean_latency_us=per_core_latency,
            bursts_detected=bursts,
            headers_steered=steered,
            events_fired=server.sim.events_fired,
            wall_seconds=server.sim.wall_seconds,
            events_per_second=server.sim.events_per_second,
            fault_counts=dict(server.fault_counts),
            tenant_stats=server.tenant_stats(),
        )

    def drop_server(self) -> None:
        """Release the simulated server (and with it most of the run's memory).

        After this, only the summary-level fields remain usable; call
        :meth:`summary` first if the derived data is still needed.
        """
        server = self.server
        if server is not None:
            server.sim.discard_pending()
            # An attached recorder or sanitizer and the hierarchy it
            # observes refer to each other; detaching breaks that cycle
            # so the server is freed at once, not at the next collection.
            for observer in (server.trace_recorder, server.sanitizer):
                if observer is not None:
                    observer.detach()
        self.server = None


def run_experiment(
    experiment: Experiment, warm: Optional[WarmCheckpoint] = None
) -> ExperimentResult:
    """Build the server, inject traffic, run to drain, derive metrics.

    ``warm`` is the sweep's warm-up checkpoint (see
    :meth:`SimulatedServer.start`); it never changes the result.
    """
    server = SimulatedServer(experiment.server)
    server.start(warm)

    tenants = experiment.server.tenants
    if tenants is not None:
        # Each tenant's flows follow the tenant's own profile, seeded from
        # its RNG stream.  The deadline stays at the end of the steady
        # window even when a bursty tenant outlasts it.
        profiles = tenants.traffic_profiles(
            experiment.steady_duration,
            start=TRAFFIC_START,
            packet_bytes=experiment.server.packet_bytes,
        )
        traffic_end = TRAFFIC_START + experiment.steady_duration
    else:
        profiles = [
            experiment.traffic_profile(experiment.traffic_seed + i)
            for i in range(len(server.generators))
        ]
        traffic_end = experiment.traffic_profile(experiment.traffic_seed).end
    offered = server.inject_traffic(profiles)

    deadline = traffic_end + experiment.drain_allowance
    end_time = server.run_until_drained(deadline)
    server.stop()

    window = metrics.window_stats(server.stats, 0, end_time)
    completions = [
        p.completion_time
        for p in server.completed_packets()
        if p.completion_time is not None
    ]
    bpt = metrics.burst_processing_time(server.stats, completions)

    antagonist_ns: Optional[float] = None
    antagonist_accesses = 0
    if server.config.antagonist:
        # The ``antagonist=True`` core is always the first antagonist.
        antagonist = server.antagonists[0]
        stats = antagonist.core.stats
        antagonist_accesses = stats.mem_accesses
        # Average access latency *during the contention window* (traffic
        # start to last packet completion) — the paper's CPI comparison is
        # over the co-run, not the post-burst idle tail.
        window_end = max(completions) if completions else end_time
        antagonist_ns = antagonist.access_ns_between(
            TRAFFIC_START, window_end
        )
        if antagonist_ns is None:
            antagonist_ns = stats.average_access_ns()

    idio_steering = isinstance(server.steering, IDIOController)
    return ExperimentResult(
        experiment=experiment,
        policy_name=experiment.server.policy.name,
        window=window,
        offered_packets=offered,
        rx_packets=server.total_rx,
        rx_drops=server.total_drops,
        completed=len(completions),
        burst_processing_time=bpt,
        latencies_ns=server.packet_latencies_ns(),
        antagonist_access_ns=antagonist_ns,
        antagonist_accesses=antagonist_accesses,
        decisions=dict(server.steering.decisions) if idio_steering else {},
        server=server,
    )


def run_policy_comparison(
    experiment: Experiment, policies: List[PolicyConfig], jobs: int = 1
) -> Dict[str, ExperimentSummary]:
    """Run the same workload under several policies (Fig. 9/10 pattern).

    Returns summaries (not full results) so the comparison can fan out
    over a process pool with ``jobs > 1``; use :func:`run_experiment`
    directly when the live server is needed.
    """
    from .runner import run_experiments

    summaries = run_experiments(
        [experiment.with_policy(p) for p in policies], jobs=jobs
    )
    return {p.name: s for p, s in zip(policies, summaries)}
