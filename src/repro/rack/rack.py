"""The simulated rack: a ToR load balancer over N simulated servers.

A :class:`SimulatedRack` models the tier the single-server reproduction
was missing: a top-of-rack switch whose flow table tracks the rack's
whole flow population and steers each flow to one server
(:class:`~repro.net.flow.FlowSteering`), with the aggregate offered load
split across servers by their flow share.  Each server is an unmodified
:class:`~repro.harness.server.ServerConfig` stack wrapped in one
:class:`~repro.harness.experiment.Experiment`; the sweep shards those
per-server experiments across the warm process pool
(:func:`~repro.harness.runner.run_experiments`) and folds the summaries
into a :class:`~repro.rack.summary.RackSummary`.

Determinism: every per-server stochastic choice draws from a seeded
*per-server* RNG stream derived from the rack seed (:func:`server_rng`)
— never from shared module-level randomness (simlint SIM009 enforces
this for the whole package) — so a serial sweep and a pool-sharded sweep
produce byte-identical rack fingerprints.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import List, Optional, Sequence

from ..harness.experiment import Experiment, ExperimentSummary
from ..harness.runner import run_experiments
from ..net.flow import FlowSteering, _mix64, make_flows
from ..obs.bus import EventBus
from ..obs.events import LaneSeries, ServerCompletedEvent
from ..sim import units
from .config import RackConfig
from .summary import RackSummary, fingerprint_digest

#: Streams rendered as per-server lanes on the rack trace.
LANE_STREAMS = ("pcie_writes", "mlc_writebacks", "llc_writebacks", "dram_writes")


def server_rng(seed: int, server: int) -> random.Random:
    """The seeded RNG stream for one server of a rack.

    Streams for distinct servers are decorrelated by a 64-bit avalanche
    mix of ``(rack seed, server index)``; the same pair always yields the
    same stream, which is what keeps sharded sweeps byte-identical to
    serial ones.
    """
    if server < 0:
        raise ValueError(f"server index must be non-negative, got {server}")
    return random.Random(_mix64(((seed & 0xFFFF_FFFF) << 24) ^ (server + 1)))


class SimulatedRack:
    """One rack instance: steering state plus per-server experiments."""

    def __init__(self, config: RackConfig) -> None:
        self.config = config
        #: The ToR's tracked flow population (deterministic 5-tuples).
        self.flows = make_flows(config.total_flows)
        self.steering = FlowSteering(
            config.num_servers,
            mode=config.steering,
            table_bits=config.table_bits,
            seed=config.seed,
        )
        #: Flows steered to each server (index = server).
        self.flow_counts = self.steering.assignment_counts(self.flows)
        #: Rack-level observability bus (per-server lanes ride on it).
        self.bus = EventBus()

    # ------------------------------------------------------------------
    # experiment construction
    # ------------------------------------------------------------------

    def server_experiment(self, server: int) -> Experiment:
        """The per-server experiment for one lane of the rack.

        The server's share of the rack's aggregate load follows its flow
        share; within the server the load splits evenly across NF cores.
        A server that drew zero flows runs an idle experiment (zero
        traffic, minimal drain) so every lane still produces a summary
        and a fingerprint.
        """
        config = self.config
        flows = self.flow_counts[server]
        rng = server_rng(config.seed, server)
        traffic_seed = rng.getrandbits(32)
        name = f"{config.name}-s{server:02d}"
        if flows == 0:
            return Experiment(
                name=name,
                server=config.server,
                traffic="steady",
                steady_rate_gbps_per_nf=1.0,
                steady_duration=0,
                drain_allowance=units.microseconds(10),
            )
        share = flows / config.total_flows
        per_nf = config.offered_gbps * share / max(1, config.server.num_nf_cores)
        return Experiment(
            name=name,
            server=config.server,
            traffic=config.traffic,
            traffic_seed=traffic_seed,
            steady_rate_gbps_per_nf=per_nf,
            steady_duration=units.microseconds(config.duration_us),
            heavy_tail_alpha=config.heavy_tail_alpha,
            diurnal_peak_gbps_per_nf=per_nf * config.diurnal_peak_ratio,
            diurnal_period=units.microseconds(config.diurnal_period_us),
        )

    def experiments(self) -> List[Experiment]:
        """One experiment per server, in server order."""
        return [
            self.server_experiment(i) for i in range(self.config.num_servers)
        ]

    def with_checked_servers(self) -> "SimulatedRack":
        """A copy of this rack with the invariant sanitizer on every server."""
        config = replace(
            self.config, server=replace(self.config.server, checked_mode=True)
        )
        return SimulatedRack(config)

    # ------------------------------------------------------------------
    # sweep
    # ------------------------------------------------------------------

    def run(self, jobs: int = 1, cache=None) -> RackSummary:
        """Run every server (sharded over the warm pool when ``jobs > 1``)
        and fold the per-server summaries into a :class:`RackSummary`.

        With a result cache (explicit ``cache=`` or the installed
        process default; ``cache=False`` disables), the sweep is
        *incremental*: each per-server experiment is keyed independently,
        so re-running an N-server rack after changing one server's share
        recomputes only the shards whose configs moved — the rest are
        served from the cache and their lanes are marked ``cached``.  The
        rack fingerprint is unaffected: cached digests are byte-identical
        to cold recomputes.
        """
        summaries = run_experiments(self.experiments(), jobs=jobs, cache=cache)
        return self.fold(summaries)

    def fold(self, summaries: Sequence[ExperimentSummary]) -> RackSummary:
        """Fold per-server summaries (server order) and publish lanes.

        A lane is marked ``cached`` when its summary was served from the
        result cache (the sweep runner's ``"cached"`` status).
        """
        rack_summary = RackSummary.from_summaries(
            self.config, self.flow_counts, summaries, self.steering.digest()
        )
        for lane, summary in zip(rack_summary.lanes, summaries):
            lane.cached = summary.status == "cached"
        self._publish_lanes(summaries, rack_summary)
        return rack_summary

    def _publish_lanes(
        self,
        summaries: Sequence[ExperimentSummary],
        rack_summary: RackSummary,
    ) -> None:
        """Publish per-server lane events on the rack bus.

        Lane *series* (binned throughput timelines per stream) are only
        materialized when someone subscribed — they are the expensive
        part; completion events are always published.
        """
        want_series = self.bus.has_subscribers(LaneSeries)
        for lane, summary in zip(rack_summary.lanes, summaries):
            if want_series:
                for stream in LANE_STREAMS:
                    self.bus.publish(
                        LaneSeries(
                            process=f"server-{lane.server}",
                            lane=stream,
                            points=tuple(summary.timeline(stream, bin_us=10.0)),
                            unit="mtps",
                        )
                    )
            self.bus.publish(
                ServerCompletedEvent(
                    server=lane.server,
                    flows=lane.flows,
                    completed=lane.completed,
                    drops=lane.drops,
                    fingerprint=lane.digest,
                    cached=lane.cached,
                )
            )


def run_rack(
    config: RackConfig,
    jobs: int = 1,
    rack: Optional[SimulatedRack] = None,
    cache=None,
) -> RackSummary:
    """Build (or reuse) a rack and run one sweep; the one-call entry point."""
    if rack is None:
        rack = SimulatedRack(config)
    return rack.run(jobs=jobs, cache=cache)


__all__ = [
    "LANE_STREAMS",
    "SimulatedRack",
    "fingerprint_digest",
    "run_rack",
    "server_rng",
]
