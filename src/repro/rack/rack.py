"""The simulated rack: a ToR load balancer over N simulated servers.

A :class:`SimulatedRack` models the tier the single-server reproduction
was missing: a top-of-rack switch whose flow table tracks the rack's
whole flow population and steers each flow to one server
(:class:`~repro.net.flow.FlowSteering`), with the aggregate offered load
split across servers by their flow share.  Each server is an unmodified
:class:`~repro.harness.server.ServerConfig` stack wrapped in one
:class:`~repro.harness.experiment.Experiment`, one cell of a one-axis
(``server``) :class:`~repro.harness.matrix.Matrix`.  The sweep shards
those experiments across the warm process pool
(:func:`~repro.harness.runner.run_sweep`); the result's table carries
one row per server plus the rack's :func:`aggregate` row, and its
fingerprint folds the steering configuration with the per-server digests.

Determinism: every per-server stochastic choice draws from a seeded
*per-server* RNG stream derived from the rack seed (:func:`server_rng`)
— never from shared module-level randomness (simlint SIM009 enforces
this for the whole package) — so a serial sweep and a pool-sharded sweep
produce byte-identical rack fingerprints.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, Sequence

from ..harness import metrics
from ..harness.experiment import Experiment, ExperimentSummary
from ..harness.matrix import Cell, Matrix, SweepResult
from ..harness.runner import run_sweep
from ..net.flow import FlowSteering, _mix64, make_flows
from ..obs.events import LaneMark, LaneSeries
from ..sim import units
from .config import RackConfig

#: Streams rendered as per-server lanes on the rack trace.
LANE_STREAMS = ("pcie_writes", "mlc_writebacks", "llc_writebacks", "dram_writes")

#: The latency percentiles every server and the aggregate report.
PERCENTILES = (50, 95, 99)

RACK_COLUMNS = ("server", "flows", "offered", "completed", "drops",
                ("p50 us", "p50"), ("p95 us", "p95"), ("p99 us", "p99"), "digest")


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
        self.steering = FlowSteering(
            config.num_servers,
            mode=config.steering,
            table_bits=config.table_bits,
            seed=config.seed,
        )
        #: Flows of the ToR's tracked population (deterministic 5-tuples)
        #: steered to each server (index = server).
        self.flow_counts = self.steering.assignment_counts(make_flows(config.total_flows))

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

    def matrix(self) -> Matrix:
        """The rack as a sweep: one ``server`` axis, one cell per server."""
        config = self.config

        def server_json(cell: Cell) -> Dict[str, Any]:
            return {
                "name": cell.summary.experiment.name,
                "flows": self.flow_counts[cell.server],
                **_counts([cell.summary]),
            }

        def rows(result: SweepResult) -> Iterator[Dict[str, Any]]:
            for label, counts, digest in [
                *((f"s{c.server:02d}", server_json(c), c.digest) for c in result.cells),
                ("rack", {"flows": config.total_flows, **aggregate(result)}, result.fingerprint),
            ]:
                yield {"server": label, "flows": counts["flows"], "offered": counts["offered"],
                       "completed": counts["completed"], "drops": counts["drops"],
                       **counts["percentiles_us"], "digest": digest[:12]}

        def fold(result: SweepResult) -> tuple:
            # Every part is process-stable (the steering digest avoids
            # ``hash()``; summary digests exclude wall-clock diagnostics),
            # so serial and pool-sharded sweeps fold identically.
            return (
                config.steering,
                self.steering.digest(),
                config.total_flows,
                tuple(self.flow_counts),
                tuple(cell.digest for cell in result.cells),
            )

        def info(result: SweepResult) -> Dict[str, Any]:
            return {
                "name": config.name,
                "policy": config.server.policy.name,
                "num_servers": config.num_servers,
                "steering": config.steering,
                "total_flows": config.total_flows,
                "aggregate": aggregate(result),
            }

        def lanes(result: SweepResult) -> Iterator[object]:
            for cell in result.cells:
                process = f"server-{cell.server}"
                for stream in LANE_STREAMS:
                    points = tuple(cell.summary.timeline(stream, bin_us=10.0))
                    yield LaneSeries(process, stream, points, unit="mtps")
                server = server_json(cell)
                yield LaneMark(
                    process,
                    "completion",
                    f"{process} done",
                    category="rack",
                    args={"flows": server["flows"], "completed": server["completed"],
                          "drops": server["drops"], "fingerprint": cell.digest},
                )

        return Matrix.build(
            ("server",),
            [(server,) for server in range(config.num_servers)],
            self.server_experiment,
            title=(
                f"{config.name}: {config.num_servers} servers "
                f"({config.server.policy.name}, {config.steering} steering, "
                f"{config.total_flows} flows)"
            ),
            columns=RACK_COLUMNS,
            rows=rows,
            fold=fold,
            info=info,
            cell_info=server_json,
            lanes=lanes,
        )

    def run(self, jobs: int = 1, cache=None) -> SweepResult:
        """Run every server (sharded over the warm pool when ``jobs > 1``).

        With a result cache (explicit ``cache=`` or the installed
        process default; ``cache=False`` disables), the sweep is
        *incremental*: each per-server experiment is keyed independently,
        so re-running an N-server rack after changing one server's share
        recomputes only the shards whose configs moved — the rest are
        served from the cache and their cells are marked ``cached``.  The
        rack fingerprint is unaffected: cached digests are byte-identical
        to cold recomputes.  The first failed server's exception is
        re-raised, as :func:`~repro.harness.runner.run_experiments` does.
        """
        result = run_sweep(self.matrix(), jobs=jobs, retries=0, cache=cache)
        result.raise_first_failure()
        return result


def _counts(summaries: Sequence[ExperimentSummary]) -> Dict[str, Any]:
    """Packet totals, and latency percentiles pooled over every completed
    packet (``None`` when none completed)."""
    latencies = [latency for s in summaries for latency in s.latencies_ns]
    return {
        "offered": sum(s.offered_packets for s in summaries),
        "rx": sum(s.rx_packets for s in summaries),
        "drops": sum(s.rx_drops for s in summaries),
        "completed": sum(s.completed for s in summaries),
        "percentiles_us": {
            f"p{p}": metrics.percentile(latencies, p) / 1000.0 if latencies else None
            for p in PERCENTILES
        },
    }


def aggregate(result: SweepResult) -> Dict[str, Any]:
    """The rack row: fleet totals and percentiles over every server."""
    return _counts([cell.summary for cell in result.cells])


def run_rack(config: RackConfig, jobs: int = 1, cache=None) -> SweepResult:
    """Build a rack and run one sweep; the one-call entry point."""
    return SimulatedRack(config).run(jobs=jobs, cache=cache)


__all__ = [
    "LANE_STREAMS",
    "PERCENTILES",
    "SimulatedRack",
    "aggregate",
    "run_rack",
    "server_rng",
]
