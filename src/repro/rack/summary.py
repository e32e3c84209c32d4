"""Folding a rack sweep's per-server summaries into one report.

A :class:`RackSummary` is to a rack what
:class:`~repro.harness.experiment.ExperimentSummary` is to one server:
the slim, deterministic slice of a fleet run.  It carries one
:class:`ServerLane` per server (flow share, throughput counters, p50/
p95/p99 latency percentiles, and the server's fingerprint digest) plus
rack-level aggregates — pooled latency percentiles over every completed
packet in the fleet and a deterministic rack fingerprint combining the
per-server digests with the steering configuration.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..harness import metrics
from ..harness.experiment import ExperimentSummary
from ..harness.report import format_table

#: The latency percentiles every lane and the aggregate report.
PERCENTILES = (50, 95, 99)


def _percentiles_us(latencies_ns: Sequence[float]) -> Dict[int, Optional[float]]:
    """{percentile: value in us} (``None`` when no packets completed)."""
    if not latencies_ns:
        return {p: None for p in PERCENTILES}
    return {
        p: metrics.percentile(latencies_ns, p) / 1000.0 for p in PERCENTILES
    }


@dataclass
class ServerLane:
    """One server's slice of a rack sweep."""

    server: int
    name: str
    flows: int
    offered: int
    rx: int
    drops: int
    completed: int
    percentiles_us: Dict[int, Optional[float]]
    events_fired: int
    wall_seconds: float
    #: ``fingerprint_digest`` of the server's :class:`ExperimentSummary`.
    digest: str
    #: Whether this lane was served from the result cache (no simulation
    #: ran; the digest is still byte-identical to a cold recompute).
    #: Excluded from the rack fingerprint by construction.
    cached: bool = False

    @property
    def p50_us(self) -> Optional[float]:
        return self.percentiles_us.get(50)

    @property
    def p95_us(self) -> Optional[float]:
        return self.percentiles_us.get(95)

    @property
    def p99_us(self) -> Optional[float]:
        return self.percentiles_us.get(99)


@dataclass
class RackSummary:
    """The deterministic fold of one rack sweep."""

    name: str
    policy_name: str
    num_servers: int
    steering: str
    total_flows: int
    steering_digest: int
    lanes: List[ServerLane] = field(default_factory=list)
    #: Pooled percentiles over every completed packet in the fleet.
    aggregate_percentiles_us: Dict[int, Optional[float]] = field(
        default_factory=dict
    )
    offered_packets: int = 0
    rx_packets: int = 0
    rx_drops: int = 0
    completed: int = 0
    events_fired: int = 0
    wall_seconds: float = 0.0
    #: SHA-256 over the steering digest, flow shares, and per-server
    #: digests — equal for a serial and a warm-pool-sharded sweep of the
    #: same seeded rack.
    fingerprint: str = ""

    @classmethod
    def from_summaries(
        cls,
        config,
        flow_counts: Sequence[int],
        summaries: Sequence[ExperimentSummary],
        digests: Sequence[str],
        steering_digest: int,
    ) -> "RackSummary":
        """Fold per-server summaries and their fingerprint digests (in
        server order) into a rack summary."""
        if not len(summaries) == len(digests) == len(flow_counts):
            raise ValueError(
                f"{len(summaries)} summaries and {len(digests)} digests "
                f"for {len(flow_counts)} servers"
            )
        lanes: List[ServerLane] = []
        pooled: List[float] = []
        for server, (flows, summary, digest) in enumerate(
            zip(flow_counts, summaries, digests)
        ):
            pooled.extend(summary.latencies_ns)
            lanes.append(
                ServerLane(
                    server=server,
                    name=summary.experiment.name,
                    flows=flows,
                    offered=summary.offered_packets,
                    rx=summary.rx_packets,
                    drops=summary.rx_drops,
                    completed=summary.completed,
                    percentiles_us=_percentiles_us(summary.latencies_ns),
                    events_fired=summary.events_fired,
                    wall_seconds=summary.wall_seconds,
                    digest=digest,
                )
            )
        rack = cls(
            name=config.name,
            policy_name=config.server.policy.name,
            num_servers=config.num_servers,
            steering=config.steering,
            total_flows=config.total_flows,
            steering_digest=steering_digest,
            lanes=lanes,
            aggregate_percentiles_us=_percentiles_us(pooled),
            offered_packets=sum(s.offered_packets for s in summaries),
            rx_packets=sum(s.rx_packets for s in summaries),
            rx_drops=sum(s.rx_drops for s in summaries),
            completed=sum(s.completed for s in summaries),
            events_fired=sum(s.events_fired for s in summaries),
            wall_seconds=sum(s.wall_seconds for s in summaries),
        )
        rack.fingerprint = rack._compute_fingerprint()
        return rack

    def _compute_fingerprint(self) -> str:
        """Deterministic digest: steering + flow shares + server digests.

        Everything folded in is itself process-stable (the steering
        digest avoids ``hash()``; the per-server digests come from
        summary fingerprints that exclude wall-clock diagnostics), so a
        serial sweep and a pool-sharded sweep of the same seeded rack
        produce byte-identical rack fingerprints.
        """
        payload = repr(
            (
                self.steering,
                self.steering_digest,
                self.total_flows,
                tuple(lane.flows for lane in self.lanes),
                tuple(lane.digest for lane in self.lanes),
            )
        ).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    @property
    def p50_us(self) -> Optional[float]:
        return self.aggregate_percentiles_us.get(50)

    @property
    def p95_us(self) -> Optional[float]:
        return self.aggregate_percentiles_us.get(95)

    @property
    def p99_us(self) -> Optional[float]:
        return self.aggregate_percentiles_us.get(99)

    def render(self) -> str:
        """An ASCII per-server table with an aggregate footer row."""
        rows: List[List[object]] = []
        for lane in self.lanes:
            rows.append(
                [
                    f"s{lane.server:02d}",
                    lane.flows,
                    lane.offered,
                    lane.completed,
                    lane.drops,
                    lane.p50_us,
                    lane.p95_us,
                    lane.p99_us,
                    lane.digest[:12],
                ]
            )
        rows.append(
            [
                "rack",
                self.total_flows,
                self.offered_packets,
                self.completed,
                self.rx_drops,
                self.p50_us,
                self.p95_us,
                self.p99_us,
                self.fingerprint[:12],
            ]
        )
        return format_table(
            ["server", "flows", "offered", "completed", "drops",
             "p50 us", "p95 us", "p99 us", "digest"],
            rows,
            title=(
                f"{self.name}: {self.num_servers} servers "
                f"({self.policy_name}, {self.steering} steering, "
                f"{self.total_flows} flows)"
            ),
        )

    def to_json(self) -> Dict[str, Any]:
        """A JSON-able dict (CLI ``--out`` artifact)."""
        return {
            "name": self.name,
            "policy": self.policy_name,
            "num_servers": self.num_servers,
            "steering": self.steering,
            "total_flows": self.total_flows,
            "fingerprint": self.fingerprint,
            "aggregate": {
                "offered": self.offered_packets,
                "rx": self.rx_packets,
                "drops": self.rx_drops,
                "completed": self.completed,
                "percentiles_us": {
                    f"p{p}": v for p, v in self.aggregate_percentiles_us.items()
                },
            },
            "servers": [
                {
                    "server": lane.server,
                    "name": lane.name,
                    "flows": lane.flows,
                    "offered": lane.offered,
                    "rx": lane.rx,
                    "drops": lane.drops,
                    "completed": lane.completed,
                    "percentiles_us": {
                        f"p{p}": v for p, v in lane.percentiles_us.items()
                    },
                    "digest": lane.digest,
                    "cached": lane.cached,
                }
                for lane in self.lanes
            ],
        }
