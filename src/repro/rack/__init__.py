"""The rack tier: a ToR load balancer fanning flows over N servers.

``repro.rack`` sits one level above :mod:`repro.harness`: where a
:class:`~repro.harness.server.SimulatedServer` models one machine's
inbound memory path, a :class:`SimulatedRack` models a top-of-rack
switch steering a (possibly million-entry) flow population across a
fleet of identical servers and sharding the per-server experiments over
the warm process pool.  A rack sweep is a one-axis
:class:`~repro.harness.matrix.Matrix`: its result reports per-server and
:func:`aggregate` p50/p95/p99 latencies plus a deterministic rack
fingerprint that is identical for serial and pool-sharded sweeps.

Determinism contract: every stochastic per-server choice in this
package draws from a seeded per-server RNG stream (:func:`server_rng`);
simlint rule SIM009 rejects shared module-level randomness here.
"""

from .config import RACK_TRAFFIC_KINDS, RackConfig
from .rack import LANE_STREAMS, PERCENTILES, SimulatedRack, aggregate, run_rack, server_rng

__all__ = [
    "LANE_STREAMS",
    "PERCENTILES",
    "RACK_TRAFFIC_KINDS",
    "RackConfig",
    "SimulatedRack",
    "aggregate",
    "run_rack",
    "server_rng",
]
