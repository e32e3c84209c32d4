"""Traffic profiles and the generator that schedules them (§VI methodology).

The paper drives the simulated server with a hardware load-generator model
rather than a second full system.  We do the same: a generator emits packet
arrival events directly into the NIC.

Each traffic kind is one frozen profile class, named in
:data:`TRAFFIC_KINDS`.  A profile checks its parameters when it is built,
knows when its traffic ``end``\\ s, and yields its ``(tick, frame_bytes)``
arrivals; :meth:`TrafficGenerator.schedule` is the one loop that turns
them into simulator events.

Bursty traffic is parameterized exactly as §VI defines it:

* *burst period* — time between the starts of two consecutive bursts
  (fixed at 10 ms in the paper);
* *burst rate*  — line rate during a burst (10/25/100 Gbps);
* *burst length* — chosen so each burst delivers exactly ``ring_size``
  packets, preventing intra-burst drops.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from typing import Any, Callable, ClassVar, Dict, Iterator, Tuple, Type

from ..sim import Simulator, units
from .packet import MTU_FRAME_BYTES, WIRE_OVERHEAD_BYTES, FiveTuple, Packet

#: The classic IMIX packet-size mix: (frame bytes, weight).
IMIX_DISTRIBUTION: Tuple[Tuple[int, int], ...] = ((64, 7), (594, 4), (1518, 1))

#: One scheduled arrival: ``(tick, frame bytes)``.
Arrival = Tuple[int, int]


def _wire_gap(frame_bytes: int, rate_gbps: float) -> int:
    """Ticks one frame takes on the wire; ValueError unless at least one."""
    gap = units.transfer_time(frame_bytes + WIRE_OVERHEAD_BYTES, rate_gbps)
    if gap <= 0:
        raise ValueError(f"rate {rate_gbps:g} Gbps too high for {frame_bytes} B packets")
    return gap


class TrafficProfile:
    """Base of the profiles: one frozen dataclass per traffic kind."""

    #: Simulator event name of one arrival (``bench/trace.py`` keys on it).
    event: ClassVar[str]
    start: int
    duration: int

    @property
    def end(self) -> int:
        """When the traffic ends: ``duration`` ticks after ``start``."""
        return self.start + self.duration

    def arrivals(self) -> Iterator[Arrival]:
        """The ``(tick, frame bytes)`` of every arrival, in tick order."""
        raise NotImplementedError


@dataclass(frozen=True)
class SteadyProfile(TrafficProfile):
    """Constant-rate traffic at ``rate_gbps`` for ``duration`` ticks."""

    event: ClassVar[str] = "steady-arrival"

    rate_gbps: float
    duration: int
    packet_bytes: int = MTU_FRAME_BYTES
    start: int = 0

    def __post_init__(self) -> None:
        _wire_gap(self.packet_bytes, self.rate_gbps)

    def inter_arrival(self) -> int:
        """Ticks between consecutive packet arrivals (wire-rate spacing)."""
        return _wire_gap(self.packet_bytes, self.rate_gbps)

    def arrivals(self) -> Iterator[Arrival]:
        gap = self.inter_arrival()
        t = self.start
        end = self.end
        while t < end:
            yield t, self.packet_bytes
            t += gap


@dataclass(frozen=True)
class PoissonProfile(TrafficProfile):
    """Poisson arrivals at an average of ``rate_gbps``.

    Exponentially distributed inter-arrival times (seeded, so runs replay
    exactly) model uncoordinated senders — the natural in-between of the
    paper's perfectly steady and perfectly bursty profiles.
    """

    event: ClassVar[str] = "poisson-arrival"

    rate_gbps: float
    duration: int
    packet_bytes: int = MTU_FRAME_BYTES
    start: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        _wire_gap(self.packet_bytes, self.rate_gbps)

    def arrivals(self) -> Iterator[Arrival]:
        rate = 1.0 / _wire_gap(self.packet_bytes, self.rate_gbps)
        rng = random.Random(self.seed)
        t = float(self.start)
        end = self.end
        while True:
            t += rng.expovariate(rate)
            if t >= end:
                return
            yield int(t), self.packet_bytes


@dataclass(frozen=True)
class ImixProfile(TrafficProfile):
    """A steady stream with IMIX frame sizes (64/594/1518, 7:4:1).

    Each arrival's size is drawn from :data:`IMIX_DISTRIBUTION` (seeded);
    the gap after each frame is its own wire time at ``rate_gbps``, so the
    average offered load equals the target.
    """

    event: ClassVar[str] = "imix-arrival"

    rate_gbps: float
    duration: int
    start: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        _wire_gap(min(size for size, _ in IMIX_DISTRIBUTION), self.rate_gbps)

    def arrivals(self) -> Iterator[Arrival]:
        sizes = [s for s, _ in IMIX_DISTRIBUTION]
        weights = [w for _, w in IMIX_DISTRIBUTION]
        rng = random.Random(self.seed)
        t = self.start
        end = self.end
        while t < end:
            size = rng.choices(sizes, weights=weights)[0]
            yield t, size
            t += _wire_gap(size, self.rate_gbps)


@dataclass(frozen=True)
class HeavyTailProfile(TrafficProfile):
    """Pareto (heavy-tailed) inter-arrival gaps at a target mean rate.

    Datacenter inbound traffic is famously not Poisson: a few long idle
    gaps separate trains of closely spaced packets.  Gaps are drawn from
    a Pareto distribution with shape ``alpha`` scaled so the *mean* gap
    matches ``rate_gbps`` — smaller ``alpha`` means burstier trains and
    longer tails; ``alpha`` must exceed 1 for the mean to exist at all.
    """

    event: ClassVar[str] = "heavytail-arrival"

    rate_gbps: float
    duration: int
    alpha: float = 1.5
    packet_bytes: int = MTU_FRAME_BYTES
    start: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.alpha <= 1.0:
            raise ValueError(
                f"heavy-tail alpha must exceed 1 (finite mean), got {self.alpha}"
            )
        _wire_gap(self.packet_bytes, self.rate_gbps)

    def arrivals(self) -> Iterator[Arrival]:
        """Each gap is ``mean_gap * (alpha - 1) / alpha * paretovariate(alpha)``,
        whose expectation is exactly ``mean_gap`` (the Pareto mean is
        ``alpha / (alpha - 1)``), so the long-run offered load matches the
        target rate while individual gaps are heavy-tailed."""
        mean_gap = _wire_gap(self.packet_bytes, self.rate_gbps)
        scale = mean_gap * (self.alpha - 1.0) / self.alpha
        rng = random.Random(self.seed)
        t = float(self.start)
        end = self.end
        while True:
            t += scale * rng.paretovariate(self.alpha)
            if t >= end:
                return
            yield int(t), self.packet_bytes


@dataclass(frozen=True)
class DiurnalProfile(TrafficProfile):
    """A sinusoidal day/night load swing between a trough and a peak rate.

    The instantaneous rate follows ``trough + (peak - trough) *
    (1 - cos(2*pi*t / period)) / 2`` — the trough at the start and end of
    each period, the peak halfway through.  ``period`` is a *simulated*
    day, compressed to whatever the experiment can afford (the shape, not
    the wall-time, is what stresses placement policies).  Arrivals are a
    non-homogeneous Poisson process realized by seeded thinning, so runs
    replay exactly.
    """

    event: ClassVar[str] = "diurnal-arrival"

    trough_rate_gbps: float
    peak_rate_gbps: float
    duration: int
    period: int = units.milliseconds(1)
    packet_bytes: int = MTU_FRAME_BYTES
    start: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.trough_rate_gbps < 0:
            raise ValueError("diurnal trough rate must be non-negative")
        if self.trough_rate_gbps > self.peak_rate_gbps:
            raise ValueError("diurnal trough rate exceeds the peak rate")
        if self.period <= 0:
            raise ValueError(f"diurnal period must be positive, got {self.period}")
        _wire_gap(self.packet_bytes, self.peak_rate_gbps)

    def rate_at(self, t: int) -> float:
        """Instantaneous offered rate (Gbps) at tick ``t`` past ``start``."""
        swing = self.peak_rate_gbps - self.trough_rate_gbps
        phase = 2.0 * math.pi * (t / self.period)
        return self.trough_rate_gbps + swing * (1.0 - math.cos(phase)) / 2.0

    def arrivals(self) -> Iterator[Arrival]:
        """Lewis-Shedler thinning: candidates arrive at the *peak* rate with
        exponential gaps and each is accepted with probability
        ``rate(t) / peak`` — exact for any bounded rate function, and
        deterministic under the seed."""
        rate = 1.0 / _wire_gap(self.packet_bytes, self.peak_rate_gbps)
        rng = random.Random(self.seed)
        t = float(self.start)
        end = self.end
        while True:
            t += rng.expovariate(rate)
            if t >= end:
                return
            accept = self.rate_at(int(t) - self.start) / self.peak_rate_gbps
            if rng.random() >= accept:
                continue
            yield int(t), self.packet_bytes


@dataclass(frozen=True)
class BurstProfile(TrafficProfile):
    """Periodic bursts per §VI: period, rate, and packets-per-burst."""

    event: ClassVar[str] = "burst-arrival"

    burst_rate_gbps: float
    packets_per_burst: int
    burst_period: int = units.milliseconds(10)
    num_bursts: int = 1
    packet_bytes: int = MTU_FRAME_BYTES
    start: int = 0

    def __post_init__(self) -> None:
        if min(self.packets_per_burst, self.num_bursts, self.burst_period) <= 0:
            raise ValueError("burst shape parameters must be positive")
        _wire_gap(self.packet_bytes, self.burst_rate_gbps)

    def inter_arrival(self) -> int:
        return _wire_gap(self.packet_bytes, self.burst_rate_gbps)

    @property
    def burst_length(self) -> int:
        """Duration of one burst in ticks (first to last packet)."""
        return self.inter_arrival() * max(0, self.packets_per_burst - 1)

    @property
    def end(self) -> int:
        """When the last packet of the last burst arrives."""
        return self.start + (self.num_bursts - 1) * self.burst_period + self.burst_length

    def arrivals(self) -> Iterator[Arrival]:
        gap = self.inter_arrival()
        for burst in range(self.num_bursts):
            burst_start = self.start + burst * self.burst_period
            for i in range(self.packets_per_burst):
                yield burst_start + i * gap, self.packet_bytes


#: Traffic kind name -> profile class.  The names are the vocabulary of
#: ``Experiment.traffic`` and ``TenantConfig.traffic``.
TRAFFIC_KINDS: Dict[str, Type[TrafficProfile]] = {
    "bursty": BurstProfile,
    "steady": SteadyProfile,
    "poisson": PoissonProfile,
    "imix": ImixProfile,
    "heavytail": HeavyTailProfile,
    "diurnal": DiurnalProfile,
}


def make_profile(kind: str, **params: Any) -> TrafficProfile:
    """Build the ``kind`` profile from those ``params`` its class declares
    (callers pass all they know); a bad kind or value raises ValueError."""
    cls = TRAFFIC_KINDS.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown traffic kind {kind!r}; choose from {tuple(TRAFFIC_KINDS)}"
        )
    return cls(**{f.name: params[f.name] for f in fields(cls) if f.name in params})


class TrafficGenerator:
    """Schedules packet arrivals on the simulator and hands them to a sink.

    The sink is usually ``NIC.receive``.  One generator drives one flow;
    experiments create one generator per application instance.
    """

    def __init__(
        self,
        sim: Simulator,
        flow: FiveTuple,
        sink: Callable[[Packet], None],
        app_class: int = 0,
    ) -> None:
        self.sim = sim
        self.flow = flow
        self.sink = sink
        self.app_class = app_class
        #: Total arrivals scheduled on the simulator (emitted or pending).
        self.packets_scheduled = 0

    def _emit(self, size_bytes: int) -> None:
        packet = Packet(
            size_bytes=size_bytes,
            flow=self.flow,
            app_class=self.app_class,
            arrival_time=self.sim.now,
        )
        self.sink(packet)

    def schedule(self, profile: TrafficProfile) -> int:
        """Schedule every arrival of ``profile``; returns the number queued."""
        name = profile.event
        count = 0
        for tick, size in profile.arrivals():
            self.sim.schedule_at(tick, lambda b=size: self._emit(b), name)
            count += 1
        self.packets_scheduled += count
        return count
