"""Declarative, seeded fault schedules.

A :class:`FaultPlan` is the whole configuration surface of the fault
subsystem: an immutable list of :class:`FaultSpec` entries plus one master
seed.  Every injector derives its private ``random.Random`` stream from
``(plan.seed, spec index)``, so the same plan replayed against the same
experiment produces byte-identical fault decisions — in-process, in a
worker process, and across hosts.  Plans ride inside
:class:`~repro.harness.server.ServerConfig` (they are frozen dataclasses
of tuples, so they pickle with the experiment), which is what lets the
process-pool runner fan out faulted sweeps without extra plumbing.

Fault kinds are namespaced by the layer that injects them::

    nic.desc_wb_jitter     extra descriptor-writeback delay (magnitude = max extra ns)
    nic.rx_drop_burst      forced RX drops at wire arrival (probability per packet)
    nic.ring_backpressure  ring slots withheld from the NIC (magnitude = slots)
    pcie.tlp_delay         extra PCIe link occupancy per DMA (magnitude = max extra ns)
    pcie.tlp_reorder       legal reorder of write TLPs inside one burst
    pcie.meta_corrupt      flipped IDIO reserved bits in the TLP header
    mem.dram_spike         transient extra DRAM latency (magnitude = extra ns)
    mem.ddio_starve        DDIO ways clamped down (magnitude = ways left)
    cpu.pmd_stall          PMD scheduled out for the window (preemption)
    harness.crash          worker raises before the run (resilience testing)
    harness.hang           worker sleeps magnitude seconds (timeout testing)

``harness.*`` kinds never touch the simulation; they exist so the
resilient sweep runner's crash/timeout handling can be driven
deterministically from a plan like every other fault.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

#: Every fault kind the injectors implement, with the meaning of
#: ``magnitude`` for each.  ``FaultSpec.validate`` rejects anything else,
#: so a typo fails at plan-construction time, not silently mid-sweep.
FAULT_KINDS: Dict[str, str] = {
    "nic.desc_wb_jitter": "max extra descriptor-writeback delay in ns",
    "nic.rx_drop_burst": "forced RX drop (probability per packet in window)",
    "nic.ring_backpressure": "RX ring slots withheld from the NIC",
    "pcie.tlp_delay": "max extra PCIe link occupancy per DMA batch in ns",
    "pcie.tlp_reorder": "reorder write TLPs within one DMA burst (legal)",
    "pcie.meta_corrupt": "flip one IDIO reserved bit in the TLP header",
    "mem.dram_spike": "extra DRAM access latency in ns while active",
    "mem.ddio_starve": "DDIO ways available while active (starved down)",
    "cpu.pmd_stall": "PMD descheduled for the active window (preemption)",
    "harness.crash": "worker crashes before the run (magnitude = crashing attempts; 0 = all)",
    "harness.hang": "worker process sleeps this many wall seconds",
}

#: The four simulated layers, in pipeline order (the degradation matrix
#: iterates these).  ``harness`` is deliberately absent: it is not a
#: simulated fault surface.
FAULT_LAYERS: Tuple[str, ...] = ("nic", "pcie", "mem", "cpu")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: what to inject, when, and how hard.

    The window is ``[start_us, start_us + duration_us)`` in simulated
    time; ``duration_us=None`` keeps the fault active until the end of
    the run, and ``period_us`` repeats the window every period (a bursty
    fault).  ``probability`` is the per-opportunity chance *inside* the
    window for event-granular faults (drops, delays, corruption);
    window-granular faults (stalls, starvation, spikes) apply it once
    per window occurrence, so ``plan.scaled(0.0)`` disables every fault.
    """

    kind: str
    start_us: float = 0.0
    duration_us: Optional[float] = None
    period_us: Optional[float] = None
    probability: float = 1.0
    magnitude: float = 0.0

    def validate(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from "
                f"{sorted(FAULT_KINDS)}"
            )
        if self.start_us < 0:
            raise ValueError(f"start_us must be >= 0, got {self.start_us}")
        if self.duration_us is not None and self.duration_us <= 0:
            raise ValueError(f"duration_us must be positive, got {self.duration_us}")
        if self.period_us is not None:
            if self.duration_us is None:
                raise ValueError("period_us requires duration_us")
            if self.period_us <= self.duration_us:
                raise ValueError(
                    f"period_us ({self.period_us}) must exceed duration_us "
                    f"({self.duration_us})"
                )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.magnitude < 0:
            raise ValueError(f"magnitude must be >= 0, got {self.magnitude}")

    @property
    def layer(self) -> str:
        """The injecting layer (``"nic"``, ``"pcie"``, ``"mem"``, ...)."""
        return self.kind.split(".", 1)[0]


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seeded schedule of faults for one experiment."""

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        # Tolerate list input at the construction site; store a tuple so
        # the plan stays hashable/frozen/picklable.
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            spec.validate()

    @property
    def is_empty(self) -> bool:
        return not self.specs

    def specs_for(self, layer: str) -> Tuple[Tuple[int, FaultSpec], ...]:
        """(index, spec) pairs for one layer; the index salts the RNG."""
        return tuple(
            (i, s) for i, s in enumerate(self.specs) if s.layer == layer
        )

    def rng_seed(self, spec_index: int) -> int:
        """The derived integer seed for one spec's private RNG stream."""
        return self.seed * 1_000_003 + spec_index

    def scaled(self, intensity: float) -> "FaultPlan":
        """A copy with every probability scaled by ``intensity`` (capped
        at 1.0).  The degradation matrix sweeps this knob."""
        if intensity < 0:
            raise ValueError(f"intensity must be >= 0, got {intensity}")
        return FaultPlan(
            specs=tuple(
                replace(s, probability=min(1.0, s.probability * intensity))
                for s in self.specs
            ),
            seed=self.seed,
        )

#: Reference fault schedules per layer, used by the ``repro faults``
#: degradation matrix and the smoke tests.  Magnitudes are sized for the
#: reference burst experiment (one ring-sized burst at tens of Gbps over
#: a few hundred microseconds).
_STANDARD_SPECS: Dict[str, Tuple[FaultSpec, ...]] = {
    "nic": (
        FaultSpec("nic.desc_wb_jitter", probability=0.5, magnitude=2_000.0),
        FaultSpec("nic.rx_drop_burst", start_us=30.0, duration_us=20.0,
                  period_us=100.0, probability=0.2),
        FaultSpec("nic.ring_backpressure", start_us=50.0, duration_us=25.0,
                  period_us=150.0, magnitude=16.0),
    ),
    "pcie": (
        FaultSpec("pcie.tlp_delay", probability=0.25, magnitude=1_000.0),
        FaultSpec("pcie.tlp_reorder", probability=0.25),
        FaultSpec("pcie.meta_corrupt", probability=0.05),
    ),
    "mem": (
        FaultSpec("mem.dram_spike", start_us=20.0, duration_us=40.0,
                  period_us=120.0, magnitude=200.0),
        FaultSpec("mem.ddio_starve", start_us=40.0, duration_us=60.0,
                  period_us=200.0, magnitude=1.0),
    ),
    "cpu": (
        FaultSpec("cpu.pmd_stall", start_us=60.0, duration_us=15.0,
                  period_us=140.0),
    ),
}


def standard_plan(layer: str, intensity: float = 1.0, seed: int = 0) -> FaultPlan:
    """The reference :class:`FaultPlan` for one fault layer.

    ``layer`` is one of :data:`FAULT_LAYERS` (or ``"all"`` for every
    layer's specs combined); ``intensity`` scales the per-event fault
    probabilities, which is the x-axis of the degradation matrix.
    """
    if layer == "all":
        specs: Tuple[FaultSpec, ...] = tuple(
            s for lay in FAULT_LAYERS for s in _STANDARD_SPECS[lay]
        )
    else:
        try:
            specs = _STANDARD_SPECS[layer]
        except KeyError:
            raise ValueError(
                f"unknown fault layer {layer!r}; choose from "
                f"{FAULT_LAYERS + ('all',)}"
            ) from None
    return FaultPlan(specs=specs, seed=seed).scaled(intensity)
