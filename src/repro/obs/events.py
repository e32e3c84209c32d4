"""Typed events published on the observability bus.

Completed :class:`~repro.mem.transaction.MemoryTransaction` objects are
not a bus topic: they go to the hierarchy's observers
(:meth:`~repro.mem.hierarchy.MemoryHierarchy.observe`).  The events here
cover everything else the memory path and the software stack announce.
:class:`LaneSeries` is not published: a swept result yields it for a
trace recorder.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class MlcWritebackEvent:
    """A dirty-or-clean MLC victim moved to the LLC (``mlcWB`` in Alg. 1).

    The IDIO control plane samples the matching ``mlc_writebacks_c<core>``
    counter every interval; the event is the trace recorder's view.
    """

    core: int
    now: int


@dataclass(frozen=True, slots=True)
class LlcWritebackEvent:
    """A dirty LLC victim written back to DRAM (the DMA-leak signal)."""

    addr: int
    now: int


@dataclass(frozen=True, slots=True)
class PmdBatchEvent:
    """A poll-mode driver picked up a batch of RX descriptors."""

    core: int
    size: int
    now: int


@dataclass(frozen=True, slots=True)
class LaneSeries:
    """One counter lane of a sweep-level trace process.

    Sweeps run their experiments in worker processes, so per-hop tracing
    cannot ride home in a summary; instead a swept result's
    :meth:`~repro.harness.matrix.SweepResult.lanes` builds binned samples
    per (process, lane) from the summaries.  The tenants sweep yields a
    ``tenant-N`` process per tenant with one ``policy:pXX_us`` lane per
    percentile (``(intensity x 1000, us)``).
    :meth:`~repro.obs.trace.TraceRecorder.add_lanes` renders each as a
    Chrome-trace counter lane.
    """

    process: str
    lane: str
    #: ``((timestamp, value), ...)`` — timestamps in trace microseconds.
    points: tuple
    #: Name of the counter value (``"us"``).
    unit: str
