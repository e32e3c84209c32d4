"""Typed events published on the observability bus.

Transaction completions are published as the
:class:`~repro.mem.transaction.MemoryTransaction` object itself (its
class is the topic); the events here cover everything else the memory
path and the software stack announce.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class MlcWritebackEvent:
    """A dirty-or-clean MLC victim moved to the LLC (``mlcWB`` in Alg. 1).

    This is the signal the IDIO controller's control plane samples every
    interval, and the per-core pressure statistic of Figs. 5/9/11.
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
    cannot ride home in a summary; instead the sweep publishes binned
    samples per (process, lane) on its own bus once the runs finish.  The
    rack publishes a ``server-N`` process per server with one lane per
    summary stream (``(time_us, MTPS)``); the tenants sweep publishes a
    ``tenant-N`` process per tenant with one ``policy:pXX_us`` lane per
    percentile (``(intensity x 1000, us)``).  A
    :class:`~repro.obs.trace.TraceRecorder` attached to the bus renders
    each as a Chrome-trace counter lane.
    """

    process: str
    lane: str
    #: ``((timestamp, value), ...)`` — timestamps in trace microseconds.
    points: tuple
    #: Name of the counter value (``"mtps"``, ``"us"``).
    unit: str


@dataclass(frozen=True, slots=True)
class TenantDmaEvent:
    """An inbound DMA write attributed to a tenant's buffer range.

    Published by the memory hierarchy (only when someone subscribes —
    the hot path stays allocation-free otherwise) so a partitioning
    controller such as :class:`~repro.core.ioca.IOCAController` can
    sample per-tenant I/O rates without touching the data plane.
    """

    tenant: int
    now: int


@dataclass(frozen=True, slots=True)
class ServerCompletedEvent:
    """A rack server's experiment finished (one per server per sweep)."""

    server: int
    flows: int
    completed: int
    drops: int
    fingerprint: str
    #: Whether the lane was served from the result cache (no simulation).
    cached: bool = False

