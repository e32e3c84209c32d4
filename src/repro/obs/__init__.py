"""Observability: the typed event bus and its subscribers.

``repro.obs`` is the telemetry plane of the memory path.  The
:class:`~repro.obs.bus.EventBus` carries typed events published by the
hierarchy and the software stack to the optional trace recorder and to
fault counters; the controllers read the hierarchy's counters instead,
so nothing on the untraced path subscribes to a writeback.  A swept
result's lanes (the tenants sweep's
:class:`~repro.obs.events.LaneSeries`) go to the same
:class:`~repro.obs.trace.TraceRecorder`, which renders them as one
Chrome-trace process per tenant.
"""

from .bus import EventBus
from .events import (
    LaneSeries,
    LlcWritebackEvent,
    MlcWritebackEvent,
    PmdBatchEvent,
)
from .trace import TraceRecorder

__all__ = [
    "EventBus",
    "LaneSeries",
    "LlcWritebackEvent",
    "MlcWritebackEvent",
    "PmdBatchEvent",
    "TraceRecorder",
]
