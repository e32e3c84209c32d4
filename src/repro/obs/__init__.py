"""Observability: the typed event bus and its subscribers.

``repro.obs`` is the control/telemetry plane of the memory path.  The
:class:`~repro.obs.bus.EventBus` replaces the ad-hoc callback lists the
hierarchy used to expose (``mlc_wb_listeners``/``llc_wb_listeners``);
every interested party — the statistics bundle, the IDIO controller's
control plane, the IAT baseline, the optional trace recorder — is now a
subscriber to typed events published by the hierarchy and the software
stack.  A swept result's lanes (the rack and tenant tiers'
:class:`~repro.obs.events.LaneSeries` and
:class:`~repro.obs.events.LaneMark`) go to the same
:class:`~repro.obs.trace.TraceRecorder`, which renders them as one
Chrome-trace process per server or tenant.
"""

from .bus import EventBus
from .events import (
    LaneMark,
    LaneSeries,
    LlcWritebackEvent,
    MlcWritebackEvent,
    PmdBatchEvent,
)
from .trace import TraceRecorder

__all__ = [
    "EventBus",
    "LaneMark",
    "LaneSeries",
    "LlcWritebackEvent",
    "MlcWritebackEvent",
    "PmdBatchEvent",
    "TraceRecorder",
]
