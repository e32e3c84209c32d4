"""Chrome-trace (Perfetto) recording: one recorder, one (process, lane) model.

A :class:`TraceRecorder` keeps a table of trace processes and the lanes
(Chrome-trace threads) inside them, and records into it from one of two
sources:

* **one server's memory path** — ``attach(hierarchy)`` observes the
  hierarchy (:meth:`~repro.mem.hierarchy.MemoryHierarchy.observe`) and
  records every completed
  :class:`~repro.mem.transaction.MemoryTransaction` hop by hop, plus the
  writeback, PMD-batch and injected-fault events from its bus, on the
  server process (pid 0) with one lane per component (tids 1-7).
  DDIO-way fills, MLC steering fills, direct-DRAM writes and invalidate
  drops are distinguishable by category, and ``latency_breakdown_ns()``
  yields the per-component split (L1/MLC/LLC/DRAM share of the mean
  access) that the harness surfaces.  Observing is what makes the
  hierarchy record hops; it does not change which transactions run.
* **a sweep** — ``add_lanes(result.lanes())`` records a swept result's
  :class:`~repro.obs.events.LaneSeries` counter samples (one ``tenant-N``
  process per tenant).

``export()`` writes the trace; ``chrome://tracing`` and Perfetto
(``ui.perfetto.dev``) both load it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..faults.events import FaultEvent
from ..mem.transaction import (
    DMA_WRITE,
    INVALIDATE,
    PREFETCH_FILL,
    Hop,
    MemoryTransaction,
)
from ..sim import units
from .events import (
    LlcWritebackEvent,
    MlcWritebackEvent,
    PmdBatchEvent,
)

#: The per-hop server process (always pid 0) and its lanes in tid order:
#: one per component, then writebacks / PMD batches, then injected faults.
SERVER_PROCESS = "idio-repro server"
SERVER_LANES = ("l1", "mlc", "llc", "dram", "directory", "events", "faults")


def categorize(txn: MemoryTransaction, hop: Hop) -> str:
    """The trace category of one hop — the four §IV/§V mechanisms get
    their own categories so they are distinguishable in the viewer."""
    if txn.kind == DMA_WRITE:
        if hop.component == "llc" and hop.action == "fill":
            return "ddio-fill"
        if hop.component == "llc" and hop.action == "update":
            return "ddio-update"
        if hop.component == "dram" and hop.action == "write":
            return "direct-dram-write"
    elif txn.kind == PREFETCH_FILL:
        if hop.component == "mlc" and hop.action == "fill":
            return "mlc-steer-fill"
    elif txn.kind == INVALIDATE:
        if hop.action == "drop":
            return "invalidate-drop"
    return txn.kind


class TraceRecorder:
    """Records trace events per (process, lane); exports Chrome traces.

    ``max_events`` bounds memory for long runs; once reached, further
    trace events are counted in ``dropped_events`` instead of stored
    (the per-component latency accumulators keep counting regardless).
    """

    def __init__(self, max_events: int = 2_000_000) -> None:
        self.max_events = max_events
        self.trace_events: List[Dict[str, Any]] = []
        self.dropped_events = 0
        self.transactions = 0
        #: Per-category event counts ("ddio-fill", "mlc-steer-fill", ...).
        self.category_counts: Dict[str, int] = {}
        self._component_ticks: Dict[str, int] = {}
        #: Process name -> pid, and (pid, lane name) -> tid.
        self._pids: Dict[str, int] = {}
        self._tids: Dict[Tuple[int, str], int] = {}
        self._hierarchy: Optional[Any] = None

    # -- the (process, lane) table --------------------------------------

    def _lane(self, process: str, lane: str) -> Tuple[int, int]:
        """The ``(pid, tid)`` of a lane, registering both on first use.

        The server process is pid 0; other processes number from 1 in
        first-use order, and lanes number from 1 within their process.
        """
        pid = self._pids.get(process)
        if pid is None:
            pid = 0 if process == SERVER_PROCESS else max(self._pids.values(), default=0) + 1
            self._pids[process] = pid
        tid = self._tids.get((pid, lane))
        if tid is None:
            tid = 1 + sum(1 for owner, _ in self._tids if owner == pid)
            self._tids[(pid, lane)] = tid
        return pid, tid

    # -- wiring ---------------------------------------------------------

    def attach(self, hierarchy) -> "TraceRecorder":
        """Observe a hierarchy and subscribe to its bus."""
        if self._hierarchy is not None:
            raise RuntimeError("recorder is already attached")
        hierarchy.observe(self.on_transaction)
        bus = hierarchy.bus
        bus.subscribe(MlcWritebackEvent, self.on_mlc_writeback)
        bus.subscribe(LlcWritebackEvent, self.on_llc_writeback)
        bus.subscribe(PmdBatchEvent, self.on_pmd_batch)
        bus.subscribe(FaultEvent, self.on_fault)
        for name in SERVER_LANES:
            self._lane(SERVER_PROCESS, name)
        self._hierarchy = hierarchy
        return self

    def detach(self) -> None:
        """Unsubscribe and stop observing the hierarchy."""
        hierarchy = self._hierarchy
        if hierarchy is None:
            return
        hierarchy.unobserve(self.on_transaction)
        for event_type, handler in (
            (MlcWritebackEvent, self.on_mlc_writeback),
            (LlcWritebackEvent, self.on_llc_writeback),
            (PmdBatchEvent, self.on_pmd_batch),
            (FaultEvent, self.on_fault),
        ):
            hierarchy.bus.unsubscribe(event_type, handler)
        self._hierarchy = None

    # -- subscribers ----------------------------------------------------

    def on_transaction(self, txn: MemoryTransaction) -> None:
        self.transactions += 1
        ts = units.to_microseconds(txn.now)
        offset = 0
        for hop in txn.hops:
            category = categorize(txn, hop)
            self.category_counts[category] = self.category_counts.get(category, 0) + 1
            self._component_ticks[hop.component] = (
                self._component_ticks.get(hop.component, 0) + hop.latency
            )
            pid, tid = self._lane(SERVER_PROCESS, hop.component)
            self._emit(
                {
                    "name": f"{hop.component}:{hop.action}",
                    "cat": category,
                    "ph": "X",
                    "ts": ts + units.to_microseconds(offset),
                    "dur": units.to_microseconds(hop.latency),
                    "pid": pid,
                    "tid": tid,
                    "args": {
                        "kind": txn.kind,
                        "addr": f"{txn.addr:#x}",
                        "core": txn.core,
                        "level": txn.level,
                    },
                }
            )
            offset += hop.latency

    def on_mlc_writeback(self, event: MlcWritebackEvent) -> None:
        self._instant("events", f"mlc-writeback-c{event.core}", "mlc-writeback", event.now)

    def on_llc_writeback(self, event: LlcWritebackEvent) -> None:
        self._instant("events", "llc-writeback", "llc-writeback", event.now)

    def on_pmd_batch(self, event: PmdBatchEvent) -> None:
        self._instant(
            "events", f"pmd-batch-c{event.core} ({event.size})", "pmd-batch", event.now
        )

    def on_fault(self, event: FaultEvent) -> None:
        """Injected faults get their own lane, categorized by fault kind,
        so degradation in the component lanes can be read against the
        exact injection times that caused it."""
        self._instant(
            "faults",
            event.kind,
            event.kind,
            event.now,
            args={"layer": event.layer, "detail": event.detail},
        )

    def add_lanes(self, lanes: Iterable[Any]) -> "TraceRecorder":
        """Record a swept result's lanes: each
        :class:`~repro.obs.events.LaneSeries` as counter samples."""
        for lane in lanes:
            pid, tid = self._lane(lane.process, lane.lane)
            for ts, value in lane.points:
                self._emit(
                    {
                        "name": lane.lane,
                        "ph": "C",
                        "ts": ts,
                        "pid": pid,
                        "tid": tid,
                        "args": {lane.unit: value},
                    }
                )
        return self

    def _instant(
        self,
        lane: str,
        name: str,
        category: str,
        now: int,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """A global instant event on one of the server process's lanes."""
        self.category_counts[category] = self.category_counts.get(category, 0) + 1
        pid, tid = self._lane(SERVER_PROCESS, lane)
        event: Dict[str, Any] = {
            "name": name,
            "cat": category,
            "ph": "i",
            "s": "g",
            "ts": units.to_microseconds(now),
            "pid": pid,
            "tid": tid,
        }
        if args is not None:
            event["args"] = args
        self._emit(event)

    def _emit(self, event: Dict[str, Any]) -> None:
        if len(self.trace_events) >= self.max_events:
            self.dropped_events += 1
            return
        self.trace_events.append(event)

    # -- consumers ------------------------------------------------------

    def latency_breakdown_ns(self) -> Dict[str, float]:
        """Mean per-component critical-path latency (ns) per transaction."""
        if self.transactions == 0:
            return {}
        return {
            f"mean_{component}_ns": units.to_nanoseconds(ticks) / self.transactions
            for component, ticks in sorted(self._component_ticks.items())
        }

    def _metadata(self) -> List[Dict[str, Any]]:
        """``process_name`` / ``thread_name`` records for every lane."""
        names = {pid: process for process, pid in self._pids.items()}
        metadata: List[Dict[str, Any]] = []
        for pid in sorted(names):
            metadata.append(
                {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": names[pid]}}
            )
            for (owner, lane), tid in sorted(self._tids.items(), key=lambda kv: kv[1]):
                if owner == pid:
                    metadata.append(
                        {
                            "name": "thread_name",
                            "ph": "M",
                            "pid": pid,
                            "tid": tid,
                            "args": {"name": lane},
                        }
                    )
        return metadata

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The full trace as a Chrome-trace JSON object."""
        return {
            "traceEvents": self._metadata() + self.trace_events,
            "displayTimeUnit": "ns",
            "otherData": {
                "transactions": self.transactions,
                "dropped_events": self.dropped_events,
                "category_counts": dict(sorted(self.category_counts.items())),
            },
        }

    def export(self, path: str) -> int:
        """Write the Chrome-trace JSON to ``path``; returns event count."""
        trace = self.to_chrome_trace()
        with open(path, "w") as fh:
            json.dump(trace, fh)
            fh.write("\n")
        return len(trace["traceEvents"])

    def summary_line(self) -> str:
        cats = ", ".join(
            f"{name}={count}"
            for name, count in sorted(self.category_counts.items())
        )
        dropped = f", {self.dropped_events} dropped" if self.dropped_events else ""
        return f"{self.transactions} transactions traced ({cats}){dropped}"


def merge_latency_breakdowns(
    base: Dict[str, float], recorder: Optional[TraceRecorder]
) -> Dict[str, float]:
    """Fold a recorder's per-component breakdown into a queueing/service one."""
    if recorder is None:
        return base
    merged = dict(base)
    merged.update(recorder.latency_breakdown_ns())
    return merged
