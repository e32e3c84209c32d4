"""Per-layer host time, traced from outside the simulator.

:class:`Tracer` wraps the public entry points of each ``src/repro``
layer and every event callback scheduled on the kernel, and records one
span per call.  Nothing under ``src/`` knows about it: the wrappers are
installed on class attributes (and on module attributes, where other
modules imported a function by name) and removed again on exit.

A span's *self time* is its duration minus the time its child spans
cover, so the self times of one rep sum to the rep's wall time: the
per-rep root span (``trace.unattributed``) keeps whatever no layer
claimed.  A layer that calls itself (``super().hint``, an app calling a
parent ``process``) stays one span.

Two rules keep the traced program the same program:

* :meth:`Tracer.install` must run before any server is built, because
  components bind ``hierarchy.access``, ``controller.steer`` and bus
  handlers when they are constructed;
* the tracer never sets ``trace_enabled``, ``checked_mode`` or
  ``record_hops`` and never subscribes to ``MemoryTransaction``.  Any of
  those moves ``Core``, ``RootComplex`` and ``MaintenanceUnit`` onto
  their slow paths, and the trace would then measure a different program.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import re
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

ROOT_LAYER = "trace.unattributed"

#: Every layer the trace reports, in table order.
LAYERS: Tuple[str, ...] = (
    "mem.demand",
    "mem.access",
    "pcie.dma_write",
    "pcie.dma_read",
    "nic.rx",
    "nic.dma",
    "nic.tx",
    "net.traffic",
    "core.steer",
    "core.prefetch",
    "core.control",
    "cpu.pmd",
    "cpu.app",
    "cpu.maintenance",
    "cpu.antagonist",
    "sim.kernel",
    "obs.bus",
    "harness.build",
    "harness.warmup",
    "harness.inject",
    "harness.summary",
    "analysis.fingerprint",
    "cache.digest",
    "cache.get",
    "cache.put",
    "runner.dispatch",
    ROOT_LAYER,
)

#: Event name, with any ``-c<N>`` core suffix stripped, -> layer.  An
#: event missing here fails the traced pass, so a new subsystem cannot
#: hide its host time in another layer's self time.
EVENT_LAYERS: Dict[str, str] = {
    "burst-arrival": "net.traffic",
    "steady-arrival": "net.traffic",
    "poisson-arrival": "net.traffic",
    "imix-arrival": "net.traffic",
    "heavytail-arrival": "net.traffic",
    "diurnal-arrival": "net.traffic",
    "nic-rx": "nic.dma",
    "desc-wb": "nic.dma",
    "dma-write": "nic.dma",
    "dma-read": "nic.dma",
    "tx-doorbell": "nic.tx",
    "pmd-poll": "cpu.pmd",
    "pmd-idle": "cpu.pmd",
    "pmd-batch": "cpu.pmd",
    "pmd-proc": "cpu.pmd",
    "pmd-copy": "cpu.pmd",
    "pmd-realloc": "cpu.pmd",
    "pmd-stash": "cpu.pmd",
    "pmd-next": "cpu.pmd",
    "pmd-stalled": "cpu.pmd",
    "antagonist": "cpu.antagonist",
    "antagonist-iter": "cpu.antagonist",
    "mlc-prefetch": "core.prefetch",
    "mlc-pump": "core.prefetch",
    "idio-control": "core.control",
    "iat-control": "core.control",
    "ioca-control": "core.control",
    "classifier-reset": "core.control",
}

#: ``(module, "Class.method" or "function", layer, phase)``.  A class
#: entry also wraps every subclass that defines its own method; the method
#: part may be a glob.  ``phase`` names the inclusive phase the call
#: counts toward (``phase.<name>_s``).
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("repro.cpu.core", "Core.mem_read", "mem.demand", None),
    ("repro.cpu.core", "Core.mem_write", "mem.demand", None),
    ("repro.mem.hierarchy", "MemoryHierarchy.access", "mem.access", None),
    ("repro.pcie.root_complex", "RootComplex.memory_write_batch", "pcie.dma_write", None),
    ("repro.pcie.root_complex", "RootComplex.memory_read_batch", "pcie.dma_read", None),
    ("repro.nic.nic", "NIC.receive", "nic.rx", None),
    ("repro.nic.nic", "NIC.transmit", "nic.tx", None),
    ("repro.nic.dma", "DMAEngine.write_buffer", "nic.dma", None),
    ("repro.nic.dma", "DMAEngine.read_buffer", "nic.dma", None),
    ("repro.core.controller", "IDIOController.steer", "core.steer", None),
    ("repro.core.cachedirector", "CacheDirectorController.steer", "core.steer", None),
    ("repro.core.prefetcher", "MLCPrefetcher.hint", "core.prefetch", None),
    ("repro.cpu.apps", "NetworkFunction.process", "cpu.app", None),
    ("repro.cpu.maintenance", "MaintenanceUnit.invalidate_range", "cpu.maintenance", None),
    ("repro.sim.kernel", "Simulator.run", "sim.kernel", "run"),
    ("repro.harness.server", "SimulatedServer.__init__", "harness.build", "build"),
    ("repro.harness.server", "SimulatedServer.start", "harness.warmup", "warmup"),
    ("repro.harness.server", "SimulatedServer.inject_*", "harness.inject", None),
    ("repro.harness.experiment", "ExperimentResult.summary", "harness.summary", "summary"),
    ("repro.harness.metrics", "window_stats", "harness.summary", "summary"),
    ("repro.analysis.determinism", "fingerprint_digest", "analysis.fingerprint", "fingerprint"),
    ("repro.cache.store", "ResultCache.digest_for", "cache.digest", "cache"),
    ("repro.cache.store", "ResultCache.get", "cache.get", "cache"),
    ("repro.cache.store", "ResultCache.put", "cache.put", "cache"),
    ("repro.harness.runner", "run_experiments", "runner.dispatch", None),
    ("repro.harness.runner", "run_sweep", "runner.dispatch", None),
)

#: Inclusive phases, in report order.
PHASES: Tuple[str, ...] = ("build", "warmup", "run", "summary", "fingerprint", "cache")

#: Guard limits of a traced rep (shares of its wall time).
MAX_UNATTRIBUTED_SHARE = 0.05
MAX_SELF_SUM_ERROR = 0.02

_CORE_SUFFIX = re.compile(r"-c\d+$")


class TraceError(RuntimeError):
    """The traced pass cannot attribute host time correctly."""


@dataclass
class RepTrace:
    """What one traced rep spent where (raw host seconds)."""

    wall_s: float
    calls: Dict[str, int]
    self_s: Dict[str, float]
    phases: Dict[str, float]

    def check(self) -> None:
        """Raise :class:`TraceError` when the trace does not add up."""
        if self.wall_s <= 0:
            raise TraceError("traced rep has no wall time")
        unattributed = self.self_s.get(ROOT_LAYER, 0.0) / self.wall_s
        if unattributed > MAX_UNATTRIBUTED_SHARE:
            raise TraceError(
                f"{ROOT_LAYER} is {unattributed:.1%} of the traced wall "
                f"(limit {MAX_UNATTRIBUTED_SHARE:.0%}): wrap the entry point "
                "that holds the missing time"
            )
        error = abs(sum(self.self_s.values()) - self.wall_s) / self.wall_s
        if error > MAX_SELF_SUM_ERROR:
            raise TraceError(
                f"layer self times miss the traced wall by {error:.1%} "
                f"(limit {MAX_SELF_SUM_ERROR:.0%})"
            )


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = [cls]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


class Tracer:
    """Span recorder plus the patches that feed it.

    Use as a context manager (install on enter, restore on exit) and run
    each rep inside :meth:`rep`; spans outside a rep are not recorded.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stack: List[list] = []
        self._calls: Dict[str, int] = defaultdict(int)
        self._self: Dict[str, float] = defaultdict(float)
        self._inclusive: Dict[str, float] = defaultdict(float)
        self._depth: Dict[str, int] = defaultdict(int)
        self._event_layers: Dict[str, str] = {}
        self._patches: List[Tuple[object, str, object]] = []
        #: The trace of the most recent :meth:`rep`.
        self.last: Optional[RepTrace] = None

    # -- spans ---------------------------------------------------------

    def span(self, layer: str, fn: Callable, phase: Optional[str] = None) -> Callable:
        """``fn`` wrapped so that each call inside a rep is a ``layer`` span."""
        stack = self._stack
        clock = self._clock
        calls = self._calls
        self_s = self._self
        inclusive = self._inclusive
        depth = self._depth

        def wrapper(*args, **kwargs):
            if not stack or stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            if phase:
                depth[phase] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed
                if phase:
                    depth[phase] -= 1
                    if not depth[phase]:
                        inclusive[phase] += elapsed

        return wrapper

    @contextmanager
    def rep(self) -> Iterator[None]:
        """Trace one rep under a root span; the result lands in :attr:`last`."""
        if self._stack:
            raise TraceError("reps cannot nest")
        self._calls.clear()
        self._self.clear()
        self._inclusive.clear()
        frame = [ROOT_LAYER, 0.0]
        self._stack.append(frame)
        start = self._clock()
        try:
            yield
        finally:
            wall = self._clock() - start
            self._stack.pop()
            self._self[ROOT_LAYER] += wall - frame[1]
            self._calls[ROOT_LAYER] += 1
            self.last = RepTrace(
                wall_s=wall,
                calls=dict(self._calls),
                self_s=dict(self._self),
                phases=dict(self._inclusive),
            )

    def event_layer(self, name: str) -> str:
        """The layer an event of this name belongs to."""
        layer = self._event_layers.get(name)
        if layer is None:
            layer = EVENT_LAYERS.get(_CORE_SUFFIX.sub("", name))
            if layer is None:
                raise TraceError(
                    f"event {name!r} has no layer in bench/trace.py EVENT_LAYERS"
                )
            self._event_layers[name] = layer
        return layer

    # -- patching ------------------------------------------------------

    def _patch(self, owner: object, name: str, new: object) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, new)

    def _wrap_entry(self, module_name: str, target: str, layer: str, phase: Optional[str]) -> None:
        module = importlib.import_module(module_name)
        if "." not in target:
            original = getattr(module, target)
            wrapper = functools.update_wrapper(self.span(layer, original, phase), original)
            # Other modules that imported the function by name hold their
            # own reference; rebind those too.
            for name, loaded in list(sys.modules.items()):
                if name.split(".")[0] == "repro" and getattr(loaded, target, None) is original:
                    self._patch(loaded, target, wrapper)
            return
        class_name, pattern = target.split(".")
        base = getattr(module, class_name)
        for cls in [base] + _subclasses(base):
            for attr in sorted(fnmatch.filter(list(cls.__dict__), pattern)):
                original = cls.__dict__[attr]
                wrapper = functools.update_wrapper(self.span(layer, original, phase), original)
                self._patch(cls, attr, wrapper)

    def install(self) -> "Tracer":
        if self._patches:
            raise TraceError("tracer already installed")
        import repro.api  # noqa: F401 - load every layer before patching
        from repro.obs.bus import EventBus
        from repro.sim.kernel import Simulator

        try:
            for entry in ENTRY_POINTS:
                self._wrap_entry(*entry)

            schedule_at = Simulator.schedule_at

            def traced_schedule_at(sim, when, callback, name=""):
                wrapped = self.span(self.event_layer(name), callback)
                return schedule_at(sim, when, wrapped, name)

            self._patch(Simulator, "schedule_at", traced_schedule_at)

            subscribe = EventBus.subscribe
            unsubscribe = EventBus.unsubscribe

            def traced_subscribe(bus, event_type, handler):
                wrapped = self.span("obs.bus", handler)
                wrapped.__wrapped__ = handler
                subscribe(bus, event_type, wrapped)
                return handler

            def traced_unsubscribe(bus, event_type, handler):
                # Handlers are removed by equality (bound methods are
                # re-created on each attribute load), so find the wrapper
                # whose original equals the handler being removed.
                for wrapped in bus._topics.get(event_type, ()):
                    if getattr(wrapped, "__wrapped__", wrapped) == handler:
                        unsubscribe(bus, event_type, wrapped)
                        return
                unsubscribe(bus, event_type, handler)

            self._patch(EventBus, "subscribe", traced_subscribe)
            self._patch(EventBus, "unsubscribe", traced_unsubscribe)
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
