"""Discrete-event simulation kernel.

The :class:`Simulator` owns the virtual clock and the event queue.  All
hardware models (NIC, caches, cores, controllers) schedule callbacks on a
shared simulator instance.  Time is measured in integer picosecond ticks
(see :mod:`repro.sim.units`).
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from .event import Event, EventQueue, _cancelled


class SimulationError(RuntimeError):
    """Raised for scheduling bugs such as scheduling into the past."""


class Simulator:
    """The event loop driving a simulation.

    Typical usage::

        sim = Simulator()
        sim.schedule_at(units.microseconds(5), lambda: print("hello"))
        sim.run()
    """

    def __init__(self) -> None:
        self._now = 0
        self._sequence = 0
        self._queue = EventQueue()
        self._running = False
        self._events_fired = 0
        self._wall_seconds = 0.0

    @property
    def now(self) -> int:
        """Current virtual time in ticks."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (for diagnostics)."""
        return self._events_fired

    @property
    def wall_seconds(self) -> float:
        """Host wall-clock time spent inside :meth:`run` so far."""
        return self._wall_seconds

    @property
    def events_per_second(self) -> float:
        """Wall-clock simulation throughput (events fired per host second).

        The quickest perf diagnostic: a regression in the hot path shows up
        here in any normal run, without a profiler.  Returns 0.0 before the
        first :meth:`run` call.
        """
        if self._wall_seconds <= 0.0:
            return 0.0
        return self._events_fired / self._wall_seconds

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    def schedule_at(
        self,
        time: int,
        callback: Callable[[], Any],
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` to fire at absolute ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self._now}"
            )
        self._sequence += 1
        event = Event(time, self._sequence, callback, name)
        self._queue.push(event)
        return event

    def schedule_after(
        self,
        delay: int,
        callback: Callable[[], Any],
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` ticks from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, callback, name)

    def discard_pending(self) -> None:
        """Drop every queued event once the simulation is over.

        Pending callbacks (polls, arrivals, periodic ticks) hold the
        models that hold this simulator, so a finished run's queue would
        otherwise keep the whole server alive in reference cycles.
        """
        self._queue._heap.clear()

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.

        Returns the simulator time when the run stops.  If ``until`` is
        given, the clock is advanced to ``until`` even if the queue drains
        earlier, so periodic samplers observe a consistent end time.

        The loop operates on the queue's heap directly and drains each
        run of same-timestamp events as one batched tick: after the clock
        advances, follow-on events at the same instant fire back to back
        without re-entering the outer scheduling checks.  Ordering is
        unchanged — the heap already yields FIFO within a timestamp via
        the ``(time, sequence)`` key — only the per-event bookkeeping is
        hoisted out of the inner drain.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        fired = 0
        wall_start = time.perf_counter()
        heap = self._queue._heap
        try:
            while True:
                if max_events is not None and fired >= max_events:
                    break
                if not heap:
                    if until is not None and self._now < until:
                        self._now = until
                    break
                entry = heappop(heap)
                event = entry[2]
                if event.cancelled:
                    continue
                tick = entry[0]
                if until is not None and tick > until:
                    # Not due yet: put it back for the next run() call.
                    heappush(heap, entry)
                    self._now = until
                    break
                self._now = tick
                event.callback()
                fired += 1
                # Batched tick: drain the same-timestamp run.  Callbacks
                # may push new events for this instant; the heap check
                # picks those up in FIFO sequence order.
                while heap and heap[0][0] == tick:
                    if max_events is not None and fired >= max_events:
                        break
                    event = heappop(heap)[2]
                    if event.cancelled:
                        continue
                    event.callback()
                    fired += 1
        finally:
            self._events_fired += fired
            self._running = False
            self._wall_seconds += time.perf_counter() - wall_start
        return self._now


class PeriodicTask:
    """Re-schedules a callback every ``period`` ticks until stopped.

    Used for the IDIO control plane (1 us / 8192 us loops), burst-counter
    resets, and statistics samplers.
    """

    def __init__(
        self,
        sim: Simulator,
        period: int,
        callback: Callable[[], Any],
        name: str = "",
        start_offset: Optional[int] = None,
    ) -> None:
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        self.sim = sim
        self.period = period
        self.callback = callback
        self.name = name
        self._stopped = False
        first = sim.now + (period if start_offset is None else start_offset)
        self._event = sim.schedule_at(first, self._fire, name)

    def _fire(self) -> None:
        if self._stopped:
            return
        self.callback()
        if not self._stopped:
            self._event = self.sim.schedule_after(self.period, self._fire, self.name)

    def stop(self) -> None:
        """Stop future firings (the current one, if mid-flight, completes)."""
        self._stopped = True
        self._event.cancel()
        # A stopped task never calls back again; dropping the callback
        # breaks the task <-> owner cycle (the owner holds the task).
        self.callback = _cancelled
