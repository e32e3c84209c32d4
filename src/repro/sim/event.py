"""Event primitives for the discrete-event kernel.

An :class:`Event` pairs a firing time with a zero-argument callback.  Events
with equal timestamps fire in the order they were scheduled (FIFO), which is
required for deterministic replays of the NIC/CPU interleavings.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List


def _cancelled() -> None:
    """The callback of a cancelled event (never called)."""


class Event:
    """A scheduled callback.

    Events are ordered by ``(time, sequence)`` where ``sequence`` is a
    monotonically increasing number assigned at scheduling time, giving
    deterministic FIFO ordering for simultaneous events.
    """

    __slots__ = ("time", "sequence", "callback", "name", "cancelled")

    def __init__(
        self,
        time: int,
        sequence: int,
        callback: Callable[[], Any],
        name: str = "",
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.name = name
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when it is popped.

        The callback is dropped too: it often holds its owner, which
        holds this event, and a cancelled event never fires.
        """
        self.cancelled = True
        self.callback = _cancelled

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.sequence) < (other.time, other.sequence)

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        label = self.name or self.callback.__name__
        return f"<Event t={self.time} seq={self.sequence} {label}{state}>"


class EventQueue:
    """A binary-heap priority queue of :class:`Event` objects.

    Heap entries are ``(time, sequence, event)`` tuples rather than bare
    events: tuple comparison runs in C, so every sift during push/pop
    skips the ``Event.__lt__`` Python call.  The ordering is identical —
    ``(time, sequence)`` is exactly the key ``Event.__lt__`` compares,
    and the sequence is unique so the event object itself is never
    compared.
    """

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[tuple] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, event: Event) -> None:
        heapq.heappush(self._heap, (event.time, event.sequence, event))

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Raises :class:`IndexError` when no live events remain.
        """
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            if not event.cancelled:
                return event
        raise IndexError("pop from empty event queue")
