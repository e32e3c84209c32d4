"""A small, fast, typed publish/subscribe event bus.

Topics are *event types* (classes); handlers subscribed to a type receive
every published instance of exactly that type.  The design is tuned for a
simulator hot path:

* ``publish`` is a single dict lookup plus a loop over a list — and
  publishers that care can skip even that by caching the live subscriber
  list via :meth:`EventBus.live` and only *constructing* the event object
  when the list is non-empty;
* subscriber lists are stable objects mutated in place, so a cached
  reference never goes stale;
* dispatch order is subscription order, deterministically — the parallel
  runner's byte-identical-summaries guarantee depends on this.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Type

Handler = Callable[[Any], None]


class EventBus:
    """Typed pub/sub: one subscriber list per event class."""

    __slots__ = ("_topics",)

    def __init__(self) -> None:
        self._topics: Dict[Type, List[Handler]] = {}

    def live(self, event_type: Type) -> List[Handler]:
        """The *live* subscriber list for ``event_type``.

        The returned list object is stable for the lifetime of the bus
        (subscribe/unsubscribe mutate it in place), so hot-path
        publishers may cache it once and iterate it directly::

            subs = bus.live(MlcWritebackEvent)
            ...
            if subs:                       # skip event construction
                event = MlcWritebackEvent(core, now)
                for handler in subs:
                    handler(event)
        """
        subs = self._topics.get(event_type)
        if subs is None:
            subs = self._topics[event_type] = []
        return subs

    def subscribe(self, event_type: Type, handler: Handler) -> Handler:
        """Register ``handler`` for ``event_type``; returns the handler."""
        self.live(event_type).append(handler)
        return handler

    def unsubscribe(self, event_type: Type, handler: Handler) -> None:
        """Remove a previously subscribed handler (no-op when absent)."""
        subs = self._topics.get(event_type)
        if subs is None:
            return
        try:
            subs.remove(handler)
        except ValueError:
            pass

    def has_subscribers(self, event_type: Type) -> bool:
        return bool(self._topics.get(event_type))

    def publish(self, event: Any) -> None:
        """Deliver ``event`` to every subscriber of ``type(event)``."""
        for handler in self._topics.get(type(event), ()):
            handler(event)
