"""A small discrete-event scheduler for time-driven experiments.

The path engine (request/response exchanges) covers the per-connection
protocol; this scheduler covers everything that happens on a timetable:
CAs refreshing dictionaries every Δ, RAs pulling from edge servers every Δ,
consistency probes, and the long-horizon cost simulations that sweep over
months of revocation activity.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import NetworkError
from repro.net.clock import SimulatedClock

EventCallback = Callable[[float], None]


@dataclass(order=True)
class _ScheduledEvent:
    time: float
    sequence: int
    callback: EventCallback = field(compare=False)
    label: str = field(default="", compare=False)


class EventScheduler:
    """Priority-queue discrete-event loop driving a :class:`SimulatedClock`."""

    def __init__(self, clock: Optional[SimulatedClock] = None) -> None:
        self.clock = clock if clock is not None else SimulatedClock()
        self._queue: List[_ScheduledEvent] = []
        self._sequence = itertools.count()
        self.processed_events = 0

    def schedule(self, at_time: float, callback: EventCallback, label: str = "") -> None:
        """Run ``callback(now)`` at absolute simulated time ``at_time``."""
        if at_time < self.clock.now():
            raise NetworkError(
                f"cannot schedule an event at {at_time} before current time {self.clock.now()}"
            )
        event = _ScheduledEvent(
            time=at_time, sequence=next(self._sequence), callback=callback, label=label
        )
        heapq.heappush(self._queue, event)

    def schedule_periodic(
        self,
        period: float,
        callback: EventCallback,
        start: Optional[float] = None,
        label: str = "",
    ) -> None:
        """Run ``callback`` every ``period`` seconds until the run horizon ends."""
        if period <= 0:
            raise NetworkError("periodic events need a positive period")
        first = self.clock.now() + period if start is None else start

        def fire(now: float) -> None:
            """Run the callback and chain the next firing off ``now``."""
            callback(now)
            self.schedule(now + period, fire, label)

        self.schedule(first, fire, label)

    def schedule_every(
        self,
        interval: float,
        callback: EventCallback,
        start: Optional[float] = None,
        count: Optional[int] = None,
        label: str = "",
    ) -> None:
        """Drift-free recurring events: firing ``k`` lands exactly at
        ``base + k * interval``.

        Unlike :meth:`schedule_periodic` — which chains each firing off the
        previous one (``now + period``), accumulating floating-point error
        over long horizons — every firing time here is computed
        multiplicatively from the base, so the 10,000th firing of a
        ``0.1``-second interval is exactly ``base + 1000.0``.  ``start``
        pins the base (default: one interval from now); ``count`` bounds
        the number of firings (default: unbounded, until the run horizon
        ends).
        """
        if interval <= 0:
            raise NetworkError("recurring events need a positive interval")
        if count is not None and count < 1:
            raise NetworkError("recurring events need at least one firing")
        base = self.clock.now() + interval if start is None else start

        def fire_at(index: int) -> EventCallback:
            """The callback for firing ``index``, chaining ``index + 1``."""

            def fire(now: float) -> None:
                """Run the callback, then schedule ``base + (k+1)·interval``."""
                callback(now)
                upcoming = index + 1
                if count is None or upcoming < count:
                    self.schedule(base + upcoming * interval, fire_at(upcoming), label)

            return fire

        self.schedule(base, fire_at(0), label)

    def run_until(self, end_time: float) -> int:
        """Process every event scheduled at or before ``end_time``; returns count."""
        processed = 0
        while self._queue and self._queue[0].time <= end_time:
            event = heapq.heappop(self._queue)
            self.clock.advance_to(event.time)
            event.callback(self.clock.now())
            processed += 1
            self.processed_events += 1
        self.clock.advance_to(end_time)
        return processed

    def run_all(self, max_events: int = 1_000_000) -> int:
        """Drain the queue completely (bounded by ``max_events``)."""
        processed = 0
        while self._queue:
            if processed >= max_events:
                raise NetworkError("event budget exhausted; possible runaway schedule")
            event = heapq.heappop(self._queue)
            self.clock.advance_to(event.time)
            event.callback(self.clock.now())
            processed += 1
            self.processed_events += 1
        return processed
