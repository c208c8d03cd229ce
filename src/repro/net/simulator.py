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
    cancelled: bool = field(default=False, compare=False)
    label: str = field(default="", compare=False)


class EventHandle:
    """Returned by :meth:`EventScheduler.schedule`; allows cancellation."""

    def __init__(self, event: _ScheduledEvent) -> None:
        self._event = event

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it when its time comes."""
        self._event.cancelled = True

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._event.cancelled

    @property
    def time(self) -> float:
        """The simulated time the event is scheduled for."""
        return self._event.time


class EventScheduler:
    """Priority-queue discrete-event loop driving a :class:`SimulatedClock`."""

    def __init__(self, clock: Optional[SimulatedClock] = None) -> None:
        self.clock = clock if clock is not None else SimulatedClock()
        self._queue: List[_ScheduledEvent] = []
        self._sequence = itertools.count()
        self.processed_events = 0

    def schedule(self, at_time: float, callback: EventCallback, label: str = "") -> EventHandle:
        """Run ``callback(now)`` at absolute simulated time ``at_time``."""
        if at_time < self.clock.now():
            raise NetworkError(
                f"cannot schedule an event at {at_time} before current time {self.clock.now()}"
            )
        event = _ScheduledEvent(
            time=at_time, sequence=next(self._sequence), callback=callback, label=label
        )
        heapq.heappush(self._queue, event)
        return EventHandle(event)

    def schedule_periodic(
        self,
        period: float,
        callback: EventCallback,
        start: Optional[float] = None,
        label: str = "",
    ) -> EventHandle:
        """Run ``callback`` every ``period`` seconds until the run horizon ends.

        The returned handle cancels *future* firings when cancelled.
        """
        if period <= 0:
            raise NetworkError("periodic events need a positive period")
        first = self.clock.now() + period if start is None else start
        proxy = _PeriodicHandle()

        def fire(now: float) -> None:
            """Run the callback and chain the next firing off ``now``."""
            if proxy.cancelled:
                return
            callback(now)
            if not proxy.cancelled:
                proxy.attach(self.schedule(now + period, fire, label))

        proxy.attach(self.schedule(first, fire, label))
        return proxy

    def schedule_every(
        self,
        interval: float,
        callback: EventCallback,
        start: Optional[float] = None,
        count: Optional[int] = None,
        label: str = "",
    ) -> EventHandle:
        """Drift-free recurring events: firing ``k`` lands exactly at
        ``base + k * interval``.

        Unlike :meth:`schedule_periodic` — which chains each firing off the
        previous one (``now + period``), accumulating floating-point error
        over long horizons — every firing time here is computed
        multiplicatively from the base, so the 10,000th firing of a
        ``0.1``-second interval is exactly ``base + 1000.0``.  ``start``
        pins the base (default: one interval from now); ``count`` bounds
        the number of firings (default: unbounded, until cancelled).
        Cancelling the returned handle stops all future firings.
        """
        if interval <= 0:
            raise NetworkError("recurring events need a positive interval")
        if count is not None and count < 1:
            raise NetworkError("recurring events need at least one firing")
        base = self.clock.now() + interval if start is None else start
        proxy = _PeriodicHandle()

        def fire_at(index: int) -> EventCallback:
            """The callback for firing ``index``, chaining ``index + 1``."""

            def fire(now: float) -> None:
                """Run the callback, then schedule ``base + (k+1)·interval``."""
                if proxy.cancelled:
                    return
                callback(now)
                upcoming = index + 1
                if count is not None and upcoming >= count:
                    return
                if not proxy.cancelled:
                    proxy.attach(
                        self.schedule(base + upcoming * interval, fire_at(upcoming), label)
                    )

            return fire

        proxy.attach(self.schedule(base, fire_at(0), label))
        return proxy

    def run_until(self, end_time: float) -> int:
        """Process every event scheduled at or before ``end_time``; returns count."""
        processed = 0
        while self._queue and self._queue[0].time <= end_time:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
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
            if event.cancelled:
                continue
            self.clock.advance_to(event.time)
            event.callback(self.clock.now())
            processed += 1
            self.processed_events += 1
        return processed

    def pending(self) -> int:
        """The number of not-yet-cancelled events still queued."""
        return sum(1 for event in self._queue if not event.cancelled)


class _PeriodicHandle(EventHandle):
    """Handle for periodic events: cancelling it stops the rescheduling chain."""

    def __init__(self) -> None:
        self._current: Optional[EventHandle] = None
        self._cancelled = False

    def attach(self, handle: EventHandle) -> None:
        self._current = handle

    def cancel(self) -> None:
        self._cancelled = True
        if self._current is not None:
            self._current.cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def time(self) -> float:
        return self._current.time if self._current is not None else float("nan")
