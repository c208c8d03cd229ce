"""Property tests for :meth:`EventScheduler.schedule_every` and ordering.

The fleet engine (:mod:`repro.scenarios.engine`) leans on two scheduler
guarantees that these tests pin down with hypothesis:

* **deterministic same-time ordering** — events scheduled for the same
  instant fire in the order they were scheduled, which is what lets the
  engine prove that period ``p``'s pulls always precede the CA director's
  period ``p + 1`` duty at equal timestamps;
* **drift-free recurrence** — ``schedule_every`` computes firing ``k``
  multiplicatively as ``base + k * interval`` instead of chaining
  ``now + interval``, so long horizons accumulate no floating-point error.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.errors import NetworkError
from repro.net.clock import SimulatedClock
from repro.net.simulator import EventScheduler


# -- deterministic ordering ------------------------------------------------------


@given(
    times=st.lists(
        st.sampled_from([1.0, 2.0, 5.0, 5.0, 5.0, 9.0]), min_size=1, max_size=12
    )
)
@settings(max_examples=200, deadline=None)
def test_same_time_events_fire_in_scheduling_order(times):
    """At equal timestamps the tie-break is scheduling order, always."""
    scheduler = EventScheduler()
    fired = []
    for index, at_time in enumerate(times):
        scheduler.schedule(at_time, lambda now, i=index: fired.append(i))
    scheduler.run_until(100.0)
    expected = [i for _, i in sorted((t, i) for i, t in enumerate(times))]
    assert fired == expected


# -- drift-free recurrence -------------------------------------------------------


@given(
    interval=st.floats(min_value=0.01, max_value=7.0, allow_nan=False),
    count=st.integers(min_value=1, max_value=400),
)
@settings(max_examples=100, deadline=None)
def test_schedule_every_is_drift_free(interval, count):
    """Firing ``k`` lands at exactly ``base + k * interval`` — no chaining."""
    scheduler = EventScheduler(SimulatedClock(0.0))
    fired = []
    scheduler.schedule_every(interval, fired.append, count=count)
    scheduler.run_all()
    base = interval  # default start: one interval from now (now == 0).
    assert fired == [base + k * interval for k in range(count)]


def test_schedule_every_honours_explicit_start():
    scheduler = EventScheduler(SimulatedClock(100.0))
    fired = []
    scheduler.schedule_every(10.0, fired.append, start=123.0, count=3)
    scheduler.run_all()
    assert fired == [123.0, 133.0, 143.0]


def test_schedule_every_is_unbounded_without_a_count():
    scheduler = EventScheduler()
    fired = []
    scheduler.schedule_every(5.0, fired.append)
    scheduler.run_until(17.0)
    assert fired == [5.0, 10.0, 15.0]
    scheduler.run_until(31.0)
    assert fired == [5.0, 10.0, 15.0, 20.0, 25.0, 30.0]


def test_schedule_every_rejects_bad_arguments():
    scheduler = EventScheduler()
    with pytest.raises(NetworkError):
        scheduler.schedule_every(0.0, lambda now: None)
    with pytest.raises(NetworkError):
        scheduler.schedule_every(-1.0, lambda now: None)
    with pytest.raises(NetworkError):
        scheduler.schedule_every(1.0, lambda now: None, count=0)


def test_schedule_every_interleaves_with_one_shot_events():
    """Recurring and one-shot events share the same time-ordered queue."""
    scheduler = EventScheduler()
    fired = []
    scheduler.schedule_every(10.0, lambda now: fired.append(("tick", now)), count=3)
    scheduler.schedule(15.0, lambda now: fired.append(("once", now)))
    scheduler.run_all()
    assert fired == [("tick", 10.0), ("once", 15.0), ("tick", 20.0), ("tick", 30.0)]
