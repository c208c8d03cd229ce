"""The reference clock: laps stated at reference speed."""

import pytest

from bench import speed


def fake_time(monkeypatch, ticks):
    ticks = iter(ticks)
    monkeypatch.setattr(speed.time, "perf_counter", lambda: next(ticks))


def test_a_lap_is_divided_by_the_mean_slowdown_at_its_two_ends(monkeypatch):
    readings = iter([1.0, 2.0, 2.0])
    # construction; lap 1 ends, lap 2 begins; lap 2 ends, lap 3 begins
    fake_time(monkeypatch, [10.0, 13.0, 13.5, 19.5, 20.0])
    clock = speed.ReferenceClock(read=lambda: next(readings))
    assert clock.lap() == 1.5
    assert clock.elapsed == pytest.approx(3.0 / 1.5)
    # The half second the reading took is in no lap.
    assert clock.lap() == 2.0
    assert clock.elapsed == pytest.approx(3.0 / 1.5 + 6.0 / 2.0)


def test_a_slow_machine_and_a_fast_one_report_the_same_reference_wall(monkeypatch):
    fake_time(monkeypatch, [0.0, 4.0, 4.0])
    quiet = speed.ReferenceClock(read=lambda: 1.0)
    quiet.lap()
    fake_time(monkeypatch, [0.0, 5.8, 5.8])
    slow = speed.ReferenceClock(read=lambda: 1.45)
    slow.lap()
    assert slow.elapsed == pytest.approx(quiet.elapsed)


def test_lap_is_due_after_lap_seconds(monkeypatch):
    fake_time(monkeypatch, [0.0, speed.LAP_SECONDS / 2, speed.LAP_SECONDS])
    clock = speed.ReferenceClock(read=lambda: 1.0)
    assert not clock.lap_is_due()
    assert clock.lap_is_due()


def test_the_spin_reads_a_plausible_speed():
    assert speed.spin() > 0
    # Within a factor of ten of the sandbox the reference was taken on.
    assert 0.1 < speed.read_slowdown() < 10
