"""The order statistics every reported number goes through."""

import pytest

from bench.stats import (
    highest_supported_percentile,
    medians_by_name,
    percentile,
    relative_difference,
    tail_percentile,
)


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))  # 1..100
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 99) == 7.0
    # Unsorted input, and a rank that is not a whole number, round up.
    assert percentile([5, 1, 4, 2, 3], 50) == 3
    assert percentile([5, 1, 4, 2, 3], 61) == 4


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


@pytest.mark.parametrize(
    "count, expected",
    [
        (5, 50.0),
        (19, 50.0),
        (20, 50.0),  # 10 beyond the median, 2 beyond p90
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),  # 9.99 beyond p99: one short
        (1_000, 99.0),
        (1_200, 99.0),  # the cold-handshake sizing: 12 beyond p99
        (9_999, 99.0),
        (10_000, 99.9),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert highest_supported_percentile(count) == expected


def test_relative_difference_and_medians():
    assert relative_difference(100.0, 110.0) == pytest.approx(0.10)
    assert relative_difference(0, 0) == 0.0
    assert relative_difference(0, 1) == float("inf")
    runs = [{"a": 1.0, "b": 10.0}, {"a": 3.0, "b": 30.0}, {"a": 2.0, "b": 20.0}]
    assert medians_by_name(runs) == {"a": 2.0, "b": 20.0}



def test_tail_percentile_groups_periods_until_ten_samples_lie_beyond():
    quiet = [1.0] * 495 + [2.0] * 5  # one period: p99 is 1.0, five samples beyond
    # Two periods make a group of 1,000; the group's p99 is still 1.0.
    assert tail_percentile([quiet, quiet], 99) == 1.0
    # A disturbed period owns the pooled tail but only one group in three.
    disturbed = [2.0] * 500
    periods = [quiet, quiet, quiet, disturbed, quiet, quiet]
    assert percentile([x for period in periods for x in period], 99) == 2.0
    assert tail_percentile(periods, 99) == 1.0
    # What is left over joins the last group; too few samples make one group.
    assert tail_percentile([quiet, quiet, disturbed], 99) == 2.0
    assert tail_percentile([[1.0, 3.0]], 99) == 3.0
