"""Order statistics used by every workload and by the agreement check.

Kept free of ``repro`` imports so the self-tests exercise it in isolation.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence

#: Percentiles worth reporting, highest first, each with the share of the
#: sample beyond it in per mille (kept integral: 100 - 99.9 is not 0.1 in floats).
PERCENTILE_LADDER = ((99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (50.0, 500))

#: A percentile is only trustworthy with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``p`` % at or below it."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(samples)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[rank - 1]


def highest_supported_percentile(count: int) -> float:
    """The highest ladder percentile with >= 10 of ``count`` samples beyond it.

    ``count`` samples leave ``count * (1 - p/100)`` beyond percentile ``p``;
    with fewer than ten out there the estimate is a handful of outliers, not
    a tail.  Falls back to the median, which any non-empty sample supports.
    """
    for p, per_mille_beyond in PERCENTILE_LADDER:
        if count * per_mille_beyond >= MIN_SAMPLES_BEYOND * 1000:
            return p
    return 50.0


def tail_percentile(periods: Sequence[Sequence[float]], p: float) -> float:
    """Median over groups of consecutive periods of each group's percentile ``p``.

    A group is the fewest consecutive periods whose pooled samples leave
    :data:`MIN_SAMPLES_BEYOND` beyond ``p`` (1,000 samples for p99); what is
    left over at the end joins the last group.  One period the machine
    disturbed — 500 handshakes at twice their usual wall — holds the whole
    pooled tail of a run, but only one group's.
    """
    needed = math.ceil(MIN_SAMPLES_BEYOND / (1.0 - p / 100.0))
    groups: List[List[float]] = [[]]
    for samples in periods:
        if len(groups[-1]) >= needed:
            groups.append([])
        groups[-1].extend(samples)
    if len(groups) > 1 and len(groups[-1]) < needed:
        groups[-2].extend(groups.pop())
    return statistics.median(percentile(group, p) for group in groups)


def relative_difference(a: float, b: float) -> float:
    """``(b - a) / a``; two zeros agree exactly."""
    if a == b:
        return 0.0
    if a == 0:
        return math.inf
    return (b - a) / abs(a)


def medians_by_name(runs: Sequence[dict]) -> dict:
    """Per-metric median across repeated runs' ``{name: value}`` dicts."""
    names: List[str] = list(runs[0])
    return {name: statistics.median(run[name] for run in runs) for name in names}
