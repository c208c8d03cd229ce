"""Property and statistical tests for the streaming workload generator.

Three layers of pinning, per docs/WORKLOADS.md:

* **Determinism / resume** — Hypothesis-driven proofs that the trace is a
  pure function of (seed, index): regeneration is identical, resuming from
  any cursor reproduces the identical suffix, and slicing composes.
* **Bounded allocation** — tracemalloc shows per-batch allocation scales
  with ``batch_size``, not with client count or trace length.
* **Distributional fidelity** — fixed-seed chi-squared and KS-style
  statistics confirm the empirical site popularity follows the configured
  Zipf law and the empirical arrival times follow the diurnal intensity
  curve.  Seeds and tolerances are pinned so the tests cannot flake.
"""

import dataclasses
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.streaming import (
    DAY_SECONDS,
    EVENT_BYTES,
    StreamConfig,
    StreamingWorkload,
    intensity_table,
    uniform_slot_counts,
    zipf_cumulative_weights,
)

BASE = StreamConfig(
    clients=20_000,
    sites=500,
    events_total=4_000,
    duration_seconds=2 * DAY_SECONDS,
)


# ---------------------------------------------------------------------------
# determinism and resume
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_same_seed_same_trace(seed):
    config = dataclasses.replace(BASE, events_total=600, seed=seed)
    first = list(StreamingWorkload(config).events(0, 600))
    second = list(StreamingWorkload(config).events(0, 600))
    assert first == second


@settings(max_examples=25, deadline=None)
@given(cursor=st.integers(min_value=0, max_value=4_000))
def test_resume_from_any_cursor_reproduces_the_suffix(cursor):
    full = list(StreamingWorkload(BASE).events(0, BASE.events_total))
    resumed = list(StreamingWorkload(BASE).events(cursor, BASE.events_total))
    assert resumed == full[cursor:]


@settings(max_examples=25, deadline=None)
@given(
    start=st.integers(min_value=0, max_value=3_999),
    width=st.integers(min_value=1, max_value=700),
)
def test_any_slice_matches_the_full_trace(start, width):
    stop = min(start + width, BASE.events_total)
    full = list(StreamingWorkload(BASE).events(0, BASE.events_total))
    assert list(StreamingWorkload(BASE).events(start, stop)) == full[start:stop]


def test_different_seeds_differ():
    a = list(StreamingWorkload(BASE).events(0, 200))
    b = list(StreamingWorkload(dataclasses.replace(BASE, seed=405)).events(0, 200))
    assert a != b


def test_times_strictly_increase_within_the_window():
    config = dataclasses.replace(BASE, start_time=500.0)
    times = [event.time for event in StreamingWorkload(config).events(0, 4_000)]
    assert all(later > earlier for earlier, later in zip(times, times[1:]))
    assert times[0] >= 500.0
    assert times[-1] <= 500.0 + config.duration_seconds


def test_period_counts_partition_the_trace():
    config = dataclasses.replace(BASE, start_time=1_000.0)
    workload = StreamingWorkload(config)
    boundaries = [1_000.0 + k * (config.duration_seconds / 8) for k in range(9)]
    counts = workload.period_counts(boundaries)
    assert len(counts) == 8
    assert sum(counts) == config.events_total
    assert all(count >= 0 for count in counts)


@settings(max_examples=20, deadline=None)
@given(
    total=st.integers(min_value=0, max_value=10_000),
    slots=st.integers(min_value=1, max_value=64),
)
def test_uniform_slot_counts_matches_legacy_divmod_spread(total, slots):
    counts = uniform_slot_counts(total, slots)
    base, extra = divmod(total, slots)
    assert counts == [base + (1 if index < extra else 0) for index in range(slots)]
    assert sum(counts) == total


# ---------------------------------------------------------------------------
# bounded allocation
# ---------------------------------------------------------------------------


def peak_generation_bytes(config):
    """Peak tracemalloc allocation while draining one full trace."""
    workload = StreamingWorkload(config)
    # Prime the per-site profile cache outside the measurement so the
    # (bounded, site-count-dependent) cache is not attributed to batching.
    for batch in workload.batches():
        for event in batch:
            workload.site_profile(event.site)
    tracemalloc.start()
    try:
        for batch in workload.batches():
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_per_batch_allocation_is_independent_of_client_count():
    small = dataclasses.replace(BASE, clients=10_000, batch_size=1_024)
    large = dataclasses.replace(BASE, clients=10_000_000, batch_size=1_024)
    peak_small = peak_generation_bytes(small)
    peak_large = peak_generation_bytes(large)
    # 1000x more clients must not move the allocation peak materially.
    assert peak_large < 2 * peak_small + 65_536


def test_peak_batch_bytes_respects_the_event_layout_budget():
    config = dataclasses.replace(BASE, batch_size=512)
    workload = StreamingWorkload(config)
    for batch in workload.batches():
        assert batch.nbytes <= EVENT_BYTES * config.batch_size
    assert workload.peak_batch_bytes <= EVENT_BYTES * config.batch_size


# ---------------------------------------------------------------------------
# distributional fidelity (fixed seeds, generous non-flaky tolerances)
# ---------------------------------------------------------------------------


def test_site_popularity_follows_the_zipf_law():
    config = StreamConfig(
        clients=100_000,
        sites=50,
        events_total=30_000,
        duration_seconds=DAY_SECONDS,
        zipf_exponent=1.1,
        seed=404,
    )
    observed = [0] * config.sites
    for event in StreamingWorkload(config).events(0, config.events_total):
        observed[event.site] += 1
    weights = zipf_cumulative_weights(config.sites, config.zipf_exponent)
    total_weight = weights[-1]
    expected = []
    previous = 0.0
    for cumulative in weights:
        expected.append(
            (cumulative - previous) / total_weight * config.events_total
        )
        previous = cumulative
    chi_squared = sum(
        (obs - exp) ** 2 / exp for obs, exp in zip(observed, expected)
    )
    # 49 degrees of freedom; the 99.9th percentile of chi2(49) is ~85.4.
    # A broken sampler (uniform instead of Zipf) scores in the thousands.
    assert chi_squared < 90.0
    # Sanity: head rank dominates the tail as a Zipf law demands.
    assert observed[0] > 4 * observed[-1]


def test_arrival_times_follow_the_diurnal_curve():
    config = StreamConfig(
        clients=100_000,
        sites=1_000,
        events_total=20_000,
        duration_seconds=DAY_SECONDS,
        diurnal_amplitude=0.7,
        seed=404,
    )
    times = sorted(
        event.time for event in StreamingWorkload(config).events(0, 20_000)
    )
    table = intensity_table(config.duration_seconds, config.diurnal_amplitude)
    total = table[-1]

    def model_cdf(t):
        """Analytic diurnal CDF via linear interpolation on the shared table."""
        position = t / config.duration_seconds * (len(table) - 1)
        low = min(int(position), len(table) - 2)
        frac = position - low
        return (table[low] + (table[low + 1] - table[low]) * frac) / total

    ks_statistic = max(
        abs((rank + 1) / len(times) - model_cdf(t))
        for rank, t in enumerate(times)
    )
    # Stratified quantiles keep the true statistic near 1/N; 0.01 is a
    # 200x margin, while a flat (non-diurnal) clock scores above 0.10.
    assert ks_statistic < 0.01
    flat_deviation = max(
        abs((rank + 1) / len(times) - t / config.duration_seconds)
        for rank, t in enumerate(times)
    )
    assert flat_deviation > 0.05


def test_certificate_lifetimes_follow_the_configured_mix():
    mix = ((90 * DAY_SECONDS, 0.6), (365 * DAY_SECONDS, 0.4))
    config = StreamConfig(
        clients=10_000,
        sites=4_000,
        events_total=100,
        duration_seconds=DAY_SECONDS,
        lifetime_mix=mix,
        seed=11,
    )
    workload = StreamingWorkload(config)
    lifetimes = [workload.site_profile(site)[0] for site in range(config.sites)]
    assert set(lifetimes) <= {90 * DAY_SECONDS, 365 * DAY_SECONDS}
    share_short = lifetimes.count(90 * DAY_SECONDS) / len(lifetimes)
    assert 0.55 < share_short < 0.65
