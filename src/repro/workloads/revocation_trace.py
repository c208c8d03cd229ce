"""Synthetic revocation traces calibrated to the paper's dataset (§VII-A).

The paper uses the SANS Internet Storm Center CRL collection: 254 separate
revocation lists, 1,381,992 unique revocations between January 2014 and June
2015 (an average of 5,440 revocations per CRL), mostly 3-byte serial numbers,
and a dramatic spike around the Heartbleed disclosure with its highest rates
on 16–17 April 2014.  The largest single CRL holds 339,557 entries (7.5 MB).

That dataset is not redistributable, so this module generates a synthetic
trace that reproduces the published aggregate statistics exactly where they
are stated and plausibly where they are not:

* the total number of revocations and the number of CAs match;
* per-CA volumes follow a heavy-tailed split in which the largest CA holds
  ~25 % of all revocations (as the paper observes);
* the time series has a roughly constant base rate with weekly structure plus
  a Heartbleed burst spread over 14–20 April 2014 peaking on the 16th–17th;
* serial numbers are 3 bytes wide.

All randomness is seeded, so every experiment is reproducible run to run.
"""

from __future__ import annotations

import datetime as _dt
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

# -- published calibration constants -------------------------------------------------

TOTAL_REVOCATIONS = 1_381_992
NUMBER_OF_CRLS = 254
AVERAGE_REVOCATIONS_PER_CRL = 5_440
LARGEST_CRL_ENTRIES = 339_557
LARGEST_CRL_BYTES = 7_500_000
SERIAL_BYTES = 3

#: Trace horizon used by Fig. 4 (and the Fig. 6 cost simulation).
TRACE_START = _dt.date(2014, 1, 1)
TRACE_END = _dt.date(2015, 6, 30)
COST_TRACE_END = _dt.date(2015, 8, 1)

#: Heartbleed disclosure and the burst window around it.
HEARTBLEED_DISCLOSURE = _dt.date(2014, 4, 7)
HEARTBLEED_BURST_START = _dt.date(2014, 4, 14)
HEARTBLEED_BURST_PEAK = _dt.date(2014, 4, 16)
HEARTBLEED_BURST_END = _dt.date(2014, 4, 20)
#: Week analysed in Fig. 7.
HEARTBLEED_WEEK = (_dt.date(2014, 4, 14), _dt.date(2014, 4, 20))

SECONDS_PER_DAY = 86_400


def _date_to_unix(day: _dt.date) -> int:
    return int(_dt.datetime(day.year, day.month, day.day, tzinfo=_dt.timezone.utc).timestamp())


@dataclass(frozen=True)
class DailyRevocations:
    """Number of revocations issued on one calendar day."""

    day: _dt.date
    count: int

    @property
    def unix_midnight(self) -> int:
        """The day's 00:00 UTC as a unix timestamp."""
        return _date_to_unix(self.day)


@dataclass
class RevocationTrace:
    """A complete synthetic trace: per-day counts plus the per-CA split."""

    daily: List[DailyRevocations]
    ca_totals: Dict[str, int]
    seed: int

    @property
    def total(self) -> int:
        """Total revocations across the whole trace."""
        return sum(entry.count for entry in self.daily)

    def days(self) -> List[_dt.date]:
        """The calendar days the trace covers, in order."""
        return [entry.day for entry in self.daily]

    def between(self, start: _dt.date, end: _dt.date) -> List[DailyRevocations]:
        """The inclusive sub-trace between ``start`` and ``end``."""
        return [entry for entry in self.daily if start <= entry.day <= end]

    def monthly_counts(self) -> List[Tuple[str, int]]:
        """(YYYY-MM, count) pairs — the top panel of Fig. 4."""
        buckets: Dict[str, int] = {}
        for entry in self.daily:
            key = f"{entry.day.year:04d}-{entry.day.month:02d}"
            buckets[key] = buckets.get(key, 0) + entry.count
        return sorted(buckets.items())

    def peak_day(self) -> DailyRevocations:
        """The single day with the most revocations (the Heartbleed spike)."""
        return max(self.daily, key=lambda entry: entry.count)

    def counts_per_bin(
        self, start: _dt.date, end: _dt.date, bin_seconds: int, seed: int = 7
    ) -> List[Tuple[int, int]]:
        """Spread daily counts over fixed-size bins within [start, end].

        Within a day, revocation issuance follows a diurnal profile (more
        activity during business hours); the profile matters only for
        sub-hour bins.  Returns (bin start Unix time, count) pairs.
        """
        rng = random.Random(seed)
        results: List[Tuple[int, int]] = []
        for entry in self.between(start, end):
            day_start = entry.unix_midnight
            bins_per_day = max(1, SECONDS_PER_DAY // bin_seconds)
            weights = [_diurnal_weight(index / bins_per_day) for index in range(bins_per_day)]
            total_weight = sum(weights)
            allocated = 0
            counts = []
            for index, weight in enumerate(weights):
                share = int(round(entry.count * weight / total_weight))
                counts.append(share)
                allocated += share
            # Fix rounding drift by adjusting random bins.
            while allocated != entry.count:
                index = rng.randrange(bins_per_day)
                if allocated < entry.count:
                    counts[index] += 1
                    allocated += 1
                elif counts[index] > 0:
                    counts[index] -= 1
                    allocated -= 1
            for index, count in enumerate(counts):
                results.append((day_start + index * bin_seconds, count))
        return results


def _diurnal_weight(fraction_of_day: float) -> float:
    """Business-hours-heavy issuance profile (arbitrary units, min 0.3)."""
    return 1.0 + 0.7 * math.sin(2 * math.pi * (fraction_of_day - 0.25))


def _heartbleed_extra(day: _dt.date) -> float:
    """Relative intensity of the Heartbleed burst on ``day`` (0 outside it)."""
    if not HEARTBLEED_BURST_START <= day <= HEARTBLEED_BURST_END:
        return 0.0
    peak_offset = abs((day - HEARTBLEED_BURST_PEAK).days)
    # The 16th and 17th carry the highest rates; decay on either side.
    if day in (HEARTBLEED_BURST_PEAK, HEARTBLEED_BURST_PEAK + _dt.timedelta(days=1)):
        return 1.0
    return 0.45 / peak_offset


def generate_trace(
    seed: int = 2016,
    total_revocations: int = TOTAL_REVOCATIONS,
    number_of_cas: int = NUMBER_OF_CRLS,
    start: _dt.date = TRACE_START,
    end: _dt.date = COST_TRACE_END,
    heartbleed_share: float = 0.22,
) -> RevocationTrace:
    """Generate the calibrated synthetic trace.

    ``heartbleed_share`` is the fraction of all revocations concentrated in
    the burst week; ~22 % reproduces a peak-day rate roughly 25× the base
    rate, matching the shape of Fig. 4.
    """
    rng = random.Random(seed)
    days: List[_dt.date] = []
    cursor = start
    while cursor <= end:
        days.append(cursor)
        cursor += _dt.timedelta(days=1)

    burst_total = int(total_revocations * heartbleed_share)
    base_total = total_revocations - burst_total

    base_weights = []
    for day in days:
        weekly = 1.0 - 0.35 * (day.weekday() >= 5)  # weekends are quieter
        jitter = rng.uniform(0.75, 1.25)
        base_weights.append(weekly * jitter)
    weight_sum = sum(base_weights)

    burst_weights = [_heartbleed_extra(day) for day in days]
    burst_sum = sum(burst_weights) or 1.0

    counts: List[int] = []
    for base_weight, burst_weight in zip(base_weights, burst_weights):
        count = base_total * base_weight / weight_sum + burst_total * burst_weight / burst_sum
        counts.append(int(round(count)))
    # Adjust rounding drift on the quiet final day.
    drift = total_revocations - sum(counts)
    counts[-1] = max(0, counts[-1] + drift)

    daily = [DailyRevocations(day=day, count=count) for day, count in zip(days, counts)]
    ca_totals = _split_across_cas(total_revocations, number_of_cas, rng)
    return RevocationTrace(daily=daily, ca_totals=ca_totals, seed=seed)


def _split_across_cas(total: int, number_of_cas: int, rng: random.Random) -> Dict[str, int]:
    """Heavy-tailed per-CA totals: the largest CA holds ~25 % of everything."""
    names = [f"CA{index:03d}" for index in range(number_of_cas)]
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(number_of_cas)]
    weight_sum = sum(weights)
    totals = {}
    remaining = total - LARGEST_CRL_ENTRIES
    totals[names[0]] = LARGEST_CRL_ENTRIES
    rest_sum = weight_sum - weights[0]
    allocated = 0
    for name, weight in zip(names[1:], weights[1:]):
        share = int(remaining * weight / rest_sum)
        totals[name] = share
        allocated += share
    totals[names[-1]] += remaining - allocated
    return totals


def serials_for_count(count: int, seed: int = 0) -> List[int]:
    """``count`` distinct 3-byte serial numbers (deterministic)."""
    rng = random.Random(seed)
    space = 256**SERIAL_BYTES - 1
    if count > space:
        raise ValueError("more serials requested than the 3-byte space holds")
    return rng.sample(range(1, space + 1), count)
