"""Fig. 4: the revocation-rate time series and its Heartbleed close-up.

The top panel of Fig. 4 shows the number of revocations issued per month
between January 2014 and June 2015; the bottom panel zooms into 16–17 April
2014 (the highest observed rates, right after the Heartbleed disclosure)
at sub-day resolution.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.workloads.revocation_trace import (
    HEARTBLEED_BURST_PEAK,
    TRACE_END,
    TRACE_START,
    RevocationTrace,
    generate_trace,
)


@dataclass
class Figure4Result:
    """The two panels of Fig. 4 plus the headline statistics."""

    monthly_counts: List[Tuple[str, int]]
    heartbleed_focus: List[Tuple[int, int]]
    total_revocations: int
    peak_day: _dt.date
    peak_day_count: int

    def peak_month(self) -> Tuple[str, int]:
        return max(self.monthly_counts, key=lambda item: item[1])

    def baseline_month(self) -> Tuple[str, int]:
        """The quietest full month, as a proxy for the pre-Heartbleed baseline."""
        return min(self.monthly_counts, key=lambda item: item[1])

    def peak_to_baseline_ratio(self) -> float:
        peak = self.peak_month()[1]
        baseline = self.baseline_month()[1]
        return peak / baseline if baseline else float("inf")


def figure_4(
    trace: Optional[RevocationTrace] = None,
    focus_bin_seconds: int = 6 * 3600,
) -> Figure4Result:
    """Compute both panels of Fig. 4 from a (synthetic) revocation trace."""
    trace = trace if trace is not None else generate_trace()
    monthly = [
        (month, count)
        for month, count in trace.monthly_counts()
        if TRACE_START.strftime("%Y-%m") <= month <= TRACE_END.strftime("%Y-%m")
    ]
    focus_start = HEARTBLEED_BURST_PEAK
    focus_end = HEARTBLEED_BURST_PEAK + _dt.timedelta(days=1)
    focus = trace.counts_per_bin(focus_start, focus_end, focus_bin_seconds)
    peak = trace.peak_day()
    total_in_window = sum(
        entry.count for entry in trace.between(TRACE_START, TRACE_END)
    )
    return Figure4Result(
        monthly_counts=monthly,
        heartbleed_focus=focus,
        total_revocations=total_in_window,
        peak_day=peak.day,
        peak_day_count=peak.count,
    )
