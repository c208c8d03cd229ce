"""Fig. 6 and Table II: what a CA pays the CDN to disseminate revocations.

The cost model follows §VII-C of the paper:

* the CA under study is the one with the largest CRL found in the dataset
  (339,557 entries, 7.5 MB) — its revocation activity over time is the
  corresponding share of the global trace;
* RAs are distributed around the world proportionally to city population
  (one RA per ``clients_per_ra`` people), which maps them onto CloudFront's
  pricing regions;
* every RA polls the CA's freshness object every Δ (the freshness statement
  alone, as ``RADisseminationClient`` does) and additionally downloads the
  serials newly revoked in that period, with the root signed after them;
* the CDN bills the CA per GB served per region (tiered list prices), for
  each monthly billing cycle between January 2014 and August 2015.

Absolute dollar figures depend on the exact accounting of per-request
overhead (the paper does not specify it); the reproduced quantities to
compare are the *shape*: costs fall steeply as Δ grows, scale inversely with
clients-per-RA, and show a visible Heartbleed bump in the April 2014 cycle.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.overhead import FRESHNESS_BYTES, SIGNED_ROOT_BYTES
from repro.cdn.geography import Region
from repro.cdn.pricing import BillingCycleUsage, PricingModel
from repro.ritm.config import PAPER_DELTA_SWEEP
from repro.workloads.population import PopulationModel, generate_population
from repro.workloads.revocation_trace import (
    LARGEST_CRL_ENTRIES,
    SERIAL_BYTES,
    TOTAL_REVOCATIONS,
    RevocationTrace,
    generate_trace,
)

#: Billing horizon of Fig. 6: 1 January 2014 to 1 August 2015 (19 cycles).
BILLING_START = _dt.date(2014, 1, 1)
BILLING_END = _dt.date(2015, 8, 1)

#: Δ values shown in Fig. 6.
FIGURE6_DELTAS: Dict[str, int] = {
    "10s": PAPER_DELTA_SWEEP["10s"],
    "1m": PAPER_DELTA_SWEEP["1m"],
    "1h": PAPER_DELTA_SWEEP["1h"],
    "1d": PAPER_DELTA_SWEEP["1d"],
}

#: Clients-per-RA densities of Table II.
TABLE2_CLIENTS_PER_RA = (30, 250, 1_000)

#: The CA under study's share of the global revocation trace: the largest
#: CRL in the dataset.
CA_SHARE_OF_TRACE = LARGEST_CRL_ENTRIES / TOTAL_REVOCATIONS
#: Paper-style accounting bills data transfer only, no per-request fees.
INCLUDE_REQUEST_FEES = False


@dataclass
class CostModelConfig:
    """Tunable knobs of the cost model (defaults follow the paper); the
    paper's byte sizes are the module's constants."""

    clients_per_ra: int = 10
    #: Per-request HTTP/TCP overhead billed as data transfer (0 = paper-style
    #: pure-payload accounting).
    per_request_overhead_bytes: int = 0
    #: Expiry shards per CA dictionary (§VIII): a sharded RA polls one
    #: freshness object per live shard each Δ, so freshness traffic
    #: scales with this factor.  1 = the paper's single ever-growing
    #: dictionary; a CA issuing certificates up to ``L`` ahead with shards
    #: ``w`` wide has at most ``ceil(L / w) + 1`` live.
    shards_per_dictionary: int = 1

    def __post_init__(self) -> None:
        if self.shards_per_dictionary < 1:
            raise ValueError("shards_per_dictionary must be at least 1")


@dataclass
class MonthlyCost:
    """One billing cycle for one Δ."""

    cycle_index: int
    month: str
    delta_label: str
    bytes_per_ra: float
    total_bytes: float
    cost_usd: float


@dataclass
class CostSimulationResult:
    """Fig. 6: per-cycle costs for each Δ."""

    monthly: Dict[str, List[MonthlyCost]]
    ras_by_region: Dict[Region, int]
    total_ras: int
    clients_per_ra: int

    def average_cost(self, delta_label: str) -> float:
        cycles = self.monthly[delta_label]
        return sum(cycle.cost_usd for cycle in cycles) / len(cycles)

    def peak_cycle(self, delta_label: str) -> MonthlyCost:
        return max(self.monthly[delta_label], key=lambda cycle: cycle.cost_usd)


def _months_between(start: _dt.date, end: _dt.date) -> List[Tuple[_dt.date, _dt.date]]:
    """Month windows [first day, first day of next month) between start and end."""
    months: List[Tuple[_dt.date, _dt.date]] = []
    cursor = _dt.date(start.year, start.month, 1)
    while cursor < end:
        if cursor.month == 12:
            nxt = _dt.date(cursor.year + 1, 1, 1)
        else:
            nxt = _dt.date(cursor.year, cursor.month + 1, 1)
        months.append((cursor, min(nxt, end)))
        cursor = nxt
    return months


def _monthly_revocations(
    trace: RevocationTrace, window: Tuple[_dt.date, _dt.date], share: float
) -> int:
    start, end = window
    total = sum(
        entry.count
        for entry in trace.daily
        if start <= entry.day < end
    )
    return int(round(total * share))


def simulate_costs(
    config: Optional[CostModelConfig] = None,
    deltas: Optional[Dict[str, int]] = None,
    trace: Optional[RevocationTrace] = None,
    population: Optional[PopulationModel] = None,
    pricing: Optional[PricingModel] = None,
    billing_start: _dt.date = BILLING_START,
    billing_end: _dt.date = BILLING_END,
) -> CostSimulationResult:
    """Run the Fig. 6 cost simulation."""
    config = config if config is not None else CostModelConfig()
    deltas = deltas if deltas is not None else FIGURE6_DELTAS
    trace = trace if trace is not None else generate_trace()
    population = population if population is not None else generate_population()
    pricing = pricing if pricing is not None else PricingModel(
        include_request_fees=INCLUDE_REQUEST_FEES
    )

    ras_by_region = population.ras_by_region(config.clients_per_ra)
    total_ras = sum(ras_by_region.values())
    months = _months_between(billing_start, billing_end)

    results: Dict[str, List[MonthlyCost]] = {label: [] for label in deltas}
    for label, delta_seconds in deltas.items():
        for cycle_index, window in enumerate(months):
            days_in_cycle = (window[1] - window[0]).days
            polls = days_in_cycle * 86_400 / delta_seconds
            revocations = _monthly_revocations(trace, window, CA_SHARE_OF_TRACE)
            # Every RA downloads: one freshness statement per poll, the new
            # serials once, and a signed root alongside each batch of new
            # revocations (at most one batch per poll, at least one per day
            # with activity).  A poll is one request per dictionary: in a Δ
            # with a batch the per-Δ object is that batch's object, so an
            # RA that was current fetches nothing more
            # (tests/ritm/test_dissemination.py::TestOneGetPerDelta).
            batches = min(polls, max(revocations, 0))
            batches = min(batches, days_in_cycle * 86_400 / delta_seconds)
            # A sharded RA fetches the shard index plus one freshness object
            # per live shard each poll, so the freshness payload, per-request
            # overhead, and request fees all scale with the shard count
            # (the index fetch is charged like one more freshness object).
            requests_per_poll = config.shards_per_dictionary + (
                1 if config.shards_per_dictionary > 1 else 0
            )
            bytes_per_ra = (
                polls
                * requests_per_poll
                * (FRESHNESS_BYTES + config.per_request_overhead_bytes)
                + revocations * SERIAL_BYTES
                + (SIGNED_ROOT_BYTES * min(days_in_cycle, batches))
            )
            usage = BillingCycleUsage()
            for region, ra_count in ras_by_region.items():
                usage.add(
                    region,
                    int(bytes_per_ra * ra_count),
                    requests=int(polls * requests_per_poll * ra_count)
                    if INCLUDE_REQUEST_FEES
                    else 0,
                )
            cost = pricing.monthly_bill(usage)
            results[label].append(
                MonthlyCost(
                    cycle_index=cycle_index,
                    month=window[0].strftime("%Y-%m"),
                    delta_label=label,
                    bytes_per_ra=bytes_per_ra,
                    total_bytes=bytes_per_ra * total_ras,
                    cost_usd=cost,
                )
            )
    return CostSimulationResult(
        monthly=results,
        ras_by_region=ras_by_region,
        total_ras=total_ras,
        clients_per_ra=config.clients_per_ra,
    )


@dataclass
class Table2Cell:
    clients_per_ra: int
    delta_label: str
    average_cost_usd: float


def table_2(
    clients_per_ra_values: Sequence[int] = TABLE2_CLIENTS_PER_RA,
    deltas: Optional[Dict[str, int]] = None,
    trace: Optional[RevocationTrace] = None,
    population: Optional[PopulationModel] = None,
) -> List[Table2Cell]:
    """Average monthly cost as a function of Δ and clients-per-RA (Table II)."""
    deltas = deltas if deltas is not None else FIGURE6_DELTAS
    trace = trace if trace is not None else generate_trace()
    population = population if population is not None else generate_population()
    cells: List[Table2Cell] = []
    for clients_per_ra in clients_per_ra_values:
        result = simulate_costs(
            config=CostModelConfig(clients_per_ra=clients_per_ra),
            deltas=deltas,
            trace=trace,
            population=population,
        )
        for label in deltas:
            cells.append(
                Table2Cell(
                    clients_per_ra=clients_per_ra,
                    delta_label=label,
                    average_cost_usd=result.average_cost(label),
                )
            )
    return cells
