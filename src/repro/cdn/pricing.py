"""CDN billing model (Amazon CloudFront-style regional, tiered pricing).

The CA is the content provider: it pays for the traffic RAs pull from edge
servers, priced per GB with regional rates and volume tiers, plus a small
per-request fee.  This reproduces the cost model behind Fig. 6 and Table II.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.cdn.geography import FIRST_TIER_PRICE_PER_GB, PRICE_TIERS_GB, Region

GB = 1024.0**3

#: CloudFront-style HTTPS request fee (USD per 10,000 requests), by region group.
REQUEST_FEE_PER_10K: Dict[Region, float] = {
    Region.UNITED_STATES: 0.0100,
    Region.EUROPE: 0.0120,
    Region.HONG_KONG_SINGAPORE: 0.0120,
    Region.JAPAN: 0.0125,
    Region.SOUTH_AMERICA: 0.0220,
    Region.AUSTRALIA: 0.0125,
    Region.INDIA: 0.0160,
}


@dataclass
class RegionalUsage:
    """Traffic pulled from edges in one region during one billing cycle."""

    bytes_served: int = 0
    requests: int = 0

    def add(self, bytes_served: int, requests: int = 1) -> None:
        self.bytes_served += bytes_served
        self.requests += requests


@dataclass
class BillingCycleUsage:
    """Usage across all regions for one billing cycle (one month)."""

    per_region: Dict[Region, RegionalUsage] = field(default_factory=dict)

    def add(self, region: Region, bytes_served: int, requests: int = 1) -> None:
        self.per_region.setdefault(region, RegionalUsage()).add(bytes_served, requests)

    def total_bytes(self) -> int:
        return sum(usage.bytes_served for usage in self.per_region.values())


class PricingModel:
    """Computes the monthly bill from per-region usage."""

    def __init__(
        self,
        first_tier_price_per_gb: Mapping[Region, float] | None = None,
        include_request_fees: bool = True,
        negotiated_discount: float = 0.0,
    ) -> None:
        """``negotiated_discount`` models the paper's remark that a CA
        negotiating with the CDN would pay less than list price (0.0–1.0)."""
        if not 0.0 <= negotiated_discount < 1.0:
            raise ValueError("negotiated_discount must be in [0, 1)")
        self._prices = dict(
            FIRST_TIER_PRICE_PER_GB if first_tier_price_per_gb is None else first_tier_price_per_gb
        )
        self.include_request_fees = include_request_fees
        self.negotiated_discount = negotiated_discount

    def transfer_cost(self, region: Region, bytes_served: int) -> float:
        """Tiered per-GB cost for one region's monthly traffic."""
        gb = bytes_served / GB
        base_price = self._prices[region]
        cost = 0.0
        consumed = 0.0
        for tier_limit, multiplier in PRICE_TIERS_GB:
            if gb <= consumed:
                break
            in_tier = min(gb, tier_limit) - consumed
            if in_tier <= 0:
                consumed = tier_limit
                continue
            cost += in_tier * base_price * multiplier
            consumed = min(gb, tier_limit)
            if consumed >= gb:
                break
        return cost

    def request_cost(self, region: Region, requests: int) -> float:
        if not self.include_request_fees:
            return 0.0
        return requests / 10_000.0 * REQUEST_FEE_PER_10K[region]

    def monthly_bill(self, usage: BillingCycleUsage) -> float:
        """Total USD the CA owes for one billing cycle."""
        total = 0.0
        for region, regional in usage.per_region.items():
            total += self.transfer_cost(region, regional.bytes_served)
            total += self.request_cost(region, regional.requests)
        return total * (1.0 - self.negotiated_discount)
