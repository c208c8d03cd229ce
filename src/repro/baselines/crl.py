"""Certificate Revocation Lists (RFC 5280) and delta CRLs.

The oldest revocation mechanism: the CA periodically publishes the full list
of revoked serials at a distribution point; clients download it (all of it)
during certificate validation and cache it until ``nextUpdate``.  Delta CRLs
let a client that already holds a base CRL fetch only the serials revoked
since that base was published.

Drawbacks reproduced here (see §II of the paper): full-list downloads are
large, the distribution point learns which clients are validating (a CA can
even mount a targeted-distribution-point attack), revocations become visible
only at the publication period, and availability of the distribution point is
a hard dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.baselines.base import (
    CheckContext,
    CheckResult,
    ComparisonParameters,
    GroundTruth,
    RevocationScheme,
    SchemeProperties,
)

#: Bytes per CRL entry (serial + revocation date + extensions), matching the
#: ~22 bytes/entry implied by the paper's 339,557-entry / 7.5 MB largest CRL.
CRL_ENTRY_BYTES = 22
#: Fixed CRL envelope: signature, issuer name, validity, extensions.
CRL_OVERHEAD_BYTES = 600
#: Typical publication period (thisUpdate → nextUpdate): 24 hours.
DEFAULT_PUBLICATION_PERIOD = 86_400.0
#: Round trip to a CRL distribution point.
DISTRIBUTION_POINT_RTT = 0.12
DISTRIBUTION_POINT_BANDWIDTH = 2_000_000.0  # bytes/second


@dataclass
class PublishedCRL:
    """One published CRL snapshot."""

    this_update: float
    next_update: float
    serials: Tuple[int, ...]

    @property
    def size_bytes(self) -> int:
        return CRL_OVERHEAD_BYTES + CRL_ENTRY_BYTES * len(self.serials)


class CRLDistributionPoint:
    """The CA-operated server that publishes (and serves) CRLs."""

    def __init__(
        self,
        ground_truth: GroundTruth,
        publication_period: float = DEFAULT_PUBLICATION_PERIOD,
        available: bool = True,
    ) -> None:
        self.ground_truth = ground_truth
        self.publication_period = publication_period
        self.available = available
        self._published: Optional[PublishedCRL] = None
        self.requests_served = 0
        self.request_log: List[Tuple[str, float]] = []

    def publish_if_due(self, now: float) -> PublishedCRL:
        if self._published is None or now >= self._published.next_update:
            self._published = PublishedCRL(
                this_update=now,
                next_update=now + self.publication_period,
                serials=tuple(self.ground_truth.revoked_serials(now)),
            )
        return self._published

    def serve(self, client_id: str, now: float) -> Optional[PublishedCRL]:
        """Serve the current CRL (or ``None`` if the point is unreachable)."""
        if not self.available:
            return None
        self.requests_served += 1
        self.request_log.append((client_id, now))
        return self.publish_if_due(now)


class CRLScheme(RevocationScheme):
    """Full-CRL checking with client-side caching until ``nextUpdate``."""

    name = "CRL"

    def __init__(
        self,
        ground_truth: GroundTruth,
        publication_period: float = DEFAULT_PUBLICATION_PERIOD,
    ) -> None:
        super().__init__(ground_truth)
        self.distribution_point = CRLDistributionPoint(ground_truth, publication_period)
        #: Per-client cached CRL.
        self._client_cache: Dict[str, PublishedCRL] = {}

    def properties(self) -> SchemeProperties:
        return SchemeProperties(
            near_instant=False,
            privacy=False,
            efficiency=False,
            transparency=False,
            no_server_changes=True,
        )

    def check(self, context: CheckContext) -> CheckResult:
        cached = self._client_cache.get(context.client_id)
        connections = 0
        bytes_downloaded = 0
        latency = 0.0
        leaked: List[str] = []
        if cached is None or context.now >= cached.next_update:
            crl = self.distribution_point.serve(context.client_id, context.now)
            if crl is None:
                return CheckResult(
                    scheme=self.name,
                    revoked=None,
                    notes="CRL distribution point unavailable",
                )
            self._client_cache[context.client_id] = crl
            cached = crl
            connections = 1
            bytes_downloaded = crl.size_bytes
            latency = DISTRIBUTION_POINT_RTT + crl.size_bytes / DISTRIBUTION_POINT_BANDWIDTH
            leaked = ["CA distribution point"]
        revoked = context.serial.value in cached.serials
        return CheckResult(
            scheme=self.name,
            revoked=revoked,
            connections_made=connections,
            bytes_downloaded=bytes_downloaded,
            latency_seconds=latency,
            privacy_leaked_to=leaked,
            staleness_bound_seconds=self.distribution_point.publication_period
            + (context.now - cached.this_update),
        )

    # -- Table IV formulas ------------------------------------------------------

    def client_storage_entries(self, totals: ComparisonParameters) -> int:
        return totals.n_revocations

    def global_storage_entries(self, totals: ComparisonParameters) -> int:
        # Every client plus the CA itself stores the full list.
        return totals.n_revocations * (totals.n_clients + 1)

    def client_connections(self, totals: ComparisonParameters) -> int:
        return totals.n_cas

    def global_connections(self, totals: ComparisonParameters) -> int:
        return totals.n_clients * totals.n_cas
