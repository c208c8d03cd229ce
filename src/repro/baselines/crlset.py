"""Browser-pushed revocation lists: CRLSet (Chrome) / OneCRL (Firefox).

The vendor aggregates revocations from CA CRLs, filters them down to a small
"important" subset (the paper cites 0.35 % coverage), and ships the result to
clients through the browser's software-update channel.  No extra connection
at handshake time and no privacy leak — but coverage is tiny, updates are
infrequent, and clients apply updates at irregular times (a heavy-tailed
lag), so the attack window is days to weeks and most revocations are simply
never delivered.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.baselines.base import (
    CheckContext,
    CheckResult,
    ComparisonParameters,
    GroundTruth,
    RevocationScheme,
    SchemeProperties,
)

#: Fraction of all revocations the vendor list covers (0.35 % per the paper).
DEFAULT_COVERAGE = 0.0035
#: How often the vendor cuts a new list.
DEFAULT_UPDATE_PERIOD = 86_400.0
#: Bytes per entry in the pushed set (Chrome stores truncated SPKI/serial pairs).
CRLSET_ENTRY_BYTES = 12


@dataclass
class PushedSet:
    """One vendor-published revocation set."""

    published_at: float
    serials: Tuple[int, ...]

    @property
    def size_bytes(self) -> int:
        return 2_000 + CRLSET_ENTRY_BYTES * len(self.serials)


class CRLSetScheme(RevocationScheme):
    """Vendor-curated, software-update-distributed revocation sets."""

    name = "CRLSet"

    def __init__(
        self,
        ground_truth: GroundTruth,
        coverage: float = DEFAULT_COVERAGE,
        update_period: float = DEFAULT_UPDATE_PERIOD,
        mean_client_update_lag: float = 2 * 86_400.0,
        seed: int = 33,
    ) -> None:
        super().__init__(ground_truth)
        if not 0.0 < coverage <= 1.0:
            raise ValueError("coverage must be in (0, 1]")
        self.coverage = coverage
        self.update_period = update_period
        self.mean_client_update_lag = mean_client_update_lag
        self._rng = random.Random(seed)
        self._current: Optional[PushedSet] = None
        #: Per-client: the set version they have actually applied.
        self._client_sets: Dict[str, PushedSet] = {}
        self._client_lags: Dict[str, float] = {}

    # -- vendor side --------------------------------------------------------------

    def vendor_publish_if_due(self, now: float) -> PushedSet:
        if self._current is None or now >= self._current.published_at + self.update_period:
            revoked = self.ground_truth.revoked_serials(now)
            keep = max(1, int(len(revoked) * self.coverage)) if revoked else 0
            # The vendor prioritises "important" revocations; model that as a
            # deterministic sample seeded by the publication time.
            sample_rng = random.Random((self._rng.random(), len(revoked)).__hash__())
            selected = tuple(sorted(sample_rng.sample(revoked, keep))) if keep else ()
            self._current = PushedSet(published_at=now, serials=selected)
        return self._current

    # -- client side ---------------------------------------------------------------

    def _client_lag(self, client_id: str) -> float:
        """Heavy-tailed software-update lag, fixed per client."""
        if client_id not in self._client_lags:
            if self.mean_client_update_lag <= 0:
                self._client_lags[client_id] = 0.0
            else:
                lag_rng = random.Random(client_id)
                self._client_lags[client_id] = lag_rng.expovariate(
                    1.0 / self.mean_client_update_lag
                )
        return self._client_lags[client_id]

    def check(self, context: CheckContext) -> CheckResult:
        published = self.vendor_publish_if_due(context.now)
        lag = self._client_lag(context.client_id)
        client_set = self._client_sets.get(context.client_id)
        bytes_downloaded = 0
        connections = 0
        if context.now >= published.published_at + lag and client_set is not published:
            # The client's updater finally applies the new set.
            self._client_sets[context.client_id] = published
            client_set = published
            bytes_downloaded = published.size_bytes
            connections = 1
        if client_set is None:  # the client never received a revocation set
            return CheckResult(
                scheme=self.name, revoked=False, staleness_bound_seconds=float("inf")
            )
        # A revocation the vendor set does not cover reads as clean.
        revoked = context.serial.value in client_set.serials
        return CheckResult(
            scheme=self.name,
            revoked=revoked,
            connections_made=connections,
            bytes_downloaded=bytes_downloaded,
            latency_seconds=0.0,
            privacy_leaked_to=[],
            staleness_bound_seconds=context.now - client_set.published_at + lag,
        )

    def properties(self) -> SchemeProperties:
        return SchemeProperties(
            near_instant=False,
            privacy=True,
            efficiency=False,
            transparency=False,
            no_server_changes=True,
        )

    def client_storage_entries(self, totals: ComparisonParameters) -> int:
        return totals.n_revocations  # Table IV charges the full list conceptually

    def global_storage_entries(self, totals: ComparisonParameters) -> int:
        return totals.n_revocations * (totals.n_clients + 1)

    def client_connections(self, totals: ComparisonParameters) -> int:
        return 1

    def global_connections(self, totals: ComparisonParameters) -> int:
        return totals.n_clients
