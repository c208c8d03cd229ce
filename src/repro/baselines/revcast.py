"""RevCast (Schulman et al., CCS 2014): revocation over FM radio broadcast.

CAs broadcast revocations over FM RDS side channels; clients with radio
receivers collect them into a locally stored CRL.  Reception is private and
push-based, but the channel is narrow — the paper cites a maximum of
421.8 bit/s — so a Heartbleed-scale burst queues up for a long time, every
client must store the full list, and clients that were not listening need a
separate catch-up infrastructure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.baselines.base import (
    CheckContext,
    CheckResult,
    ComparisonParameters,
    GroundTruth,
    RevocationScheme,
    SchemeProperties,
)

#: Maximum broadcast bandwidth reported by the RevCast paper.
BROADCAST_BITS_PER_SECOND = 421.8
#: Bits needed on air per revocation (serial + CA id + signature amortised).
BITS_PER_REVOCATION = 280


@dataclass
class BroadcastSchedule:
    """The CA-side broadcast queue: revocations go on air in FIFO order."""

    ground_truth: GroundTruth
    bits_per_second: float = BROADCAST_BITS_PER_SECOND
    bits_per_revocation: float = BITS_PER_REVOCATION

    def airtime_for(self, queue_position: int) -> float:
        """Seconds until the ``queue_position``-th queued revocation is sent."""
        return (queue_position + 1) * self.bits_per_revocation / self.bits_per_second

    def broadcast_time(self, serial_value: int) -> Optional[float]:
        """Absolute time the revocation of ``serial_value`` finishes airing."""
        revoked_at = self.ground_truth.revoked_at.get(serial_value)
        if revoked_at is None:
            return None
        # Everything revoked at or before this serial's revocation time is in
        # the queue ahead of (or with) it; approximate FIFO position by count.
        ahead = sum(1 for time in self.ground_truth.revoked_at.values() if time < revoked_at)
        return revoked_at + self.airtime_for(ahead % 1_000_000)


class RevCastScheme(RevocationScheme):
    """Radio-broadcast revocation with client-side full lists."""

    name = "RevCast"

    def __init__(self, ground_truth: GroundTruth) -> None:
        super().__init__(ground_truth)
        self.schedule = BroadcastSchedule(ground_truth)
        #: Per-client received-serial sets (the locally stored CRL).
        self._received: Dict[str, set] = {}

    def _sync_client(self, client_id: str, now: float) -> set:
        received = self._received.setdefault(client_id, set())
        for serial_value in self.ground_truth.revoked_at:
            on_air_at = self.schedule.broadcast_time(serial_value)
            if on_air_at is not None and on_air_at <= now:
                received.add(serial_value)
        return received

    def check(self, context: CheckContext) -> CheckResult:
        received = self._sync_client(context.client_id, context.now)
        revoked = context.serial.value in received
        truly_revoked = self.ground_truth.is_revoked(context.serial, context.now)
        on_air_at = self.schedule.broadcast_time(context.serial.value)
        staleness = 0.0
        if truly_revoked and not revoked and on_air_at is not None:
            # Still queued for broadcast: known in ``staleness`` seconds.
            staleness = on_air_at - context.now
        return CheckResult(
            scheme=self.name,
            revoked=revoked,
            connections_made=0,
            bytes_downloaded=0,
            latency_seconds=0.0,
            privacy_leaked_to=[],
            staleness_bound_seconds=staleness,
        )

    def properties(self) -> SchemeProperties:
        return SchemeProperties(
            near_instant=True,
            privacy=True,
            efficiency=False,
            transparency=False,
            no_server_changes=True,
        )

    def client_storage_entries(self, totals: ComparisonParameters) -> int:
        return totals.n_revocations

    def global_storage_entries(self, totals: ComparisonParameters) -> int:
        return totals.n_revocations * (totals.n_clients + 1)

    def client_connections(self, totals: ComparisonParameters) -> int:
        # Table IV charges RevCast one reception per revocation.
        return totals.n_revocations

    def global_connections(self, totals: ComparisonParameters) -> int:
        return totals.n_clients
