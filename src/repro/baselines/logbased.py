"""Log-based revocation schemes (Revocation Transparency, AKI, PKISN, ...).

CAs are obliged to submit revocations to public, append-only, verifiable
logs.  Two deployment styles exist (paper §II and Table IV):

* **client-driven** — clients query the log for (proofs of) revocation
  status, which costs an extra connection and reveals browsing targets to
  the log;
* **server-driven** — servers periodically fetch status proofs from the log
  and staple them into handshakes, which needs server reconfiguration.

Both inherit the log's update cadence: logs batch changes and publish a new
signed tree head every maximum-merge-delay (MMD) period, typically hours, so
the attack window is far from instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.baselines.base import (
    CheckContext,
    CheckResult,
    ComparisonParameters,
    GroundTruth,
    RevocationScheme,
    SchemeProperties,
)

#: Logs typically publish a new signed tree head every few hours.
DEFAULT_MMD_SECONDS = 4 * 3600.0
#: A log proof (inclusion/absence + signed tree head) is on the order of 1 KB.
LOG_PROOF_BYTES = 1_000
LOG_QUERY_RTT = 0.09


@dataclass
class SignedTreeHead:
    """The log's periodic commitment to its contents."""

    published_at: float
    revision: int
    serials: Tuple[int, ...]


class RevocationLog:
    """A public append-only log of revocations with a batched update cadence."""

    def __init__(self, ground_truth: GroundTruth, mmd_seconds: float = DEFAULT_MMD_SECONDS) -> None:
        self.ground_truth = ground_truth
        self.mmd_seconds = mmd_seconds
        self._head: Optional[SignedTreeHead] = None
        self.query_log: List[Tuple[str, int, float]] = []

    def head_at(self, now: float) -> SignedTreeHead:
        if self._head is None or now >= self._head.published_at + self.mmd_seconds:
            revision = 0 if self._head is None else self._head.revision + 1
            self._head = SignedTreeHead(
                published_at=now,
                revision=revision,
                serials=tuple(self.ground_truth.revoked_serials(now)),
            )
        return self._head

    def prove_status(self, requester: str, serial_value: int, now: float) -> Tuple[bool, SignedTreeHead]:
        self.query_log.append((requester, serial_value, now))
        head = self.head_at(now)
        return serial_value in head.serials, head


class ClientDrivenLogScheme(RevocationScheme):
    """Clients query the log during (or right after) the handshake."""

    name = "Log (client-driven)"

    def __init__(self, ground_truth: GroundTruth, mmd_seconds: float = DEFAULT_MMD_SECONDS) -> None:
        super().__init__(ground_truth)
        self.log = RevocationLog(ground_truth, mmd_seconds)

    def properties(self) -> SchemeProperties:
        return SchemeProperties(
            near_instant=False,
            privacy=False,
            efficiency=False,
            transparency=True,
            no_server_changes=True,
        )

    def check(self, context: CheckContext) -> CheckResult:
        revoked, head = self.log.prove_status(
            context.client_id, context.serial.value, context.now
        )
        return CheckResult(
            scheme=self.name,
            revoked=revoked,
            connections_made=1,
            bytes_downloaded=LOG_PROOF_BYTES,
            latency_seconds=LOG_QUERY_RTT,
            privacy_leaked_to=["revocation log"],
            staleness_bound_seconds=self.log.mmd_seconds
            + (context.now - head.published_at),
        )

    def client_storage_entries(self, totals: ComparisonParameters) -> int:
        return 0

    def global_storage_entries(self, totals: ComparisonParameters) -> int:
        return totals.n_revocations

    def client_connections(self, totals: ComparisonParameters) -> int:
        return totals.n_servers

    def global_connections(self, totals: ComparisonParameters) -> int:
        return totals.n_clients * totals.n_servers


class ServerDrivenLogScheme(RevocationScheme):
    """Servers fetch log proofs periodically and staple them to handshakes."""

    name = "Log (server-driven)"

    def __init__(
        self,
        ground_truth: GroundTruth,
        mmd_seconds: float = DEFAULT_MMD_SECONDS,
        server_fetch_period: float = 6 * 3600.0,
    ) -> None:
        super().__init__(ground_truth)
        self.log = RevocationLog(ground_truth, mmd_seconds)
        self.server_fetch_period = server_fetch_period
        self._stapled: Dict[str, Tuple[bool, float]] = {}

    def properties(self) -> SchemeProperties:
        return SchemeProperties(
            near_instant=False,
            privacy=True,
            efficiency=True,
            transparency=True,
            no_server_changes=False,
        )

    def check(self, context: CheckContext) -> CheckResult:
        stapled = self._stapled.get(context.server_name)
        if stapled is None or context.now >= stapled[1] + self.server_fetch_period:
            revoked, head = self.log.prove_status(
                f"server:{context.server_name}", context.serial.value, context.now
            )
            stapled = (revoked, context.now)
            self._stapled[context.server_name] = stapled
        revoked, fetched_at = stapled
        return CheckResult(
            scheme=self.name,
            revoked=revoked,
            connections_made=0,
            bytes_downloaded=LOG_PROOF_BYTES,
            latency_seconds=0.0,
            privacy_leaked_to=[],
            staleness_bound_seconds=(context.now - fetched_at) + self.log.mmd_seconds,
        )

    def client_storage_entries(self, totals: ComparisonParameters) -> int:
        return 0

    def global_storage_entries(self, totals: ComparisonParameters) -> int:
        return totals.n_revocations

    def client_connections(self, totals: ComparisonParameters) -> int:
        return 0

    def global_connections(self, totals: ComparisonParameters) -> int:
        return totals.n_servers
