"""OCSP (RFC 6960) and OCSP Stapling (RFC 6961).

Plain OCSP: the client asks the CA's responder about one serial during the
handshake — an extra connection on the critical path, a responder that learns
exactly which client visits which site, and an outage of the responder that
either blocks the handshake or (with soft-fail, as browsers ship it) silently
disables revocation checking.

OCSP Stapling moves the fetch to the server: the server periodically obtains
a signed response and staples it into the handshake.  No extra client
connection and no privacy leak, but deployment requires server changes, and
the response's validity period (controlled by server configuration) sets the
attack window — a misconfigured or compromised server can serve week-old
"good" responses.
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
from repro.crypto.hashing import sha256

#: A signed OCSP response is on the order of half a kilobyte.
OCSP_RESPONSE_BYTES = 470
OCSP_REQUEST_BYTES = 110
#: Round trip to the responder (it may be under heavy load, §II).
RESPONDER_RTT = 0.10
#: Default validity of a (stapled) response: 4 days, a common production value.
DEFAULT_RESPONSE_LIFETIME = 4 * 86_400.0


@dataclass
class OCSPResponse:
    """A signed statement about one serial at one point in time."""

    serial_value: int
    revoked: bool
    produced_at: float
    next_update: float

    @property
    def size_bytes(self) -> int:
        return OCSP_RESPONSE_BYTES

    def is_valid_at(self, now: float) -> bool:
        return self.produced_at <= now <= self.next_update


class OCSPResponder:
    """The CA-operated online responder."""

    def __init__(
        self,
        ground_truth: GroundTruth,
        response_lifetime: float = DEFAULT_RESPONSE_LIFETIME,
        available: bool = True,
    ) -> None:
        self.ground_truth = ground_truth
        self.response_lifetime = response_lifetime
        self.available = available
        self.query_log: List[Tuple[str, int, float]] = []

    def query(self, requester_id: str, serial_value: int, now: float) -> Optional[OCSPResponse]:
        if not self.available:
            return None
        self.query_log.append((requester_id, serial_value, now))
        revoked = self.ground_truth.revoked_at.get(serial_value)
        return OCSPResponse(
            serial_value=serial_value,
            revoked=revoked is not None and revoked <= now,
            produced_at=now,
            next_update=now + self.response_lifetime,
        )


class OCSPScheme(RevocationScheme):
    """Client-queried OCSP."""

    name = "OCSP"

    def __init__(self, ground_truth: GroundTruth, soft_fail: bool = False) -> None:
        super().__init__(ground_truth)
        self.responder = OCSPResponder(ground_truth)
        self.soft_fail = soft_fail

    def properties(self) -> SchemeProperties:
        return SchemeProperties(
            near_instant=False,
            privacy=False,
            efficiency=False,
            transparency=False,
            no_server_changes=True,
        )

    def check(self, context: CheckContext) -> CheckResult:
        response = self.responder.query(context.client_id, context.serial.value, context.now)
        if response is None:  # responder unavailable: soft-fail treats it as good
            return CheckResult(scheme=self.name, revoked=False if self.soft_fail else None)
        return CheckResult(
            scheme=self.name,
            revoked=response.revoked,
            connections_made=1,
            bytes_downloaded=OCSP_REQUEST_BYTES + response.size_bytes,
            latency_seconds=RESPONDER_RTT,
            privacy_leaked_to=["CA OCSP responder"],
            staleness_bound_seconds=0.0,
        )

    def client_storage_entries(self, totals: ComparisonParameters) -> int:
        return 0

    def global_storage_entries(self, totals: ComparisonParameters) -> int:
        return totals.n_revocations

    def client_connections(self, totals: ComparisonParameters) -> int:
        return totals.n_servers

    def global_connections(self, totals: ComparisonParameters) -> int:
        return totals.n_clients * totals.n_servers


class OCSPStaplingScheme(RevocationScheme):
    """Server-fetched, handshake-stapled OCSP responses."""

    name = "OCSP Stapling"

    def __init__(
        self,
        ground_truth: GroundTruth,
        response_lifetime: float = DEFAULT_RESPONSE_LIFETIME,
        deployment_rate: float = 1.0,
        server_refetch_margin: float = 0.9,
    ) -> None:
        """``deployment_rate`` models partial adoption (the paper cites 3 % of
        certificates served with stapling); ``server_refetch_margin`` is the
        fraction of the response lifetime after which a well-behaved server
        refreshes its stapled response."""
        super().__init__(ground_truth)
        self.responder = OCSPResponder(ground_truth, response_lifetime)
        self.deployment_rate = deployment_rate
        self.server_refetch_margin = server_refetch_margin
        #: Per-server cached response (the staple they currently serve).
        self._staples: Dict[str, OCSPResponse] = {}

    def properties(self) -> SchemeProperties:
        return SchemeProperties(
            near_instant=False,
            privacy=True,
            efficiency=True,
            transparency=False,
            no_server_changes=False,
        )

    def server_deploys(self, server_name: str) -> bool:
        """Deterministic partial-deployment decision for one server."""
        if self.deployment_rate >= 1.0:
            return True
        # A stable digest, not ``hash(name)``: Python salts string hashes per
        # process, and which servers staple must not change between runs.
        digest = sha256(server_name.encode("utf-8"))
        bucket = int.from_bytes(digest[:4], "big") % 1_000
        return bucket < self.deployment_rate * 1_000

    def check(self, context: CheckContext) -> CheckResult:
        if not self.server_deploys(context.server_name):  # partial deployment
            return CheckResult(scheme=self.name, revoked=None)
        staple = self._staples.get(context.server_name)
        refresh_due = (
            staple is None
            or context.now
            >= staple.produced_at + self.server_refetch_margin * self.responder.response_lifetime
        )
        if refresh_due:
            refreshed = self.responder.query(
                f"server:{context.server_name}", context.serial.value, context.now
            )
            if refreshed is not None:
                self._staples[context.server_name] = refreshed
                staple = refreshed
        if staple is None or not staple.is_valid_at(context.now):
            return CheckResult(scheme=self.name, revoked=None)
        return CheckResult(
            scheme=self.name,
            revoked=staple.revoked,
            connections_made=0,
            bytes_downloaded=staple.size_bytes,  # carried inside the handshake
            latency_seconds=0.0,
            privacy_leaked_to=[],
            staleness_bound_seconds=context.now - staple.produced_at,
        )

    def client_storage_entries(self, totals: ComparisonParameters) -> int:
        return 0

    def global_storage_entries(self, totals: ComparisonParameters) -> int:
        # The CA's state plus one cached response per server.
        return totals.n_revocations + totals.n_servers

    def client_connections(self, totals: ComparisonParameters) -> int:
        return 0

    def global_connections(self, totals: ComparisonParameters) -> int:
        return totals.n_servers
