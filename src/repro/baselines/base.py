"""Common interface for the revocation schemes RITM is compared against.

Table IV of the paper compares RITM with CRLs, CRLSets, OCSP, OCSP Stapling,
log-based approaches (client- and server-driven), and RevCast along two axes:

* quantitative — how much revocation state each party stores and how many
  connections are needed for a client to learn a certificate's status;
* qualitative — which desired properties each scheme violates
  (near-instant revocation **I**, privacy **P**, efficiency/scalability
  **E**, transparency/accountability **T**, and no-server-changes **S**).

Every baseline in this package is a small but *functional* implementation of
its scheme (clients really download CRLs, query responders, receive stapled
responses, ...), sharing this module's vocabulary so the comparison harness
can drive them uniformly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Set

from repro.pki.serial import SerialNumber


class Property(Enum):
    """The desired properties of §II, with Table IV's letter codes."""

    NEAR_INSTANT = "I"
    PRIVACY = "P"
    EFFICIENCY = "E"
    TRANSPARENCY = "T"
    NO_SERVER_CHANGES = "S"


@dataclass(frozen=True)
class SchemeProperties:
    """Which properties a scheme provides; the rest are "violated"."""

    near_instant: bool
    privacy: bool
    efficiency: bool
    transparency: bool
    no_server_changes: bool

    def violated(self) -> Set[Property]:
        violations = set()
        if not self.near_instant:
            violations.add(Property.NEAR_INSTANT)
        if not self.privacy:
            violations.add(Property.PRIVACY)
        if not self.efficiency:
            violations.add(Property.EFFICIENCY)
        if not self.transparency:
            violations.add(Property.TRANSPARENCY)
        if not self.no_server_changes:
            violations.add(Property.NO_SERVER_CHANGES)
        return violations

    def violated_letters(self) -> str:
        # Letter order follows the paper's Table IV presentation.
        order = "IPEST"
        letters = {prop.value for prop in self.violated()}
        return ", ".join(letter for letter in order if letter in letters) or "-"


@dataclass
class GroundTruth:
    """The authoritative revocation state, shared by every scheme under test."""

    revoked_at: Dict[int, float] = field(default_factory=dict)
    ca_name: str = "CA"

    def revoke(self, serial: SerialNumber, now: float) -> None:
        self.revoked_at.setdefault(serial.value, now)

    def is_revoked(self, serial: SerialNumber, now: Optional[float] = None) -> bool:
        revoked_time = self.revoked_at.get(serial.value)
        if revoked_time is None:
            return False
        return now is None or revoked_time <= now

    def revoked_serials(self, now: Optional[float] = None) -> List[int]:
        if now is None:
            return sorted(self.revoked_at)
        return sorted(value for value, time in self.revoked_at.items() if time <= now)

    def count(self, now: Optional[float] = None) -> int:
        return len(self.revoked_serials(now))


@dataclass
class CheckContext:
    """One revocation check: a client asks about one certificate at one time."""

    client_id: str
    server_name: str
    serial: SerialNumber
    now: float


@dataclass
class CheckResult:
    """Outcome and cost of one revocation check."""

    scheme: str
    #: ``True`` revoked, ``False`` clean, ``None`` unknown (check unavailable).
    revoked: Optional[bool]
    connections_made: int = 0
    bytes_downloaded: int = 0
    latency_seconds: float = 0.0
    #: Parties that learned which server the client contacted.
    privacy_leaked_to: List[str] = field(default_factory=list)
    #: How stale the information the client acted on may be, in seconds.
    staleness_bound_seconds: float = 0.0
    notes: str = ""


class RevocationScheme(ABC):
    """Interface every baseline (and the RITM adapter) implements."""

    name: str = "abstract"

    def __init__(self, ground_truth: GroundTruth) -> None:
        self.ground_truth = ground_truth

    @abstractmethod
    def properties(self) -> SchemeProperties:
        """The qualitative column of Table IV."""

    @abstractmethod
    def check(self, context: CheckContext) -> CheckResult:
        """Perform one revocation check on behalf of a client."""

    @abstractmethod
    def client_storage_entries(self, totals: "ComparisonParameters") -> int:
        """Revocation entries a single client must store."""

    @abstractmethod
    def global_storage_entries(self, totals: "ComparisonParameters") -> int:
        """Revocation entries stored across the whole system."""

    @abstractmethod
    def client_connections(self, totals: "ComparisonParameters") -> int:
        """Connections a single client needs (Table IV "Conn. (client)")."""

    @abstractmethod
    def global_connections(self, totals: "ComparisonParameters") -> int:
        """Connections needed system-wide (Table IV "Conn. (global)")."""


@dataclass(frozen=True)
class ComparisonParameters:
    """The symbolic quantities of Table IV, instantiated with numbers."""

    n_revocations: int
    n_clients: int
    n_servers: int
    n_cas: int
    n_ras: int

    def as_dict(self) -> Dict[str, int]:
        return {
            "n_rev": self.n_revocations,
            "n_cl": self.n_clients,
            "n_s": self.n_servers,
            "n_ca": self.n_cas,
            "n_ra": self.n_ras,
        }
