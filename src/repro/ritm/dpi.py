"""Deep packet inspection for the Revocation Agent.

The paper's implementation (§VI) inspects every packet, decides whether it is
TLS, and — for handshake traffic — extracts the messages RITM cares about:
the ClientHello (to spot the RITM extension), the ServerHello (to catch the
session identifier), and the Certificate message (to learn the issuing CA and
serial number).  This module performs that classification on the simulated
packets' payloads and keeps counters that feed the Table III timing harness.

The engine holds one piece of state besides its counters: a bounded LRU from
the exact body of a ``Certificate`` message to its parsed form, because a
flash crowd presents the same chain thousands of times.  What it caches is
*parsed structure*, never a verdict — nothing in DPI validates a chain — and
only successful parses are stored, so a body one bit different is a different
key and pays the full, total parse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import TLSError
from repro.perf import LRUCache
from repro.pki.certificate import CertificateChain
from repro.tls.extensions import has_ritm_support
from repro.tls.messages import (
    ClientHello,
    HandshakeType,
    ServerHello,
    body_parsers_through,
    parse_handshake_messages,
)
from repro.tls.records import ContentType, TLSRecord, looks_like_tls, parse_records


@dataclass
class InspectionResult:
    """Everything the RA learnt from one packet payload."""

    is_tls: bool
    records: List[TLSRecord] = field(default_factory=list)
    client_hello: Optional[ClientHello] = None
    server_hello: Optional[ServerHello] = None
    certificate_chain: Optional[CertificateChain] = None
    finished_seen: bool = False
    has_ritm_status: bool = False
    has_application_data: bool = False
    parse_error: Optional[str] = None

    @property
    def client_requests_ritm(self) -> bool:
        return self.client_hello is not None and has_ritm_support(self.client_hello.extensions)


@dataclass
class DPIStatistics:
    """Counters mirroring the operations timed in Table III."""

    packets_inspected: int = 0
    tls_packets: int = 0
    non_tls_packets: int = 0
    handshake_records: int = 0
    certificates_parsed: int = 0
    parse_errors: int = 0


#: Distinct ``Certificate`` message bodies whose parsed chain one engine keeps
#: (about 1 KB of key and 2 KB of chain each).  Limits are part of the
#: interface: the bound is fixed here, not a :class:`RITMConfig` field.
CHAIN_CACHE_CAPACITY = 256


class DPIEngine:
    """Packet classifier used by the RA's data path."""

    def __init__(self) -> None:
        self.stats = DPIStatistics()
        self.chain_cache = LRUCache(maxsize=CHAIN_CACHE_CAPACITY)
        self._parsers = body_parsers_through(self.chain_cache)

    # -- fast path ------------------------------------------------------------

    def is_tls(self, payload: bytes) -> bool:
        """The cheap per-packet test (Table III, "TLS detection")."""
        self.stats.packets_inspected += 1
        if looks_like_tls(payload):
            self.stats.tls_packets += 1
            return True
        self.stats.non_tls_packets += 1
        return False

    # -- full inspection ----------------------------------------------------------

    def inspect(self, payload: bytes) -> InspectionResult:
        """Classify a payload and parse TLS into the handshake facts RITM needs."""
        if not self.is_tls(payload):
            return InspectionResult(is_tls=False)
        result = InspectionResult(is_tls=True)
        try:
            result.records = parse_records(payload)
        except TLSError as exc:
            self.stats.parse_errors += 1
            result.parse_error = str(exc)
            return result

        for record in result.records:
            if record.content_type == ContentType.HANDSHAKE:
                self.stats.handshake_records += 1
                self._inspect_handshake(record, result)
            elif record.content_type == ContentType.APPLICATION_DATA:
                result.has_application_data = True
            elif record.content_type == ContentType.RITM_STATUS:
                result.has_ritm_status = True
        return result

    def _inspect_handshake(self, record: TLSRecord, result: InspectionResult) -> None:
        try:
            messages = parse_handshake_messages(record.payload, self._parsers)
        except TLSError as exc:
            self.stats.parse_errors += 1
            result.parse_error = str(exc)
            return
        for handshake_type, message in messages:
            if handshake_type == HandshakeType.CLIENT_HELLO:
                result.client_hello = message
            elif handshake_type == HandshakeType.SERVER_HELLO:
                result.server_hello = message
            elif handshake_type == HandshakeType.CERTIFICATE:
                self.stats.certificates_parsed += 1
                result.certificate_chain = message.chain
            elif handshake_type == HandshakeType.FINISHED:
                result.finished_seen = True
