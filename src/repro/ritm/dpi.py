"""Deep packet inspection for the Revocation Agent.

The paper's implementation (§VI) inspects every packet, decides whether it is
TLS, and — for handshake traffic — extracts the few facts RITM acts on: does
a ClientHello carry the RITM extension, which session does a ServerHello
name, which chain does a Certificate
message carry, and does the payload hold a Finished message, application
data or a status another RA attached.  This module reads exactly those facts
off a packet payload.

:meth:`DPIEngine.inspect` walks the record headers and the handshake headers
inside them by offset, in one pass over the payload, and builds no record,
hello, extension or Finished object.  A message body it reads through the
offset readers the endpoint parsers are built on
(:func:`~repro.tls.messages.read_hello`,
:func:`~repro.tls.extensions.read_extensions`,
:func:`~repro.tls.messages.read_ticket`), so each layout and its checks exist
once, in :mod:`repro.tls`.  The framing loop mirrors
:func:`~repro.tls.records.parse_records` and
:func:`~repro.tls.messages.parse_handshake_messages` check for check: an
input they reject is a ``parse_error`` here, which the RA forwards
untouched.  Those parsers (with :data:`~repro.tls.messages.BODY_PARSERS`)
are the oracle of ``tests/ritm/test_dpi.py``'s differential test.

The engine holds one piece of state: a bounded LRU from
the exact body of a ``Certificate`` message to its parsed chain, because a
flash crowd presents the same chain thousands of times.  What it caches is
*parsed structure*, never a verdict — nothing in DPI validates a chain — and
only successful parses are stored, so a body one bit different is a different
key and pays the full, total parse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import CertificateError, TLSError
from repro.perf import LRUCache
from repro.pki.certificate import CertificateChain
from repro.tls.extensions import RITM_SUPPORT_TYPE, read_extensions
from repro.tls.messages import (
    HANDSHAKE_HEADER,
    MAX_HANDSHAKE_BODY,
    HandshakeType,
    read_hello,
    read_ticket,
)
from repro.tls.records import (
    MAX_RECORD_PAYLOAD,
    RECORD_HEADER,
    RECORD_HEADER_SIZE,
    ContentType,
    looks_like_tls,
    oversized_record,
)


@dataclass(slots=True)
class InspectionResult:
    """Everything the RA learnt from one packet payload.

    A result with a ``parse_error`` reports no other fact: the RA forwards
    such a packet untouched.
    """

    is_tls: bool
    #: Whether the (last) ClientHello carries the RITM support extension.
    client_requests_ritm: bool = False
    #: Session id the (last) ServerHello names; ``None``: no ServerHello.
    server_session_id: Optional[bytes] = None
    certificate_chain: Optional[CertificateChain] = None
    finished_seen: bool = False
    has_ritm_status: bool = False
    has_application_data: bool = False
    parse_error: Optional[str] = None


#: Distinct ``Certificate`` message bodies whose parsed chain one engine keeps
#: (about 1 KB of key and 2 KB of chain each).  Limits are part of the
#: interface: the bound is fixed here, not a :class:`RITMConfig` field.
CHAIN_CACHE_CAPACITY = 256

# Module-level aliases: the walk compares against these per record and per
# message, and reading a member off its enum class is slow (~0.2 µs against
# ~0.05 µs for a module global, CPython 3.11 on a 2-vCPU x86-64 container).
_HANDSHAKE = ContentType.HANDSHAKE
_APPLICATION_DATA = ContentType.APPLICATION_DATA
_RITM_STATUS = ContentType.RITM_STATUS
_OTHER_CONTENT = frozenset({ContentType.CHANGE_CIPHER_SPEC, ContentType.ALERT})
_CLIENT_HELLO = HandshakeType.CLIENT_HELLO
_SERVER_HELLO = HandshakeType.SERVER_HELLO
_CERTIFICATE = HandshakeType.CERTIFICATE
_FINISHED = HandshakeType.FINISHED
_NEW_SESSION_TICKET = HandshakeType.NEW_SESSION_TICKET
_SERVER_HELLO_DONE = HandshakeType.SERVER_HELLO_DONE


class DPIEngine:
    """Packet classifier used by the RA's data path."""

    def __init__(self) -> None:
        self.chain_cache = LRUCache(maxsize=CHAIN_CACHE_CAPACITY)

    # -- fast path ------------------------------------------------------------

    def is_tls(self, payload: bytes) -> bool:
        """The cheap per-packet test (Table III, "TLS detection")."""
        return looks_like_tls(payload)

    # -- full inspection ----------------------------------------------------------

    def inspect(self, payload: bytes) -> InspectionResult:
        """Classify a payload and read the handshake facts RITM needs off it."""
        if not looks_like_tls(payload):
            return InspectionResult(False)
        result = InspectionResult(True)
        try:
            self._walk(payload, result)
        except TLSError as exc:
            return InspectionResult(True, parse_error=str(exc))
        return result

    def _walk(self, data: bytes, result: InspectionResult) -> None:
        """Every record header, and every handshake header inside a handshake
        record, by offset; raises :class:`TLSError` where a parser would."""
        size = len(data)
        offset = 0
        while offset < size:
            start = offset + RECORD_HEADER_SIZE
            if start > size:
                raise TLSError("truncated TLS record header")
            content_type, _, _, length = RECORD_HEADER.unpack_from(data, offset)
            offset = start + length
            if offset > size:
                raise TLSError("truncated TLS record payload")
            if length > MAX_RECORD_PAYLOAD:
                raise oversized_record(length)
            if content_type == _APPLICATION_DATA:
                result.has_application_data = True
            elif content_type == _RITM_STATUS:
                result.has_ritm_status = True
            elif content_type != _HANDSHAKE:
                if content_type not in _OTHER_CONTENT:
                    raise TLSError(f"unknown TLS content type {content_type}")
            else:
                while start < offset:
                    body_at = start + 4
                    if body_at > offset:
                        raise TLSError("truncated handshake header")
                    (header,) = HANDSHAKE_HEADER.unpack_from(data, start)
                    start = body_at + (header & MAX_HANDSHAKE_BODY)
                    if start > offset:
                        raise TLSError("truncated handshake body")
                    kind = header >> 24
                    if kind == _FINISHED:
                        result.finished_seen = True
                    elif kind == _CERTIFICATE:
                        result.certificate_chain = self._chain(data[body_at:start])
                    elif kind == _SERVER_HELLO:
                        session_id, at = read_hello(kind, data, body_at, start)
                        read_extensions(data, at, start)
                        result.server_session_id = session_id
                    elif kind == _CLIENT_HELLO:
                        _, at = read_hello(kind, data, body_at, start)
                        result.client_requests_ritm = (
                            read_extensions(data, at, start, RITM_SUPPORT_TYPE) is not None
                        )
                    elif kind == _NEW_SESSION_TICKET:
                        read_ticket(data, body_at, start)
                    elif kind != _SERVER_HELLO_DONE:
                        raise TLSError(f"unknown handshake type {kind}")

    def _chain(self, body: bytes) -> CertificateChain:
        """The chain a ``Certificate`` body carries, parsed once per distinct body."""
        chain = self.chain_cache.get(body)
        if chain is None:
            try:
                chain = CertificateChain.from_bytes(body)
            except CertificateError as exc:
                raise TLSError(f"malformed Certificate message: {exc}") from exc
            self.chain_cache.put(body, chain)  # a failed parse raised: never stored
        return chain
