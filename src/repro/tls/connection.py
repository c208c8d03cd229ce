"""Client- and server-side TLS connection state machines.

These endpoints drive the plaintext negotiation that RITM's DPI engine
observes.  Key exchange and record protection are not modelled (the paper
assumes TLS itself is secure); application-data payloads are opaque bytes.

A *full* handshake runs ClientHello → ServerHello + Certificate +
ServerHelloDone → client Finished → server Finished (+ NewSessionTicket).
An *abbreviated* handshake (session-ID or ticket resumption) skips the
Certificate flight, which matters to RITM because the RA then has to
remember the session's CA and serial from the original handshake.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

from repro.errors import CertificateError, TLSError
from repro.perf import LRUCache
from repro.pki.ca import TrustStore
from repro.pki.certificate import CertificateChain
from repro.pki.validation import ValidationResult, validate_chain
from repro.tls.extensions import (
    Extension,
    has_ritm_server_confirmation,
    ritm_server_confirm_extension,
    ritm_support_extension,
    server_name_extension,
    session_ticket_extension,
    find_extension,
    SESSION_TICKET_TYPE,
)
from repro.tls.messages import (
    DEFAULT_CIPHER_SUITES,
    CertificateMessage,
    ClientHello,
    Finished,
    HandshakeType,
    NewSessionTicket,
    ServerHello,
    ServerHelloDone,
    body_parsers_through,
    parse_handshake_messages,
)
from repro.tls.records import ContentType, TLSRecord
from repro.tls.session import SessionCache, SessionState, TicketIssuer

#: Lifetime hint on every session ticket a server issues.
SESSION_LIFETIME_SECONDS = 24 * 3600


class HandshakeStage(Enum):
    """Connection stages, matching the RA state field of Eq. 4."""

    INIT = "init"
    CLIENT_HELLO = "ClientHello"
    SERVER_HELLO = "ServerHello"
    ESTABLISHED = "established"
    CLOSED = "closed"


class ChainValidationCache:
    """Memoizes *successful* chain validations across connections.

    Chain validation runs one Ed25519 check per certificate — milliseconds
    each in this pure-Python stack — on every full handshake, although a
    flash crowd presents the same server chain thousands of times.  The
    cache keys on a digest of the exact chain bytes, a digest of the trust
    store contents, and the expected subject, and stores the
    :class:`~repro.pki.validation.ValidationResult` together with the
    chain's intersected validity window; a lookup outside that window (or
    after the trust store changed) re-runs the full validation.  Failed
    validations are never cached, so a forged chain always pays the full
    check and can never displace a useful entry.

    Beside the verdicts it keeps, under the same bound, the parsed form of
    each ``Certificate`` message body its clients have seen — structure only,
    as in the RA's DPI: :meth:`validate` still runs on every handshake, and
    those lookups are not counted in :attr:`stats`.

    Share one instance per trust domain — e.g. across the connections of one
    client, or across a fleet behind one gateway (see docs/PERFORMANCE.md).
    """

    def __init__(self, maxsize: int = 1024) -> None:
        self._cache = LRUCache(maxsize=maxsize)
        #: What a client validating through this cache parses handshake bodies with.
        self.body_parsers = body_parsers_through(LRUCache(maxsize=maxsize))

    @property
    def stats(self):
        """The underlying :class:`~repro.perf.cache.CacheStats` counters."""
        return self._cache.stats

    def __len__(self) -> int:
        return len(self._cache)

    @staticmethod
    def _chain_fingerprint(chain: CertificateChain) -> bytes:
        """Digest of the exact chain bytes being validated."""
        return hashlib.sha256(chain.to_bytes()).digest()

    @staticmethod
    def _trust_fingerprint(trust_store: TrustStore) -> bytes:
        """Digest of the trust store contents (roots added → new keys miss)."""
        digest = hashlib.sha256()
        for name in trust_store.names():
            digest.update(name.encode("utf-8"))
            digest.update(trust_store.public_key_for(name).key_bytes)
        return digest.digest()

    def validate(
        self,
        chain: CertificateChain,
        trust_store: TrustStore,
        now: int,
        expected_subject: Optional[str] = None,
    ) -> ValidationResult:
        """Drop-in memoized :func:`~repro.pki.validation.validate_chain`."""
        key = (
            self._chain_fingerprint(chain),
            self._trust_fingerprint(trust_store),
            expected_subject,
        )
        # Outside the validity window the cached verdict no longer applies:
        # the freshness-aware lookup counts it as a miss, drops the dead
        # entry, and the full validation below reports the precise failure.
        cached = self._cache.get(
            key, is_valid=lambda entry: entry[1] <= now <= entry[2]
        )
        if cached is not None:
            return cached[0]
        result = validate_chain(
            chain, trust_store, now=now, expected_subject=expected_subject
        )
        if result.valid:
            not_before = max(certificate.not_before for certificate in chain)
            not_after = min(certificate.not_after for certificate in chain)
            self._cache.put(key, (result, not_before, not_after))
        return result


@dataclass
class ClientConnectionConfig:
    """Client knobs: RITM support, resumption material, expected hostname."""

    server_name: str
    use_ritm_extension: bool = True
    session_id: bytes = b""
    session_ticket: bytes = b""
    #: The :class:`ChainValidationCache` every full handshake validates
    #: through; pass a shared one, or leave ``None`` for a private disabled
    #: one (``maxsize=0``: counts lookups, memoizes nothing).
    validation_cache: Optional[ChainValidationCache] = None

    def __post_init__(self) -> None:
        if self.validation_cache is None:
            self.validation_cache = ChainValidationCache(maxsize=0)


class TLSClientConnection:
    """The client half of a (simplified) TLS connection."""

    def __init__(self, config: ClientConnectionConfig, trust_store: TrustStore) -> None:
        self.config = config
        self.trust_store = trust_store
        self.stage = HandshakeStage.INIT
        self.server_chain: Optional[CertificateChain] = None
        self.validation: Optional[ValidationResult] = None
        self.negotiated_session_id: bytes = b""
        self.received_ticket: Optional[NewSessionTicket] = None
        self.server_confirmed_ritm = False
        self.resumed = False
        self.application_data_received: List[bytes] = []

    # -- outbound -------------------------------------------------------------

    def client_hello(self) -> TLSRecord:
        """Build the ClientHello record (with the RITM extension when enabled)."""
        extensions: List[Extension] = [server_name_extension(self.config.server_name)]
        if self.config.use_ritm_extension:
            extensions.append(ritm_support_extension())
        if self.config.session_ticket:
            extensions.append(session_ticket_extension(self.config.session_ticket))
        hello = ClientHello(
            session_id=self.config.session_id,
            extensions=tuple(extensions),
        )
        self.stage = HandshakeStage.CLIENT_HELLO
        return TLSRecord(ContentType.HANDSHAKE, hello.to_bytes())

    def finished(self) -> TLSRecord:
        """The client's Finished record (handshake completion)."""
        return TLSRecord(ContentType.HANDSHAKE, Finished().to_bytes())

    def application_data(self, payload: bytes) -> TLSRecord:
        """Wrap ``payload`` as application data (established connections only)."""
        if self.stage != HandshakeStage.ESTABLISHED:
            raise TLSError("cannot send application data before the handshake completes")
        return TLSRecord(ContentType.APPLICATION_DATA, payload)

    # -- inbound --------------------------------------------------------------

    def process_record(self, record: TLSRecord, now: int) -> List[TLSRecord]:
        """Consume one record from the server; returns records to send back."""
        responses: List[TLSRecord] = []
        if record.content_type == ContentType.HANDSHAKE:
            parsers = self.config.validation_cache.body_parsers
            for handshake_type, message in parse_handshake_messages(record.payload, parsers):
                responses.extend(self._process_handshake(handshake_type, message, now))
        elif record.content_type == ContentType.APPLICATION_DATA:
            if self.stage != HandshakeStage.ESTABLISHED:
                raise TLSError("application data received before the handshake completed")
            self.application_data_received.append(record.payload)
        elif record.content_type == ContentType.ALERT:
            self.stage = HandshakeStage.CLOSED
        # RITM_STATUS records are not handled here: the plain TLS client
        # ignores them; the RITM client (repro.ritm.client) strips and
        # validates them before records reach this state machine.
        return responses

    def _process_handshake(self, handshake_type, message, now: int) -> List[TLSRecord]:
        responses: List[TLSRecord] = []
        if handshake_type == HandshakeType.SERVER_HELLO:
            if self.stage != HandshakeStage.CLIENT_HELLO:
                raise TLSError("unexpected ServerHello")
            self.stage = HandshakeStage.SERVER_HELLO
            self.negotiated_session_id = message.session_id
            self.server_confirmed_ritm = has_ritm_server_confirmation(message.extensions)
            if self.config.session_id and message.session_id == self.config.session_id:
                self.resumed = True
        elif handshake_type == HandshakeType.CERTIFICATE:
            if self.stage != HandshakeStage.SERVER_HELLO:
                raise TLSError("Certificate message out of order")
            self.server_chain = message.chain
            self.validation = self.config.validation_cache.validate(
                message.chain,
                self.trust_store,
                now=now,
                expected_subject=self.config.server_name,
            )
            if not self.validation:
                raise CertificateError(
                    f"standard validation failed: {self.validation.reason}"
                )
        elif handshake_type == HandshakeType.SERVER_HELLO_DONE:
            responses.append(self.finished())
        elif handshake_type == HandshakeType.FINISHED:
            if self.stage not in (HandshakeStage.SERVER_HELLO, HandshakeStage.ESTABLISHED):
                raise TLSError("Finished message out of order")
            if self.resumed and self.stage == HandshakeStage.SERVER_HELLO:
                # Abbreviated handshake: client responds with its own Finished.
                responses.append(self.finished())
            self.stage = HandshakeStage.ESTABLISHED
        elif handshake_type == HandshakeType.NEW_SESSION_TICKET:
            self.received_ticket = message
        return responses

    @property
    def is_established(self) -> bool:
        """Whether the handshake completed and the session is usable."""
        return self.stage == HandshakeStage.ESTABLISHED


@dataclass
class ServerConnectionConfig:
    """Server knobs: certificate chain, resumption, RITM-terminator behaviour."""

    chain: CertificateChain
    acts_as_ritm_terminator: bool = False


class TLSServerConnection:
    """The server half of a (simplified) TLS connection."""

    def __init__(
        self,
        config: ServerConnectionConfig,
        session_cache: Optional[SessionCache] = None,
        ticket_issuer: Optional[TicketIssuer] = None,
    ) -> None:
        self.config = config
        self.session_cache = session_cache if session_cache is not None else SessionCache()
        self.ticket_issuer = ticket_issuer if ticket_issuer is not None else TicketIssuer()
        self.stage = HandshakeStage.INIT
        self.client_supports_ritm = False
        self.resumed = False
        self.session_id: bytes = b""
        self.application_data_received: List[bytes] = []

    def process_record(self, record: TLSRecord, now: int) -> List[TLSRecord]:
        """Consume one record from the client; returns records to send back."""
        responses: List[TLSRecord] = []
        if record.content_type == ContentType.HANDSHAKE:
            for handshake_type, message in parse_handshake_messages(record.payload):
                responses.extend(self._process_handshake(handshake_type, message, now))
        elif record.content_type == ContentType.APPLICATION_DATA:
            if self.stage != HandshakeStage.ESTABLISHED:
                raise TLSError("application data received before the handshake completed")
            self.application_data_received.append(record.payload)
        elif record.content_type == ContentType.ALERT:
            self.stage = HandshakeStage.CLOSED
        return responses

    def application_data(self, payload: bytes) -> TLSRecord:
        """Wrap ``payload`` as application data (established connections only)."""
        if self.stage != HandshakeStage.ESTABLISHED:
            raise TLSError("cannot send application data before the handshake completes")
        return TLSRecord(ContentType.APPLICATION_DATA, payload)

    # -- internals --------------------------------------------------------------

    def _process_handshake(self, handshake_type, message, now: int) -> List[TLSRecord]:
        responses: List[TLSRecord] = []
        if handshake_type == HandshakeType.CLIENT_HELLO:
            responses.extend(self._respond_to_client_hello(message, now))
        elif handshake_type == HandshakeType.FINISHED:
            if self.stage == HandshakeStage.SERVER_HELLO:
                flight = [Finished().to_bytes()]
                if not self.resumed:
                    state = self._session_state(now)
                    ticket = NewSessionTicket(
                        lifetime_seconds=SESSION_LIFETIME_SECONDS,
                        ticket=self.ticket_issuer.issue(state),
                    )
                    flight.append(ticket.to_bytes())
                responses.append(TLSRecord(ContentType.HANDSHAKE, b"".join(flight)))
                self.stage = HandshakeStage.ESTABLISHED
            elif self.stage == HandshakeStage.ESTABLISHED:
                pass  # client's Finished for a resumed session; nothing to send
            else:
                raise TLSError("Finished message out of order")
        return responses

    def _respond_to_client_hello(self, hello: ClientHello, now: int) -> List[TLSRecord]:
        from repro.tls.extensions import has_ritm_support

        self.client_supports_ritm = has_ritm_support(hello.extensions)
        extensions: List[Extension] = []
        if self.config.acts_as_ritm_terminator and self.client_supports_ritm:
            extensions.append(ritm_server_confirm_extension())

        resumed_state = self._try_resume(hello, now)
        if resumed_state is not None:
            self.resumed = True
            self.session_id = resumed_state.session_id
            server_hello = ServerHello(
                session_id=resumed_state.session_id,
                cipher_suite=resumed_state.cipher_suite,
                extensions=tuple(extensions),
            )
            flight = server_hello.to_bytes() + Finished().to_bytes()
            self.stage = HandshakeStage.SERVER_HELLO
            result = [TLSRecord(ContentType.HANDSHAKE, flight)]
            # Server considers the session live as soon as its Finished is out.
            self.stage = HandshakeStage.ESTABLISHED
            return result

        self.session_id = self.session_cache.new_session_id()
        server_hello = ServerHello(session_id=self.session_id, extensions=tuple(extensions))
        flight = (
            server_hello.to_bytes()
            + CertificateMessage(self.config.chain).to_bytes()
            + ServerHelloDone().to_bytes()
        )
        self.stage = HandshakeStage.SERVER_HELLO
        self.session_cache.store(self._session_state(now))
        return [TLSRecord(ContentType.HANDSHAKE, flight)]

    def _try_resume(self, hello: ClientHello, now: int) -> Optional[SessionState]:
        if hello.session_id:
            state = self.session_cache.lookup(hello.session_id, now)
            if state is not None:
                return state
        ticket_extension = find_extension(hello.extensions, SESSION_TICKET_TYPE)
        if ticket_extension is not None and ticket_extension.data:
            return self.ticket_issuer.validate(ticket_extension.data, now)
        return None

    def _session_state(self, now: int) -> SessionState:
        leaf = self.config.chain.leaf
        return SessionState(
            session_id=self.session_id,
            server_name=leaf.subject,
            cipher_suite=DEFAULT_CIPHER_SUITES[0],
            established_at=now,
            ca_name=leaf.issuer,
            serial_value=leaf.serial.value,
        )
