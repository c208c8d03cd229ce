"""The RITM-supported TLS client.

The client (paper §III steps 1, 5, 7) behaves like an ordinary TLS client
with three additions:

* its ClientHello carries the RITM extension;
* before accepting the server's certificate it requires a revocation status
  (absence proof + signed root + freshness statement) attached by an on-path
  RA, verifies it, and rejects the connection if the status is missing,
  stale, invalid, or shows the certificate revoked;
* on an established connection it expects a fresh status at least every 2Δ
  and tears the connection down otherwise (the race-condition protection and
  blocking-attack defence of §V).

It is implemented as a network :class:`~repro.net.node.Endpoint`, so it plugs
directly into the path engine next to RAs and servers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from repro.crypto.signing import PublicKey
from repro.dictionary.proofs import RevocationStatus
from repro.dictionary.sharding import shard_issuer
from repro.errors import (
    CertificateError,
    ProofError,
    RevokedCertificateError,
    SignatureError,
    StaleStatusError,
    TLSError,
)
from repro.net.node import Endpoint
from repro.net.packet import Packet
from repro.perf import VerifiedRootCache
from repro.pki.ca import TrustStore
from repro.ritm.config import RITMConfig
from repro.ritm.consistency import ConsistencyChecker
from repro.ritm.messages import decode_status_bundle
from repro.tls.connection import (
    ClientConnectionConfig,
    HandshakeStage,
    TLSClientConnection,
)
from repro.tls.records import ContentType, TLSRecord, parse_records, serialize_records


class RejectionReason(Enum):
    """Why an RITM client refused (or tore down) a connection."""

    STANDARD_VALIDATION_FAILED = "standard-validation-failed"
    MISSING_STATUS = "missing-status"
    INVALID_STATUS = "invalid-status"
    STALE_STATUS = "stale-status"
    CERTIFICATE_REVOKED = "certificate-revoked"
    STATUS_TIMEOUT = "status-timeout"
    DOWNGRADE_SUSPECTED = "downgrade-suspected"


@dataclass
class ClientStatistics:
    statuses_received: int = 0
    statuses_valid: int = 0
    statuses_invalid: int = 0
    connections_rejected: int = 0
    connections_interrupted: int = 0


class RITMClient(Endpoint):
    """A TLS client that enforces RITM's certificate-acceptance policy."""

    def __init__(
        self,
        ip_address: str,
        server_name: str,
        trust_store: TrustStore,
        ca_public_keys: Dict[str, PublicKey],
        config: Optional[RITMConfig] = None,
        expect_ritm_protection: bool = True,
        session_id: bytes = b"",
        session_ticket: bytes = b"",
        root_cache: Optional[VerifiedRootCache] = None,
        validation_cache=None,
    ) -> None:
        self.config = config if config is not None else RITMConfig()
        super().__init__(ip_address)
        self.ca_public_keys = ca_public_keys
        self.expect_ritm_protection = expect_ritm_protection
        #: Hot-path engine (docs/PERFORMANCE.md): each CA's signed root is
        #: Ed25519-verified once per Δ epoch instead of once per handshake.
        #: Pass a shared cache to model a client fleet (or a browser across
        #: reconnects); by default each client keeps its own.
        self.root_cache = (
            root_cache
            if root_cache is not None
            else VerifiedRootCache(maxsize=self.config.root_cache_size)
        )
        self.tls = TLSClientConnection(
            ClientConnectionConfig(
                server_name=server_name,
                use_ritm_extension=True,
                session_id=session_id,
                session_ticket=session_ticket,
                validation_cache=validation_cache,
            ),
            trust_store,
        )
        self.consistency = ConsistencyChecker(owner=f"client:{ip_address}")
        self.stats = ClientStatistics()
        self.last_status_at: Optional[float] = None
        self.last_status: Optional[RevocationStatus] = None
        self.rejection: Optional[RejectionReason] = None
        self.rejection_detail: str = ""
        self.connection_accepted = False

    # -- outbound ------------------------------------------------------------

    def client_hello_packet(self, flow, now: float) -> Packet:
        """The opening packet of the connection."""
        record = self.tls.client_hello()
        return Packet(flow=flow, payload=record.to_bytes(), created_at=now)

    # -- endpoint interface -----------------------------------------------------

    def handle_packet(self, packet: Packet, now: float) -> List[Packet]:
        """Split RITM status records from TLS records, validate, then hand the
        TLS records to the inner connection state machine."""
        try:
            records = parse_records(packet.payload)
        except TLSError as exc:
            self._reject(RejectionReason.INVALID_STATUS, f"unparseable packet: {exc}")
            return []

        tls_records: List[TLSRecord] = []
        status_seen = server_hello_present = False
        statuses_in_packet: List[RevocationStatus] = []
        for record in records:
            if record.content_type == ContentType.RITM_STATUS:
                status_seen = True
                consumed = self._consume_status_record(record, now)
                if consumed is None:
                    return []
                statuses_in_packet.extend(consumed)
            else:
                tls_records.append(record)
                if record.content_type == ContentType.HANDSHAKE and record.payload[:1] == b"\x02":
                    server_hello_present = True

        responses: List[TLSRecord] = []
        for record in tls_records:
            try:
                responses.extend(self.tls.process_record(record, int(now)))
            except CertificateError as exc:
                self._reject(RejectionReason.STANDARD_VALIDATION_FAILED, str(exc))
                return []
            except TLSError as exc:
                self._reject(RejectionReason.INVALID_STATUS, f"TLS failure: {exc}")
                return []

        # Policy: a status delivered alongside the certificate must actually
        # cover that certificate — a valid proof about a *different* serial
        # (e.g. replayed by a compromised RA), or from a dictionary other
        # than the one covering the certificate's expiry (another shard of
        # the same CA, signed by the same key), does not count.
        if statuses_in_packet and self.tls.server_chain is not None:
            leaf = self.tls.server_chain.leaf
            covering = self.config.dictionary_name(leaf.issuer, leaf.not_after)
            if not any(
                status.serial == leaf.serial and status.ca_name == covering
                for status in statuses_in_packet
            ):
                self._reject(
                    RejectionReason.INVALID_STATUS,
                    "revocation status does not cover the server's certificate",
                )
                return []

        # Policy: a handshake flight that carries the server's hello must come
        # with a revocation status when the client expects RITM protection.
        if (
            self.expect_ritm_protection
            and server_hello_present
            and not status_seen
            and not self.tls.server_confirmed_ritm
        ):
            self._reject(
                RejectionReason.MISSING_STATUS,
                "ServerHello arrived without a revocation status and without a "
                "terminator confirmation; possible downgrade or missing RA",
            )
            return []

        if self.tls.is_established and self.rejection is None:
            self.connection_accepted = True

        reply_packets: List[Packet] = []
        if responses:
            reply_packets.append(
                packet.reply(serialize_records(responses), created_at=now)
            )
        return reply_packets

    # -- periodic policy check ----------------------------------------------------

    def enforce_freshness(self, now: float) -> bool:
        """Tear the connection down if no fresh status arrived within 2Δ (§III step 7).

        Returns ``True`` when the connection remains acceptable.
        """
        if not self.connection_accepted:
            return self.rejection is None
        window = self.config.attack_window_seconds
        if self.last_status_at is None or now - self.last_status_at > window:
            self._interrupt(
                RejectionReason.STATUS_TIMEOUT,
                f"no fresh revocation status for {window} seconds",
            )
            return False
        return True

    @property
    def is_connection_usable(self) -> bool:
        return self.connection_accepted and self.rejection is None

    # -- internals -------------------------------------------------------------------

    def _consume_status_record(
        self, record: TLSRecord, now: float
    ) -> Optional[List[RevocationStatus]]:
        """Validate one status record; returns its statuses, or None on failure.

        A record whose exact bytes passed the signature and Merkle checks
        before is answered from :attr:`root_cache`'s status memo, which skips
        the decode and :meth:`RevocationStatus.check_proof` only: the root
        signature under this client's key, freshness and the revoked verdict
        run on every call.
        """
        statuses = self.root_cache.statuses.get(record.payload)
        checked = statuses is not None
        if not checked:
            try:
                statuses = decode_status_bundle(record.payload)
            except TLSError as exc:
                self.stats.statuses_invalid += 1
                self._reject(RejectionReason.INVALID_STATUS, f"malformed status record: {exc}")
                return None
        for status in statuses:
            self.stats.statuses_received += 1
            if not self._authenticate_status(status, checked):
                return None
        if not checked:
            self.root_cache.statuses.put(record.payload, statuses)
        for status in statuses:
            if not self._judge_status(status, now):
                return None
        return statuses

    def _authenticate_status(self, status: RevocationStatus, checked: bool) -> bool:
        """The root signature under this client's CA key, then (unless the
        bytes were ``checked`` before) the proof against that root."""
        ca_key = self.ca_public_keys.get(status.ca_name)
        if ca_key is None:
            # An expiry shard's dictionary is signed with its CA's key.
            ca_key = self.ca_public_keys.get(shard_issuer(status.ca_name))
        if ca_key is None:
            self.stats.statuses_invalid += 1
            self._reject(
                RejectionReason.INVALID_STATUS,
                f"status signed by unknown CA {status.ca_name!r}",
            )
            return False
        try:
            self.root_cache.verify_or_raise(status.signed_root, ca_key)
            if not checked:
                status.check_proof()
        except (SignatureError, ProofError) as exc:
            self.stats.statuses_invalid += 1
            self._reject(RejectionReason.INVALID_STATUS, str(exc))
            return False
        return True

    def _judge_status(self, status: RevocationStatus, now: float) -> bool:
        """Freshness against ``now`` and the revoked verdict of an authentic status."""
        try:
            status.check_verdict(int(now), self.config.delta_seconds)
        except RevokedCertificateError as exc:
            self.stats.statuses_valid += 1
            self._reject(RejectionReason.CERTIFICATE_REVOKED, str(exc))
            return False
        except StaleStatusError as exc:
            self.stats.statuses_invalid += 1
            self._reject(RejectionReason.STALE_STATUS, str(exc))
            return False
        self.stats.statuses_valid += 1
        self.last_status_at = now
        self.last_status = status
        self.consistency.observe_root(status.signed_root)
        return True

    def _reject(self, reason: RejectionReason, detail: str) -> None:
        if self.rejection is None:
            self.rejection = reason
            self.rejection_detail = detail
        self.stats.connections_rejected += 1
        self.connection_accepted = False
        self.tls.stage = HandshakeStage.CLOSED

    def _interrupt(self, reason: RejectionReason, detail: str) -> None:
        self.rejection = reason
        self.rejection_detail = detail
        self.stats.connections_interrupted += 1
        self.connection_accepted = False
        self.tls.stage = HandshakeStage.CLOSED


class LegacyTLSClient(Endpoint):
    """A non-RITM client: sends no extension and ignores RITM status records.

    Used to show backward compatibility — RAs must stay fully transparent for
    such clients (§VII-F).
    """

    def __init__(self, ip_address: str, server_name: str, trust_store: TrustStore) -> None:
        super().__init__(ip_address)
        self.tls = TLSClientConnection(
            ClientConnectionConfig(server_name=server_name, use_ritm_extension=False),
            trust_store,
        )

    def client_hello_packet(self, flow, now: float) -> Packet:
        record = self.tls.client_hello()
        return Packet(flow=flow, payload=record.to_bytes(), created_at=now)

    def handle_packet(self, packet: Packet, now: float) -> List[Packet]:
        records = parse_records(packet.payload)
        responses: List[TLSRecord] = []
        for record in records:
            if record.is_ritm_status():
                continue  # a legacy client simply does not understand these
            responses.extend(self.tls.process_record(record, int(now)))
        if responses:
            return [packet.reply(serialize_records(responses), created_at=now)]
        return []
