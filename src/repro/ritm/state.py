"""Per-connection state kept by a Revocation Agent (Eq. 4 of the paper).

For every RITM-supported TLS connection the RA remembers the five-tuple, the
time it last delivered a revocation status (``lastStatus``), the handshake
stage, and — once the ServerHello has been observed — the issuing CA and the
certificate's serial number.  Resumed sessions re-populate the CA/serial
fields from the resumption cache the RA keeps alongside the flow table,
keyed by the server and the session id.

The flow table is keyed by :func:`flow_key`, a plain tuple the RA computes
once per packet, so a lookup hashes strings and integers, not a dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.net.packet import FiveTuple
from repro.pki.certificate import CertificateChain
from repro.pki.serial import SerialNumber
from repro.tls.connection import HandshakeStage

#: Lower endpoint (ip, port), higher endpoint, protocol.
FlowKey = Tuple[str, int, str, int, str]


def flow_key(flow: FiveTuple) -> FlowKey:
    """The direction-independent key of a flow, in
    :meth:`FiveTuple.canonical`'s order: the lower (ip, port) first."""
    low = (flow.src_ip, flow.src_port)
    high = (flow.dst_ip, flow.dst_port)
    if high < low:
        low, high = high, low
    return (*low, *high, flow.protocol)


@dataclass
class ConnectionState:
    """The RA's record for one supported TLS connection (Eq. 4)."""

    flow: FiveTuple
    last_status: float = 0.0
    stage: HandshakeStage = HandshakeStage.CLIENT_HELLO
    ca_name: Optional[str] = None
    serial: Optional[SerialNumber] = None
    #: ``not_after`` of the observed server certificate; selects the expiry
    #: shard when the issuing CA runs sharded dictionaries (§VIII).
    certificate_expiry: Optional[int] = None
    #: The session id the current handshake's ServerHello named (``b""``
    #: until one did): what names the session for resumption.
    session_id: bytes = b""
    created_at: float = 0.0
    last_activity: float = 0.0
    #: Full certificate chain observed on the handshake (used when the RA is
    #: configured to prove every certificate in the chain, §VIII).
    chain: Optional[CertificateChain] = None

    def begin_handshake(self) -> None:
        """A ClientHello opens a new handshake on this flow: nothing learnt
        from an earlier one — session, certificate — carries over."""
        self.stage = HandshakeStage.CLIENT_HELLO
        self.session_id = b""
        self.ca_name = self.serial = self.certificate_expiry = self.chain = None

    def adopt(self, chain: CertificateChain) -> None:
        """The server certificate this connection's statuses are about."""
        leaf = chain.leaf
        self.ca_name = leaf.issuer
        self.serial = leaf.serial
        self.certificate_expiry = leaf.not_after
        self.chain = chain

    def needs_status(self, now: float, delta_seconds: float) -> bool:
        """Has ``delta`` elapsed since the last status was delivered? (§III step 6)."""
        return now - self.last_status >= delta_seconds

    def mark_status_sent(self, now: float) -> None:
        self.last_status = now

    def is_established(self) -> bool:
        return self.stage == HandshakeStage.ESTABLISHED

    def knows_certificate(self) -> bool:
        return self.ca_name is not None and self.serial is not None


class ConnectionTable:
    """The RA's flow table, keyed by :func:`flow_key`."""

    def __init__(self) -> None:
        self._connections: Dict[FlowKey, ConnectionState] = {}
        #: ``get(key)``: the state of the flow whose :func:`flow_key` is
        #: ``key``, or ``None`` — the per-packet lookup, a bound ``dict.get``.
        self.get = self._connections.get

    def __len__(self) -> int:
        return len(self._connections)

    def create(self, flow: FiveTuple, now: float) -> ConnectionState:
        state = ConnectionState(
            flow=flow.canonical(),
            stage=HandshakeStage.CLIENT_HELLO,
            created_at=now,
            last_activity=now,
        )
        self._connections[flow_key(flow)] = state
        return state

    def lookup(self, flow: FiveTuple) -> Optional[ConnectionState]:
        return self._connections.get(flow_key(flow))

    def remove(self, flow: FiveTuple) -> None:
        self._connections.pop(flow_key(flow), None)
