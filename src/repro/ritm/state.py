"""Per-connection state kept by a Revocation Agent (Eq. 4 of the paper).

For every RITM-supported TLS connection the RA remembers the five-tuple, the
time it last delivered a revocation status (``lastStatus``), the handshake
stage, and — once the ServerHello has been observed — the issuing CA and the
certificate's serial number.  Resumed sessions re-populate the CA/serial
fields from the session cache the RA keeps alongside the flow table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.net.packet import FiveTuple
from repro.pki.serial import SerialNumber
from repro.tls.connection import HandshakeStage


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
    #: TLS session identifier (for session-ID resumption bookkeeping).
    session_id: bytes = b""
    created_at: float = 0.0
    last_activity: float = 0.0
    #: Full certificate chain observed on the handshake (used when the RA is
    #: configured to prove every certificate in the chain, §VIII).
    chain: Optional[object] = None

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
    """The RA's flow table, keyed by the canonical five-tuple."""

    def __init__(self, idle_timeout_seconds: float = 3600.0) -> None:
        self._connections: Dict[FiveTuple, ConnectionState] = {}
        self.idle_timeout_seconds = idle_timeout_seconds

    def __len__(self) -> int:
        return len(self._connections)

    def create(self, flow: FiveTuple, now: float) -> ConnectionState:
        state = ConnectionState(
            flow=flow.canonical(),
            stage=HandshakeStage.CLIENT_HELLO,
            created_at=now,
            last_activity=now,
        )
        self._connections[flow.canonical()] = state
        return state

    def lookup(self, flow: FiveTuple) -> Optional[ConnectionState]:
        return self._connections.get(flow.canonical())

    def remove(self, flow: FiveTuple) -> None:
        self._connections.pop(flow.canonical(), None)

    def touch(self, flow: FiveTuple, now: float) -> None:
        state = self.lookup(flow)
        if state is not None:
            state.last_activity = now

    def expire_idle(self, now: float) -> int:
        """Drop connections idle longer than the timeout; returns how many."""
        stale = [
            key
            for key, state in self._connections.items()
            if now - state.last_activity > self.idle_timeout_seconds
        ]
        for key in stale:
            del self._connections[key]
        return len(stale)

    def states(self):
        return list(self._connections.values())
