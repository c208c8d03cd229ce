"""TLS session caching and resumption (session IDs and session tickets).

RITM explicitly supports both resumption mechanisms (§III): abbreviated
handshakes skip the Certificate message, so the RA must remember which CA and
serial a resumed session refers to.  It keys that memory by the session: the
server's address and the session id the full handshake's ServerHello
assigned, which the abbreviated ServerHello echoes.  This model's server
echoes it for a ticket resumption too (the ticket carries the id of the
session it was minted for); an RFC 5077 §3.4 server echoes the client's own
id instead, which the RA does not map to a certificate.  This module
provides the server-side session cache and RFC 5077-style tickets the
connection state machines use.
"""

from __future__ import annotations

import hmac
import hashlib
import os
import struct
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import TLSError

SESSION_ID_SIZE = 32
DEFAULT_SESSION_LIFETIME = 24 * 3600


@dataclass(frozen=True)
class SessionState:
    """What both endpoints remember about an established session."""

    session_id: bytes
    server_name: str
    cipher_suite: int
    established_at: int
    ca_name: str = ""
    serial_value: int = 0


class SessionCache:
    """Server-side session-ID cache (stateful resumption)."""

    def __init__(self, lifetime_seconds: int = DEFAULT_SESSION_LIFETIME) -> None:
        self._lifetime = lifetime_seconds
        self._sessions: Dict[bytes, SessionState] = {}

    def new_session_id(self) -> bytes:
        return os.urandom(SESSION_ID_SIZE)

    def store(self, state: SessionState) -> None:
        self._sessions[state.session_id] = state

    def lookup(self, session_id: bytes, now: int) -> Optional[SessionState]:
        state = self._sessions.get(session_id)
        if state is None:
            return None
        if now - state.established_at > self._lifetime:
            del self._sessions[session_id]
            return None
        return state

    def __len__(self) -> int:
        return len(self._sessions)


class TicketIssuer:
    """Server-side session-ticket minting and validation (stateless resumption).

    Tickets are authenticated with an HMAC under a server-local key; the
    content is not encrypted because nothing in this model is secret, but the
    MAC prevents forgery, which is what the resumption logic relies on.
    """

    def __init__(self, key: Optional[bytes] = None, lifetime_seconds: int = DEFAULT_SESSION_LIFETIME) -> None:
        self._key = key if key is not None else os.urandom(32)
        self.lifetime_seconds = lifetime_seconds

    def issue(self, state: SessionState) -> bytes:
        body = self._encode_state(state)
        mac = hmac.new(self._key, body, hashlib.sha256).digest()
        return body + mac

    def validate(self, ticket: bytes, now: int) -> Optional[SessionState]:
        if len(ticket) < 32:
            return None
        body, mac = ticket[:-32], ticket[-32:]
        expected = hmac.new(self._key, body, hashlib.sha256).digest()
        if not hmac.compare_digest(mac, expected):
            return None
        try:
            state = self._decode_state(body)
        except TLSError:
            return None
        if now - state.established_at > self.lifetime_seconds:
            return None
        return state

    @staticmethod
    def _encode_state(state: SessionState) -> bytes:
        name = state.server_name.encode("utf-8")
        ca = state.ca_name.encode("utf-8")
        return b"".join(
            [
                struct.pack(">B", len(state.session_id)),
                state.session_id,
                struct.pack(">H", len(name)),
                name,
                struct.pack(">H", len(ca)),
                ca,
                struct.pack(">HQQ", state.cipher_suite, state.established_at, state.serial_value),
            ]
        )

    @staticmethod
    def _decode_state(body: bytes) -> SessionState:
        try:
            offset = 0
            sid_len = body[offset]
            offset += 1
            session_id = body[offset : offset + sid_len]
            offset += sid_len
            (name_len,) = struct.unpack_from(">H", body, offset)
            offset += 2
            server_name = body[offset : offset + name_len].decode("utf-8")
            offset += name_len
            (ca_len,) = struct.unpack_from(">H", body, offset)
            offset += 2
            ca_name = body[offset : offset + ca_len].decode("utf-8")
            offset += ca_len
            cipher_suite, established_at, serial_value = struct.unpack_from(">HQQ", body, offset)
        except (IndexError, struct.error) as exc:
            raise TLSError(f"malformed session ticket: {exc}") from exc
        return SessionState(
            session_id=session_id,
            server_name=server_name,
            cipher_suite=cipher_suite,
            established_at=established_at,
            ca_name=ca_name,
            serial_value=serial_value,
        )
