"""TLS handshake messages.

Only the parts of the handshake RITM relies on are modelled in detail: the
plaintext negotiation messages (ClientHello, ServerHello, Certificate,
ServerHelloDone, Finished, NewSessionTicket).  Key exchange and the actual
record encryption are outside RITM's scope ("we assume TLS and the
cryptographic primitives that we use are secure", §II) and are represented by
opaque payloads.

Every message encodes to the standard 4-byte handshake header (type +
24-bit length) followed by a message-specific body, so the DPI engine parses
exactly what it would parse on a real wire.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import CertificateError, TLSError
from repro.pki.certificate import CertificateChain
from repro.tls.extensions import Extension, decode_extensions, encode_extensions

RANDOM_SIZE = 32
#: A plausible default cipher-suite list (only carried for realistic sizes).
DEFAULT_CIPHER_SUITES = (0xC02F, 0xC030, 0x009E, 0x009F, 0x00FF)


class HandshakeType(IntEnum):
    CLIENT_HELLO = 1
    SERVER_HELLO = 2
    NEW_SESSION_TICKET = 4
    CERTIFICATE = 11
    SERVER_HELLO_DONE = 14
    FINISHED = 20


_HANDSHAKE_TYPES = {int(member): member for member in HandshakeType}


def _pack_handshake(handshake_type: HandshakeType, body: bytes) -> bytes:
    return struct.pack(">B", int(handshake_type)) + len(body).to_bytes(3, "big") + body


def _unpack_handshake(data: bytes, offset: int) -> Tuple[HandshakeType, bytes, int]:
    if offset + 4 > len(data):
        raise TLSError("truncated handshake header")
    msg_type = data[offset]
    length = int.from_bytes(data[offset + 1 : offset + 4], "big")
    offset += 4
    if offset + length > len(data):
        raise TLSError("truncated handshake body")
    handshake_type = _HANDSHAKE_TYPES.get(msg_type)
    if handshake_type is None:
        raise TLSError(f"unknown handshake type {msg_type}")
    return handshake_type, data[offset : offset + length], offset + length


@dataclass(frozen=True)
class ClientHello:
    """The plaintext ClientHello, optionally carrying the RITM extension."""

    random: bytes = field(default_factory=lambda: os.urandom(RANDOM_SIZE))
    session_id: bytes = b""
    cipher_suites: Tuple[int, ...] = DEFAULT_CIPHER_SUITES
    extensions: Tuple[Extension, ...] = ()

    def to_bytes(self) -> bytes:
        body = b"\x03\x03" + self.random
        body += struct.pack(">B", len(self.session_id)) + self.session_id
        body += struct.pack(">H", 2 * len(self.cipher_suites))
        body += b"".join(struct.pack(">H", suite) for suite in self.cipher_suites)
        body += b"\x01\x00"  # compression methods: null only
        body += encode_extensions(list(self.extensions))
        return _pack_handshake(HandshakeType.CLIENT_HELLO, body)

    @classmethod
    def from_body(cls, body: bytes) -> "ClientHello":
        if len(body) < 2 + RANDOM_SIZE + 1:
            raise TLSError("ClientHello body too short")
        offset = 2
        random = body[offset : offset + RANDOM_SIZE]
        offset += RANDOM_SIZE
        sid_len = body[offset]
        offset += 1
        session_id = body[offset : offset + sid_len]
        offset += sid_len
        try:
            (suites_len,) = struct.unpack_from(">H", body, offset)
            offset += 2
            suites = tuple(
                struct.unpack_from(">H", body, offset + i)[0] for i in range(0, suites_len, 2)
            )
            offset += suites_len
            comp_len = body[offset]
        except (struct.error, IndexError) as exc:
            raise TLSError("truncated ClientHello") from exc
        offset += 1 + comp_len
        extensions, offset = decode_extensions(body, offset)
        return cls(
            random=random,
            session_id=session_id,
            cipher_suites=suites,
            extensions=tuple(extensions),
        )


@dataclass(frozen=True)
class ServerHello:
    """The plaintext ServerHello."""

    random: bytes = field(default_factory=lambda: os.urandom(RANDOM_SIZE))
    session_id: bytes = b""
    cipher_suite: int = DEFAULT_CIPHER_SUITES[0]
    extensions: Tuple[Extension, ...] = ()

    def to_bytes(self) -> bytes:
        body = b"\x03\x03" + self.random
        body += struct.pack(">B", len(self.session_id)) + self.session_id
        body += struct.pack(">HB", self.cipher_suite, 0)
        body += encode_extensions(list(self.extensions))
        return _pack_handshake(HandshakeType.SERVER_HELLO, body)

    @classmethod
    def from_body(cls, body: bytes) -> "ServerHello":
        if len(body) < 2 + RANDOM_SIZE + 1:
            raise TLSError("ServerHello body too short")
        offset = 2
        random = body[offset : offset + RANDOM_SIZE]
        offset += RANDOM_SIZE
        sid_len = body[offset]
        offset += 1
        session_id = body[offset : offset + sid_len]
        offset += sid_len
        try:
            cipher_suite, _compression = struct.unpack_from(">HB", body, offset)
        except struct.error as exc:
            raise TLSError("truncated ServerHello") from exc
        offset += 3
        extensions, offset = decode_extensions(body, offset)
        return cls(
            random=random,
            session_id=session_id,
            cipher_suite=cipher_suite,
            extensions=tuple(extensions),
        )


@dataclass(frozen=True)
class CertificateMessage:
    """The Certificate handshake message carrying the server's chain."""

    chain: CertificateChain

    def to_bytes(self) -> bytes:
        return _pack_handshake(HandshakeType.CERTIFICATE, self.chain.to_bytes())

    @classmethod
    def from_body(cls, body: bytes) -> "CertificateMessage":
        try:
            return cls(chain=CertificateChain.from_bytes(body))
        except CertificateError as exc:
            raise TLSError(f"malformed Certificate message: {exc}") from exc


@dataclass(frozen=True)
class ServerHelloDone:
    def to_bytes(self) -> bytes:
        return _pack_handshake(HandshakeType.SERVER_HELLO_DONE, b"")


@dataclass(frozen=True)
class Finished:
    """The Finished message; verify data is opaque in this model."""

    verify_data: bytes = field(default_factory=lambda: os.urandom(12))

    def to_bytes(self) -> bytes:
        return _pack_handshake(HandshakeType.FINISHED, self.verify_data)

    @classmethod
    def from_body(cls, body: bytes) -> "Finished":
        return cls(verify_data=body)


@dataclass(frozen=True)
class NewSessionTicket:
    """RFC 5077 session ticket issued by the server for stateless resumption."""

    lifetime_seconds: int
    ticket: bytes

    def to_bytes(self) -> bytes:
        body = struct.pack(">IH", self.lifetime_seconds, len(self.ticket)) + self.ticket
        return _pack_handshake(HandshakeType.NEW_SESSION_TICKET, body)

    @classmethod
    def from_body(cls, body: bytes) -> "NewSessionTicket":
        if len(body) < 6:
            raise TLSError("NewSessionTicket body too short")
        lifetime, length = struct.unpack_from(">IH", body, 0)
        return cls(lifetime_seconds=lifetime, ticket=body[6 : 6 + length])


HandshakeMessage = object  # documentation alias; concrete classes above

#: Body parser per inspected handshake type.
BODY_PARSERS: Dict[HandshakeType, Callable[[bytes], object]] = {
    HandshakeType.CLIENT_HELLO: ClientHello.from_body,
    HandshakeType.SERVER_HELLO: ServerHello.from_body,
    HandshakeType.CERTIFICATE: CertificateMessage.from_body,
    HandshakeType.FINISHED: Finished.from_body,
    HandshakeType.NEW_SESSION_TICKET: NewSessionTicket.from_body,
}


def parse_handshake_messages(
    payload: bytes, parsers: Dict[HandshakeType, Callable[[bytes], object]] = BODY_PARSERS
) -> List[Tuple[HandshakeType, object]]:
    """Parse every handshake message in a handshake-record payload.

    Returns ``(type, message)`` pairs; messages of types this model does not
    need to inspect are returned as raw bytes.  ``parsers`` lets the RA's DPI
    engine answer a Certificate body it has parsed before by lookup.
    """
    messages: List[Tuple[HandshakeType, object]] = []
    offset = 0
    while offset < len(payload):
        handshake_type, body, offset = _unpack_handshake(payload, offset)
        parse = parsers.get(handshake_type)
        messages.append((handshake_type, body if parse is None else parse(body)))
    return messages
