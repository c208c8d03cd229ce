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


#: The 4-byte handshake header read as one integer: type << 24 | body length.
_HANDSHAKE_HEADER = struct.Struct(">I")
_MAX_HANDSHAKE_BODY = 0xFFFFFF
#: What both hellos open with: legacy version, random, session-id length.
_HELLO_HEAD = struct.Struct(f">2s{RANDOM_SIZE}sB")
_HELLO_VERSION = b"\x03\x03"
_U16 = struct.Struct(">H")
_NULL_COMPRESSION = b"\x01\x00"  # one method, the null one
_SERVER_CHOICE = struct.Struct(">HB")  # cipher suite, compression method
_TICKET_HEAD = struct.Struct(">IH")  # lifetime, ticket length


def _pack_handshake(handshake_type: HandshakeType, body: bytes) -> bytes:
    size = len(body)
    if size > _MAX_HANDSHAKE_BODY:
        raise TLSError(f"handshake body of {size} bytes exceeds the 24-bit length field")
    return _HANDSHAKE_HEADER.pack(handshake_type << 24 | size) + body


def _hello_head(kind: str, body: bytes, size: int) -> Tuple[bytes, bytes, int]:
    """Random, session id and the offset after it, of either hello's ``size``-byte body."""
    if size < _HELLO_HEAD.size:
        raise TLSError(f"{kind} body too short")
    version, random, sid_len = _HELLO_HEAD.unpack_from(body)
    if version != _HELLO_VERSION:
        raise TLSError(f"{kind} version {version.hex()} is not TLS 1.2")
    offset = _HELLO_HEAD.size + sid_len
    if offset > size:
        raise TLSError(f"truncated {kind}")
    return random, body[_HELLO_HEAD.size : offset], offset


@dataclass(frozen=True)
class ClientHello:
    """The plaintext ClientHello, optionally carrying the RITM extension."""

    random: bytes = field(default_factory=lambda: os.urandom(RANDOM_SIZE))
    session_id: bytes = b""
    cipher_suites: Tuple[int, ...] = DEFAULT_CIPHER_SUITES
    extensions: Tuple[Extension, ...] = ()

    def to_bytes(self) -> bytes:
        suites = self.cipher_suites
        body = b"".join(
            (
                _HELLO_VERSION,
                self.random,
                bytes((len(self.session_id),)),
                self.session_id,
                struct.pack(f">H{len(suites)}H", 2 * len(suites), *suites),
                _NULL_COMPRESSION,
                encode_extensions(self.extensions),
            )
        )
        return _pack_handshake(HandshakeType.CLIENT_HELLO, body)

    @classmethod
    def from_body(cls, body: bytes) -> "ClientHello":
        size = len(body)
        random, session_id, offset = _hello_head("ClientHello", body, size)
        suites_at = offset + 2
        if suites_at > size:
            raise TLSError("truncated ClientHello")
        (suites_len,) = _U16.unpack_from(body, offset)
        if suites_len % 2:
            raise TLSError("odd ClientHello cipher-suites length")
        offset = suites_at + suites_len
        if offset + 2 > size:
            raise TLSError("truncated ClientHello")
        suites = struct.unpack_from(f">{suites_len // 2}H", body, suites_at)
        if body[offset : offset + 2] != _NULL_COMPRESSION:
            raise TLSError("ClientHello compression methods are not null-only")
        extensions, end = decode_extensions(body, offset + 2)
        if end != size:
            raise TLSError("trailing bytes after the ClientHello extensions")
        return cls(random, session_id, suites, tuple(extensions))


@dataclass(frozen=True)
class ServerHello:
    """The plaintext ServerHello."""

    random: bytes = field(default_factory=lambda: os.urandom(RANDOM_SIZE))
    session_id: bytes = b""
    cipher_suite: int = DEFAULT_CIPHER_SUITES[0]
    extensions: Tuple[Extension, ...] = ()

    def to_bytes(self) -> bytes:
        body = b"".join(
            (
                _HELLO_VERSION,
                self.random,
                bytes((len(self.session_id),)),
                self.session_id,
                _SERVER_CHOICE.pack(self.cipher_suite, 0),
                encode_extensions(self.extensions),
            )
        )
        return _pack_handshake(HandshakeType.SERVER_HELLO, body)

    @classmethod
    def from_body(cls, body: bytes) -> "ServerHello":
        size = len(body)
        random, session_id, offset = _hello_head("ServerHello", body, size)
        if offset + 3 > size:
            raise TLSError("truncated ServerHello")
        cipher_suite, compression = _SERVER_CHOICE.unpack_from(body, offset)
        if compression:
            raise TLSError("ServerHello compression method is not null")
        extensions, end = decode_extensions(body, offset + 3)
        if end != size:
            raise TLSError("trailing bytes after the ServerHello extensions")
        return cls(random, session_id, cipher_suite, tuple(extensions))


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
        body = _TICKET_HEAD.pack(self.lifetime_seconds, len(self.ticket)) + self.ticket
        return _pack_handshake(HandshakeType.NEW_SESSION_TICKET, body)

    @classmethod
    def from_body(cls, body: bytes) -> "NewSessionTicket":
        if len(body) < _TICKET_HEAD.size:
            raise TLSError("NewSessionTicket body too short")
        lifetime, length = _TICKET_HEAD.unpack_from(body)
        if _TICKET_HEAD.size + length != len(body):
            raise TLSError("NewSessionTicket length does not match its body")
        return cls(lifetime_seconds=lifetime, ticket=body[_TICKET_HEAD.size :])


HandshakeMessage = object  # documentation alias; concrete classes above

#: Body parser per inspected handshake type.
BODY_PARSERS: Dict[HandshakeType, Callable[[bytes], object]] = {
    HandshakeType.CLIENT_HELLO: ClientHello.from_body,
    HandshakeType.SERVER_HELLO: ServerHello.from_body,
    HandshakeType.CERTIFICATE: CertificateMessage.from_body,
    HandshakeType.FINISHED: Finished.from_body,
    HandshakeType.NEW_SESSION_TICKET: NewSessionTicket.from_body,
}


def body_parsers_through(chain_memo) -> Dict[HandshakeType, Callable[[bytes], object]]:
    """``BODY_PARSERS`` with a ``Certificate`` body parsed before answered by lookup.

    ``chain_memo`` is an :class:`~repro.perf.LRUCache` keyed by the exact body.
    It holds *parsed structure*, never a verdict, and only successful parses,
    so a body one bit different is a different key and pays the full parse.
    """

    def certificate_message(body: bytes) -> CertificateMessage:
        message = chain_memo.get(body)
        if message is None:
            message = CertificateMessage.from_body(body)  # a failed parse raises: never stored
            chain_memo.put(body, message)
        return message

    return {**BODY_PARSERS, HandshakeType.CERTIFICATE: certificate_message}


def parse_handshake_messages(
    payload: bytes, parsers: Dict[HandshakeType, Callable[[bytes], object]] = BODY_PARSERS
) -> List[Tuple[HandshakeType, object]]:
    """Parse every handshake message in a handshake-record payload.

    Returns ``(type, message)`` pairs; messages of types this model does not
    need to inspect are returned as raw bytes.  ``parsers`` lets the RA's DPI
    engine and a warm client answer a Certificate body parsed before by lookup
    (:func:`body_parsers_through`).
    """
    messages: List[Tuple[HandshakeType, object]] = []
    unpack_header = _HANDSHAKE_HEADER.unpack_from
    offset, size = 0, len(payload)
    while offset < size:
        body_at = offset + 4
        if body_at > size:
            raise TLSError("truncated handshake header")
        (header,) = unpack_header(payload, offset)
        offset = body_at + (header & _MAX_HANDSHAKE_BODY)
        if offset > size:
            raise TLSError("truncated handshake body")
        handshake_type = _HANDSHAKE_TYPES.get(header >> 24)
        if handshake_type is None:
            raise TLSError(f"unknown handshake type {header >> 24}")
        parse = parsers.get(handshake_type)
        body = payload[body_at:offset]
        messages.append((handshake_type, body if parse is None else parse(body)))
    return messages
