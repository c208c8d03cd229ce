"""TLS handshake messages.

Only the parts of the handshake RITM relies on are modelled in detail: the
plaintext negotiation messages (ClientHello, ServerHello, Certificate,
ServerHelloDone, Finished, NewSessionTicket).  Key exchange and the actual
record encryption are outside RITM's scope ("we assume TLS and the
cryptographic primitives that we use are secure", §II) and are represented by
opaque payloads.

Every message encodes to the standard 4-byte handshake header (type +
24-bit length) followed by a message-specific body, so the DPI engine parses
exactly what it would parse on a real wire.  The layouts are read in one
place: :func:`read_hello` and :func:`read_ticket` check a body by offset and
build nothing; ``from_body`` builds its message around them, and the RA's DPI
(:mod:`repro.ritm.dpi`) calls them directly.
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
from repro.tls.records import no_wire_form

RANDOM_SIZE = 32
#: A plausible default cipher-suite list (only carried for realistic sizes).
DEFAULT_CIPHER_SUITES = (0xC02F, 0xC030, 0x009E, 0x009F, 0x00FF)


class HandshakeType(IntEnum):
    """The handshake message types this model carries (RFC 5246 §7.4, RFC
    5077 §3.3), by their one-byte wire values."""

    CLIENT_HELLO = 1
    SERVER_HELLO = 2
    NEW_SESSION_TICKET = 4
    CERTIFICATE = 11
    SERVER_HELLO_DONE = 14
    FINISHED = 20


_HANDSHAKE_TYPES = {int(member): member for member in HandshakeType}


#: The 4-byte handshake header read as one integer: type << 24 | body length.
HANDSHAKE_HEADER = struct.Struct(">I")
MAX_HANDSHAKE_BODY = 0xFFFFFF
#: What both hellos open with: legacy version, random, session-id length.
_HELLO_HEAD = struct.Struct(f">2s{RANDOM_SIZE}xB")
_RANDOM_AT = 2
_HELLO_VERSION = b"\x03\x03"
_U16 = struct.Struct(">H")
_NULL_COMPRESSION = b"\x01\x00"  # one method, the null one
_SERVER_CHOICE = struct.Struct(">HB")  # cipher suite, compression method
_TICKET_HEAD = struct.Struct(">IH")  # lifetime, ticket length
_CLIENT_HELLO = 1  # HandshakeType.CLIENT_HELLO, read per hello as a plain int
_HELLO_NAMES = {1: "ClientHello", 2: "ServerHello"}


def _pack_handshake(handshake_type: HandshakeType, body: bytes) -> bytes:
    size = len(body)
    if size > MAX_HANDSHAKE_BODY:
        raise TLSError(f"handshake body of {size} bytes exceeds the 24-bit length field")
    return HANDSHAKE_HEADER.pack(handshake_type << 24 | size) + body


def read_hello(handshake_type: int, data: bytes, start: int, stop: int) -> Tuple[bytes, int]:
    """The session id of the hello whose body is ``data[start:stop]`` and the
    offset of its extensions block (:func:`~repro.tls.extensions.read_extensions`
    checks that block).

    Applies every check to the fields before the extensions: TLS 1.2, the
    session id inside the body, and for a ClientHello an even cipher-suites
    length and null-only compression, for a ServerHello null compression.
    """
    at = start + _HELLO_HEAD.size
    if at > stop:
        raise TLSError(f"{_HELLO_NAMES[handshake_type]} body too short")
    version, session_length = _HELLO_HEAD.unpack_from(data, start)
    if version != _HELLO_VERSION:
        raise TLSError(f"{_HELLO_NAMES[handshake_type]} version {version.hex()} is not TLS 1.2")
    end = at + session_length
    if end > stop:
        raise TLSError(f"truncated {_HELLO_NAMES[handshake_type]}")
    if handshake_type == _CLIENT_HELLO:
        if end + 2 > stop:
            raise TLSError("truncated ClientHello")
        (suites_length,) = _U16.unpack_from(data, end)
        if suites_length % 2:
            raise TLSError("odd ClientHello cipher-suites length")
        compression_at = end + 2 + suites_length
        if compression_at + 2 > stop:
            raise TLSError("truncated ClientHello")
        if data[compression_at : compression_at + 2] != _NULL_COMPRESSION:
            raise TLSError("ClientHello compression methods are not null-only")
        return data[at:end], compression_at + 2
    if end + _SERVER_CHOICE.size > stop:
        raise TLSError("truncated ServerHello")
    if data[end + 2]:
        raise TLSError("ServerHello compression method is not null")
    return data[at:end], end + _SERVER_CHOICE.size


def read_ticket(data: bytes, start: int, stop: int) -> int:
    """The offset of the ticket in the NewSessionTicket body ``data[start:stop]``,
    once its length field is checked against the body."""
    at = start + _TICKET_HEAD.size
    if at > stop:
        raise TLSError("NewSessionTicket body too short")
    if at + _U16.unpack_from(data, at - 2)[0] != stop:
        raise TLSError("NewSessionTicket length does not match its body")
    return at


@dataclass(frozen=True)
class ClientHello:
    """The plaintext ClientHello, optionally carrying the RITM extension."""

    random: bytes = field(default_factory=lambda: os.urandom(RANDOM_SIZE))
    session_id: bytes = b""
    cipher_suites: Tuple[int, ...] = DEFAULT_CIPHER_SUITES
    extensions: Tuple[Extension, ...] = ()

    def to_bytes(self) -> bytes:
        """The message with its handshake header: TLS 1.2, the random, the
        session id (u8-framed), the cipher suites (u16-framed), null
        compression, the extensions block.  A field its layout cannot hold
        is a :class:`TLSError`."""
        suites = self.cipher_suites
        try:
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
        except (struct.error, ValueError) as exc:
            raise no_wire_form(self, exc) from None
        return _pack_handshake(HandshakeType.CLIENT_HELLO, body)

    @classmethod
    def from_body(cls, body: bytes) -> "ClientHello":
        """Parse a ClientHello body (no header), checked by :func:`read_hello`."""
        size = len(body)
        session_id, extensions_at = read_hello(HandshakeType.CLIENT_HELLO, body, 0, size)
        # The cipher suites lie between their length field and the compression methods.
        suites_at = _HELLO_HEAD.size + len(session_id) + 2
        count = (extensions_at - 2 - suites_at) // 2
        return cls(
            body[_RANDOM_AT : _RANDOM_AT + RANDOM_SIZE],
            session_id,
            struct.unpack_from(f">{count}H", body, suites_at),
            tuple(decode_extensions(body, extensions_at, size)),
        )


@dataclass(frozen=True)
class ServerHello:
    """The plaintext ServerHello."""

    random: bytes = field(default_factory=lambda: os.urandom(RANDOM_SIZE))
    session_id: bytes = b""
    cipher_suite: int = DEFAULT_CIPHER_SUITES[0]
    extensions: Tuple[Extension, ...] = ()

    def to_bytes(self) -> bytes:
        """The message with its handshake header: TLS 1.2, the random, the
        session id (u8-framed), the cipher suite, null compression, the
        extensions block.  A field its layout cannot hold is a
        :class:`TLSError`."""
        try:
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
        except (struct.error, ValueError) as exc:
            raise no_wire_form(self, exc) from None
        return _pack_handshake(HandshakeType.SERVER_HELLO, body)

    @classmethod
    def from_body(cls, body: bytes) -> "ServerHello":
        """Parse a ServerHello body (no header), checked by :func:`read_hello`."""
        size = len(body)
        session_id, extensions_at = read_hello(HandshakeType.SERVER_HELLO, body, 0, size)
        (cipher_suite,) = _U16.unpack_from(body, extensions_at - _SERVER_CHOICE.size)
        return cls(
            body[_RANDOM_AT : _RANDOM_AT + RANDOM_SIZE],
            session_id,
            cipher_suite,
            tuple(decode_extensions(body, extensions_at, size)),
        )


@dataclass(frozen=True)
class CertificateMessage:
    """The Certificate handshake message carrying the server's chain."""

    chain: CertificateChain

    def to_bytes(self) -> bytes:
        """The message with its handshake header; the body is the chain's encoding."""
        return _pack_handshake(HandshakeType.CERTIFICATE, self.chain.to_bytes())

    @classmethod
    def from_body(cls, body: bytes) -> "CertificateMessage":
        """Parse a Certificate body; a malformed chain is a :class:`TLSError`."""
        try:
            return cls(chain=CertificateChain.from_bytes(body))
        except CertificateError as exc:
            raise TLSError(f"malformed Certificate message: {exc}") from exc


@dataclass(frozen=True)
class ServerHelloDone:
    """The ServerHelloDone message, whose body is empty."""

    def to_bytes(self) -> bytes:
        """The bare handshake header."""
        return _pack_handshake(HandshakeType.SERVER_HELLO_DONE, b"")


@dataclass(frozen=True)
class Finished:
    """The Finished message; verify data is opaque in this model."""

    verify_data: bytes = field(default_factory=lambda: os.urandom(12))

    def to_bytes(self) -> bytes:
        """The message with its handshake header; the body is the verify data."""
        return _pack_handshake(HandshakeType.FINISHED, self.verify_data)

    @classmethod
    def from_body(cls, body: bytes) -> "Finished":
        """A Finished whose verify data is the whole body."""
        return cls(verify_data=body)


@dataclass(frozen=True)
class NewSessionTicket:
    """RFC 5077 session ticket issued by the server for stateless resumption."""

    lifetime_seconds: int
    ticket: bytes

    def to_bytes(self) -> bytes:
        """The message with its handshake header: lifetime (u32), then the
        ticket (u16-framed).  A lifetime or ticket its field cannot hold is
        a :class:`TLSError`."""
        try:
            head = _TICKET_HEAD.pack(self.lifetime_seconds, len(self.ticket))
        except struct.error as exc:
            raise no_wire_form(self, exc) from None
        return _pack_handshake(HandshakeType.NEW_SESSION_TICKET, head + self.ticket)

    @classmethod
    def from_body(cls, body: bytes) -> "NewSessionTicket":
        """Parse a NewSessionTicket body, checked by :func:`read_ticket`."""
        ticket_at = read_ticket(body, 0, len(body))
        lifetime, _ = _TICKET_HEAD.unpack_from(body)
        return cls(lifetime_seconds=lifetime, ticket=body[ticket_at:])


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
        """:meth:`CertificateMessage.from_body`, answered by ``chain_memo``."""
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
    unpack_header = HANDSHAKE_HEADER.unpack_from
    offset, size = 0, len(payload)
    while offset < size:
        body_at = offset + 4
        if body_at > size:
            raise TLSError("truncated handshake header")
        (header,) = unpack_header(payload, offset)
        offset = body_at + (header & MAX_HANDSHAKE_BODY)
        if offset > size:
            raise TLSError("truncated handshake body")
        handshake_type = _HANDSHAKE_TYPES.get(header >> 24)
        if handshake_type is None:
            raise TLSError(f"unknown handshake type {header >> 24}")
        parse = parsers.get(handshake_type)
        body = payload[body_at:offset]
        messages.append((handshake_type, body if parse is None else parse(body)))
    return messages
