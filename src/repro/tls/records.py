"""TLS record layer.

RITM's RA performs deep packet inspection at record granularity: it must
recognise handshake records, read the plaintext negotiation messages inside
them, and append revocation-status payloads to records travelling from the
server to the client.  This module models TLS records with the standard
5-byte header (content type, protocol version, length) and provides helpers
to parse a byte stream into records and back.

The paper's §VIII discusses how a status can be attached; this reproduction
follows option 1: a dedicated content type (``RITM_STATUS``) whose records
are consumed by RITM-aware clients and ignored (stripped) by the RA for
unsupported ones.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, List, Tuple

from repro.errors import TLSError

#: TLS 1.2 on the wire.
PROTOCOL_VERSION = (3, 3)
#: Content type, protocol version (major, minor), payload length.
RECORD_HEADER = struct.Struct(">BBBH")
RECORD_HEADER_SIZE = RECORD_HEADER.size
#: Maximum record payload (2^14 bytes, RFC 5246 §6.2.1).
MAX_RECORD_PAYLOAD = 2**14


class ContentType(IntEnum):
    """TLS record content types, plus RITM's dedicated status type (§VIII)."""

    CHANGE_CIPHER_SPEC = 20
    ALERT = 21
    HANDSHAKE = 22
    APPLICATION_DATA = 23
    #: Non-standard content type used to piggyback RITM revocation statuses.
    RITM_STATUS = 100


_CONTENT_TYPES = {int(member): member for member in ContentType}


@dataclass(frozen=True)
class TLSRecord:
    """One TLS record: a content type and an opaque payload."""

    content_type: ContentType
    payload: bytes
    version: Tuple[int, int] = PROTOCOL_VERSION

    def __post_init__(self) -> None:
        if len(self.payload) > MAX_RECORD_PAYLOAD:
            raise oversized_record(len(self.payload))

    def to_bytes(self) -> bytes:
        payload = self.payload
        try:
            return RECORD_HEADER.pack(self.content_type, *self.version, len(payload)) + payload
        except struct.error as exc:
            raise no_wire_form(self, exc) from None

    def is_ritm_status(self) -> bool:
        return self.content_type == ContentType.RITM_STATUS


def no_wire_form(value: object, exc: Exception) -> TLSError:
    """The error for a TLS ``value`` whose layout cannot hold one of its
    fields: ``exc`` is how ``struct`` or ``bytes()`` refused it (an integer
    outside its field, a length over its prefix)."""
    return TLSError(f"{type(value).__name__} has no wire form: {exc}")


def oversized_record(length: int) -> TLSError:
    """The error for a record payload of ``length`` bytes, over the maximum."""
    return TLSError(
        f"record payload of {length} bytes exceeds the {MAX_RECORD_PAYLOAD}-byte TLS maximum"
    )


def encode_record(content_type: ContentType, payload: bytes) -> bytes:
    """``TLSRecord(content_type, payload).to_bytes()``, building no record."""
    length = len(payload)
    if length > MAX_RECORD_PAYLOAD:
        raise oversized_record(length)
    return RECORD_HEADER.pack(content_type, *PROTOCOL_VERSION, length) + payload


def parse_records(data: bytes) -> List[TLSRecord]:
    """Parse a byte stream into consecutive records."""
    records: List[TLSRecord] = []
    unpack_header = RECORD_HEADER.unpack_from
    offset, size = 0, len(data)
    while offset < size:
        payload_at = offset + RECORD_HEADER_SIZE
        if payload_at > size:
            raise TLSError("truncated TLS record header")
        content_type, major, minor, length = unpack_header(data, offset)
        offset = payload_at + length
        if offset > size:
            raise TLSError("truncated TLS record payload")
        ctype = _CONTENT_TYPES.get(content_type)
        if ctype is None:
            raise TLSError(f"unknown TLS content type {content_type}")
        records.append(TLSRecord(ctype, data[payload_at:offset], (major, minor)))
    return records


def serialize_records(records: Iterable[TLSRecord]) -> bytes:
    """Concatenate records back into a stream."""
    return b"".join([record.to_bytes() for record in records])


def looks_like_tls(data: bytes) -> bool:
    """Cheap DPI pre-filter: does this payload start like a TLS record?

    Used by the RA's fast path to discard non-TLS traffic without a full
    parse (the paper's "TLS detection" row of Table III).
    """
    if len(data) < RECORD_HEADER_SIZE:
        return False
    content_type, major, minor, length = RECORD_HEADER.unpack_from(data)
    if content_type not in _CONTENT_TYPES:
        return False
    if major != 3 or minor > 4:
        return False
    return length <= MAX_RECORD_PAYLOAD
