"""TLS hello extensions, including RITM's client and server extensions.

The RITM client signals support by including a dedicated extension in its
ClientHello (§III step 1); in the close-to-server deployment the TLS
terminator confirms support in the ServerHello (§IV), which — being covered
by the TLS handshake transcript — defeats downgrade attacks.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.errors import TLSError

#: IANA-style extension type numbers.  SNI and the session-ticket extension
#: use their real values; RITM's are from the private-use range.
SERVER_NAME_TYPE = 0
SESSION_TICKET_TYPE = 35
RITM_SUPPORT_TYPE = 0xFF01
RITM_SERVER_CONFIRM_TYPE = 0xFF02

_BLOCK_LENGTH = struct.Struct(">H")
_EXTENSION_HEADER = struct.Struct(">HH")  # type, data length


@dataclass(frozen=True)
class Extension:
    """A TLS extension: 2-byte type, 2-byte length, opaque data."""

    extension_type: int
    data: bytes = b""

    def to_bytes(self) -> bytes:
        return _EXTENSION_HEADER.pack(self.extension_type, len(self.data)) + self.data

    @property
    def wire_size(self) -> int:
        return 4 + len(self.data)


def encode_extensions(extensions: Iterable[Extension]) -> bytes:
    body = b"".join([extension.to_bytes() for extension in extensions])
    return _BLOCK_LENGTH.pack(len(body)) + body


def decode_extensions(data: bytes, offset: int) -> Tuple[List[Extension], int]:
    size = len(data)
    if offset + 2 > size:
        raise TLSError("truncated extensions block")
    end = offset + 2 + _BLOCK_LENGTH.unpack_from(data, offset)[0]
    if end > size:
        raise TLSError("extensions block longer than the message")
    extensions: List[Extension] = []
    unpack_header = _EXTENSION_HEADER.unpack_from
    offset += 2
    while offset < end:
        body_at = offset + 4
        if body_at > end:
            raise TLSError("truncated extension header")
        ext_type, length = unpack_header(data, offset)
        offset = body_at + length
        if offset > end:
            raise TLSError("truncated extension body")
        extensions.append(Extension(ext_type, data[body_at:offset]))
    return extensions, offset


def find_extension(extensions: Iterable[Extension], extension_type: int) -> Optional[Extension]:
    for extension in extensions:
        if extension.extension_type == extension_type:
            return extension
    return None


# -- RITM-specific helpers ---------------------------------------------------


def ritm_support_extension(version: int = 1) -> Extension:
    """The ClientHello extension announcing "I'm deploying RITM" (Fig. 3)."""
    return Extension(RITM_SUPPORT_TYPE, struct.pack(">B", version))


def ritm_server_confirm_extension() -> Extension:
    """The ServerHello extension a TLS terminator adds in the close-to-server model."""
    return Extension(RITM_SERVER_CONFIRM_TYPE, b"\x01")


def server_name_extension(hostname: str) -> Extension:
    return Extension(SERVER_NAME_TYPE, hostname.encode("utf-8"))


def session_ticket_extension(ticket: bytes = b"") -> Extension:
    return Extension(SESSION_TICKET_TYPE, ticket)


def has_ritm_support(extensions: Iterable[Extension]) -> bool:
    return find_extension(extensions, RITM_SUPPORT_TYPE) is not None


def has_ritm_server_confirmation(extensions: Iterable[Extension]) -> bool:
    return find_extension(extensions, RITM_SERVER_CONFIRM_TYPE) is not None
