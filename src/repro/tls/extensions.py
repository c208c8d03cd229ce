"""TLS hello extensions, including RITM's client and server extensions.

The RITM client signals support by including a dedicated extension in its
ClientHello (§III step 1); in the close-to-server deployment the TLS
terminator confirms support in the ServerHello (§IV), which — being covered
by the TLS handshake transcript — defeats downgrade attacks.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.errors import TLSError
from repro.tls.records import no_wire_form

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
        try:
            return _EXTENSION_HEADER.pack(self.extension_type, len(self.data)) + self.data
        except struct.error as exc:
            raise no_wire_form(self, exc) from None


def encode_extensions(extensions: Iterable[Extension]) -> bytes:
    body = b"".join([extension.to_bytes() for extension in extensions])
    try:
        return _BLOCK_LENGTH.pack(len(body)) + body
    except struct.error as exc:
        raise no_wire_form(extensions, exc) from None


def read_extensions(
    data: bytes, at: int, stop: int, wanted: int = -1, into: Optional[List[Extension]] = None
) -> Optional[bytes]:
    """Check the extensions block at ``data[at:]``, which must end its hello
    at ``stop``, by offset.

    Returns the data of the block's extension of type ``wanted`` (the last,
    if it repeats; ``None`` when absent).  ``into``, when given, receives
    every extension as an :class:`Extension`; without it nothing is built,
    which is how the RA's DPI reads a hello (:mod:`repro.ritm.dpi`).
    """
    block_at = at + 2
    if block_at > stop:
        raise TLSError("truncated extensions block")
    end = block_at + _BLOCK_LENGTH.unpack_from(data, at)[0]
    if end > stop:
        raise TLSError("extensions block longer than the message")
    if end != stop:
        raise TLSError("trailing bytes after the hello extensions")
    found = None
    at = block_at
    while at < end:
        body_at = at + 4
        if body_at > end:
            raise TLSError("truncated extension header")
        extension_type, length = _EXTENSION_HEADER.unpack_from(data, at)
        at = body_at + length
        if at > end:
            raise TLSError("truncated extension body")
        if extension_type == wanted:
            found = data[body_at:at]
        if into is not None:
            into.append(Extension(extension_type, data[body_at:at]))
    return found


def decode_extensions(data: bytes, at: int, stop: int) -> List[Extension]:
    """The extensions of the block at ``data[at:]``, which must end at ``stop``."""
    extensions: List[Extension] = []
    read_extensions(data, at, stop, into=extensions)
    return extensions


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
