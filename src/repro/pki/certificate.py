"""Certificates and their wire encoding.

RITM's RA only needs two facts from the server's certificate — which CA
issued it and what its serial number is — plus enough structure for the
client to run "standard validation" (issuer signature, validity window,
chain building).  This module provides an X.509-like certificate model with
exactly that structure, signed with the library's Ed25519 keys.

The encoding is a deliberately simple length-prefixed binary format; its only
purposes are (a) giving DPI something realistic to parse and (b) making
certificate sizes realistic for the communication-overhead analysis.

The encoding is *canonical*: every byte string ``from_bytes`` accepts
re-encodes to itself (strict UTF-8 names, width-preserving serials, a CA flag
of 0 or 1, no trailing bytes).  Certificates and chains are frozen, so each
keeps its wire form once it is known — built on first use, or seeded by
``from_bytes`` with the exact bytes it accepted — in the instance ``__dict__``
and not in a dataclass field: ``==``, ``hash``, ``repr`` and
``dataclasses.replace`` never see it, and a ``replace``d copy re-encodes from
its own fields.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from repro.crypto.signing import PUBLIC_KEY_SIZE, PrivateKey, PublicKey
from repro.errors import CertificateError
from repro.pki.serial import SerialNumber


def _pack_bytes(data: bytes) -> bytes:
    return struct.pack(">H", len(data)) + data


def _unpack_bytes(buffer: bytes, offset: int) -> tuple[bytes, int]:
    if offset + 2 > len(buffer):
        raise CertificateError("truncated certificate field")
    (length,) = struct.unpack_from(">H", buffer, offset)
    offset += 2
    if offset + length > len(buffer):
        raise CertificateError("truncated certificate field body")
    return buffer[offset : offset + length], offset + length


def _name(raw: bytes) -> str:
    """A certificate name field; strict UTF-8 or a :class:`CertificateError`."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise CertificateError("a certificate name is not UTF-8") from None


@dataclass(frozen=True)
class Certificate:
    """A server or CA certificate.

    Attributes
    ----------
    subject:
        Domain name (servers) or CA name (intermediates/roots).
    issuer:
        Name of the CA that signed this certificate.
    serial:
        The issuer-assigned serial number.
    public_key:
        Subject's Ed25519 public key.
    not_before / not_after:
        Validity window in Unix seconds.
    is_ca:
        Whether the subject may itself issue certificates.
    signature:
        Issuer's signature over the to-be-signed encoding.
    """

    subject: str
    issuer: str
    serial: SerialNumber
    public_key: PublicKey
    not_before: int
    not_after: int
    is_ca: bool = False
    signature: bytes = b""

    # -- encoding ----------------------------------------------------------

    @cached_property
    def _wire(self) -> bytes:
        return b"".join(
            [
                _pack_bytes(self.subject.encode("utf-8")),
                _pack_bytes(self.issuer.encode("utf-8")),
                _pack_bytes(self.serial.to_bytes()),
                _pack_bytes(self.public_key.key_bytes),
                struct.pack(">QQB", self.not_before, self.not_after, int(self.is_ca)),
                _pack_bytes(self.signature),
            ]
        )

    def tbs_bytes(self) -> bytes:
        """The to-be-signed portion: the encoding minus its signature field."""
        return self._wire[: -2 - len(self.signature)]

    def to_bytes(self) -> bytes:
        """Full wire encoding, including the issuer's signature."""
        return self._wire

    @classmethod
    def from_bytes(cls, data: bytes) -> "Certificate":
        """Decode the canonical wire form; anything else is a :class:`CertificateError`."""
        offset = 0
        subject, offset = _unpack_bytes(data, offset)
        issuer, offset = _unpack_bytes(data, offset)
        serial_bytes, offset = _unpack_bytes(data, offset)
        key_bytes, offset = _unpack_bytes(data, offset)
        if offset + 17 > len(data):
            raise CertificateError("truncated certificate validity block")
        not_before, not_after, is_ca = struct.unpack_from(">QQB", data, offset)
        if is_ca > 1:
            # The signature covers the re-encoded flag, so any other byte
            # would be a second accepted encoding of the same certificate.
            raise CertificateError("non-canonical CA flag")
        offset += 17
        signature, offset = _unpack_bytes(data, offset)
        if offset != len(data):
            raise CertificateError("trailing bytes after certificate")
        if len(key_bytes) != PUBLIC_KEY_SIZE:
            raise CertificateError(f"a certificate key of {len(key_bytes)} bytes")
        certificate = cls(
            subject=_name(subject),
            issuer=_name(issuer),
            serial=SerialNumber.from_bytes(serial_bytes),  # a SerialNumberError is one
            public_key=PublicKey(key_bytes),
            not_before=not_before,
            not_after=not_after,
            is_ca=bool(is_ca),
            signature=signature,
        )
        certificate.__dict__["_wire"] = bytes(data)
        return certificate

    # -- signing / verification --------------------------------------------

    def with_signature(self, issuer_key: PrivateKey) -> "Certificate":
        """Return a copy of this certificate signed by ``issuer_key``."""
        return Certificate(
            subject=self.subject,
            issuer=self.issuer,
            serial=self.serial,
            public_key=self.public_key,
            not_before=self.not_before,
            not_after=self.not_after,
            is_ca=self.is_ca,
            signature=issuer_key.sign(self.tbs_bytes()),
        )

    def verify_signature(self, issuer_public_key: PublicKey) -> bool:
        """Check the issuer signature."""
        return issuer_public_key.verify(self.tbs_bytes(), self.signature)

    def is_valid_at(self, timestamp: int) -> bool:
        """Check the validity window only (no signature, no revocation)."""
        return self.not_before <= timestamp <= self.not_after

    def __str__(self) -> str:
        kind = "CA" if self.is_ca else "EE"
        return f"<{kind} cert {self.subject!r} issued by {self.issuer!r} serial {self.serial}>"


@dataclass(frozen=True)
class CertificateChain:
    """A server certificate followed by its issuers' certificates, leaf first: the corpus
    sends the root's self-signed one last, and a chain that omits it validates too."""

    certificates: tuple[Certificate, ...]

    def __post_init__(self) -> None:
        if not self.certificates:
            raise CertificateError("a certificate chain cannot be empty")

    @property
    def leaf(self) -> Certificate:
        """The server's own certificate: the first of the chain."""
        return self.certificates[0]

    def __len__(self) -> int:
        return len(self.certificates)

    def __iter__(self):
        return iter(self.certificates)

    @cached_property
    def _wire(self) -> bytes:
        parts = [struct.pack(">B", len(self.certificates))]
        for certificate in self.certificates:
            parts.append(_pack_bytes(certificate.to_bytes()))
        return b"".join(parts)

    def to_bytes(self) -> bytes:
        """Wire encoding of the whole chain."""
        return self._wire

    @classmethod
    def from_bytes(cls, data: bytes) -> "CertificateChain":
        """Decode a count byte and that many length-prefixed certificates, nothing after."""
        if not data:
            raise CertificateError("empty chain encoding")
        count = data[0]
        offset = 1
        certificates = []
        for _ in range(count):
            cert_bytes, offset = _unpack_bytes(data, offset)
            certificates.append(Certificate.from_bytes(cert_bytes))
        if offset != len(data):
            raise CertificateError("trailing bytes after certificate chain")
        chain = cls(certificates=tuple(certificates))
        chain.__dict__["_wire"] = bytes(data)
        return chain

    def pairs(self) -> list[tuple[Certificate, Optional[Certificate]]]:
        """(certificate, issuer-certificate-or-None) pairs, leaf first."""
        result = []
        for i, certificate in enumerate(self.certificates):
            issuer = self.certificates[i + 1] if i + 1 < len(self.certificates) else None
            result.append((certificate, issuer))
        return result
