"""Signed dictionary roots (Eq. 1 of the paper).

A signed root is the CA's commitment to one exact version of its revocation
dictionary: the Merkle root, the number of revocations ``n``, the hash-chain
anchor ``H^m(v)`` used for subsequent freshness statements, and the signing
timestamp, all under the CA's Ed25519 signature.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.crypto.signing import PrivateKey, PublicKey
from repro.errors import SignatureError


@dataclass(frozen=True)
class SignedRoot:
    """``{root, n, H^m(v), time()}_{K^-_CA}`` plus the chain length ``m``.

    The chain length is not strictly required for verification but lets
    replicas know how many freshness periods remain before the CA must sign a
    fresh root; it is included in the signed payload so it cannot be tampered
    with.
    """

    ca_name: str
    root: bytes
    size: int
    anchor: bytes
    timestamp: int
    chain_length: int
    signature: bytes = b""

    def payload(self) -> bytes:
        """The byte string covered by the CA's signature."""
        name = self.ca_name.encode("utf-8")
        return b"".join(
            [
                struct.pack(">H", len(name)),
                name,
                struct.pack(">H", len(self.root)),
                self.root,
                struct.pack(">QQQ", self.size, self.timestamp, self.chain_length),
                struct.pack(">H", len(self.anchor)),
                self.anchor,
            ]
        )

    def sign(self, private_key: PrivateKey) -> "SignedRoot":
        """Return a copy carrying a signature by ``private_key``."""
        return SignedRoot(
            ca_name=self.ca_name,
            root=self.root,
            size=self.size,
            anchor=self.anchor,
            timestamp=self.timestamp,
            chain_length=self.chain_length,
            signature=private_key.sign(self.payload()),
        )

    def verify(self, public_key: PublicKey) -> bool:
        """Check the CA signature."""
        return public_key.verify(self.payload(), self.signature)

    def verify_or_raise(self, public_key: PublicKey) -> None:
        """:meth:`verify`, raising :class:`SignatureError` when it fails."""
        if not self.verify(public_key):
            raise SignatureError(f"signed root from {self.ca_name!r} failed verification")

    def conflicts_with(self, other: "SignedRoot") -> bool:
        """Two roots from the same CA with equal size but different roots.

        This is precisely the evidence of CA equivocation described in §V
        ("it is enough to find two different signed roots with the same
        dictionary size").
        """
        return (
            self.ca_name == other.ca_name
            and self.size == other.size
            and self.root != other.root
        )
