"""Certification authorities: key material, issuance, and revocation records.

A :class:`CertificationAuthority` owns a signing key, issues certificates
(optionally through intermediates), and records revocations.  It is the
*issuance* half of a CA; the RITM-specific half — maintaining the
authenticated dictionary and pushing revocations to the dissemination
network — lives in :mod:`repro.ritm.ca_service` and wraps an instance of this
class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.crypto.hashing import sha256
from repro.crypto.signing import KeyPair
from repro.errors import CertificateError
from repro.pki.certificate import Certificate, CertificateChain
from repro.pki.serial import DEFAULT_SERIAL_BYTES, SerialNumber, SerialNumberAllocator

#: Default certificate lifetime: 39 months, the CA/B-Forum maximum cited in §VIII.
DEFAULT_VALIDITY_SECONDS = 39 * 30 * 24 * 3600


@dataclass
class RevocationRecord:
    """One revocation as recorded by the issuing CA."""

    serial: SerialNumber
    revoked_at: int
    reason: str = "unspecified"


class CertificationAuthority:
    """A certification authority with its own root key and serial space."""

    def __init__(
        self,
        name: str,
        serial_width: int = DEFAULT_SERIAL_BYTES,
        key_seed: Optional[bytes] = None,
        parent: Optional["CertificationAuthority"] = None,
    ) -> None:
        self.name = name
        self._keys = KeyPair.generate(key_seed if key_seed is not None else name.encode())
        # A stable digest, not ``hash(name)``: Python salts string hashes per
        # process, which made issued serials (and every report derived from
        # them) differ between runs of the same configuration.
        self._allocator = SerialNumberAllocator(
            width=serial_width,
            seed=int.from_bytes(sha256(name.encode("utf-8"))[:2], "big"),
        )
        self._parent = parent
        self._issued: Dict[int, Certificate] = {}
        self._revoked: Dict[int, RevocationRecord] = {}
        self._certificate: Optional[Certificate] = None

    # -- identity ------------------------------------------------------------

    @property
    def public_key(self):
        """The key this CA's signatures verify under."""
        return self._keys.public

    @property
    def parent(self) -> Optional["CertificationAuthority"]:
        """The CA that signed this one's certificate, or ``None`` for a root."""
        return self._parent

    def certificate(self, now: int = 0) -> Certificate:
        """This CA's own certificate (self-signed for roots, parent-signed otherwise)."""
        if self._certificate is None:
            issuer = self._parent.name if self._parent else self.name
            signer = self._parent._keys.private if self._parent else self._keys.private
            allocator = self._parent._allocator if self._parent else self._allocator
            unsigned = Certificate(
                subject=self.name,
                issuer=issuer,
                serial=allocator.allocate(),
                public_key=self._keys.public,
                not_before=now,
                not_after=now + 10 * DEFAULT_VALIDITY_SECONDS,
                is_ca=True,
            )
            self._certificate = unsigned.with_signature(signer)
        return self._certificate

    # -- issuance --------------------------------------------------------------

    def issue(
        self,
        subject: str,
        subject_public_key,
        now: int = 0,
        validity_seconds: int = DEFAULT_VALIDITY_SECONDS,
        is_ca: bool = False,
    ) -> Certificate:
        """Issue and record a certificate for ``subject``."""
        unsigned = Certificate(
            subject=subject,
            issuer=self.name,
            serial=self._allocator.allocate(),
            public_key=subject_public_key,
            not_before=now,
            not_after=now + validity_seconds,
            is_ca=is_ca,
        )
        certificate = unsigned.with_signature(self._keys.private)
        self._issued[certificate.serial.value] = certificate
        return certificate

    def issue_chain_for(
        self, subject: str, subject_public_key, now: int = 0
    ) -> CertificateChain:
        """Issue a leaf and return its chain, leaf first, up to and including the root's own certificate."""
        leaf = self.issue(subject, subject_public_key, now=now)
        chain: List[Certificate] = [leaf]
        authority: Optional[CertificationAuthority] = self
        while authority is not None:
            chain.append(authority.certificate(now=now))
            authority = authority.parent
        return CertificateChain(certificates=tuple(chain))

    def issued_certificates(self) -> List[Certificate]:
        """Every certificate issued so far, in issuance order."""
        return list(self._issued.values())

    def certificate_for(self, serial: SerialNumber) -> Optional[Certificate]:
        """The issued certificate with ``serial``, or ``None`` if unknown."""
        return self._issued.get(serial.value)

    # -- revocation --------------------------------------------------------------

    def revoke(self, serial: SerialNumber, now: int = 0, reason: str = "unspecified") -> RevocationRecord:
        """Record a revocation; revoking an unknown or already-revoked serial fails."""
        if serial.value in self._revoked:
            raise CertificateError(f"serial {serial} already revoked by {self.name}")
        record = RevocationRecord(serial=serial, revoked_at=now, reason=reason)
        self._revoked[serial.value] = record
        return record

    def revoke_many(
        self, serials: Iterable[SerialNumber], now: int = 0, reason: str = "unspecified"
    ) -> List[RevocationRecord]:
        """:meth:`revoke` each of ``serials``, stopping at the first failure."""
        return [self.revoke(serial, now=now, reason=reason) for serial in serials]

    def is_revoked(self, serial: SerialNumber) -> bool:
        """Whether this CA has recorded a revocation of ``serial``."""
        return serial.value in self._revoked

    def revocations(self) -> List[RevocationRecord]:
        """All revocations in issuance order."""
        return sorted(self._revoked.values(), key=lambda record: record.revoked_at)

    def revocation_count(self) -> int:
        """How many revocations have been recorded."""
        return len(self._revoked)


@dataclass
class TrustStore:
    """The set of root CAs a client (or RA) trusts.

    It holds :class:`CertificationAuthority` objects only because the simulation
    builds both sides in one process: validation reads a name, a public key and
    the anchor — the name's self-signed certificate, kept by its exact bytes once
    a chain has presented it and it verified (:meth:`add` would mint it too early).
    """

    roots: Dict[str, "CertificationAuthority"] = field(default_factory=dict)
    _anchors: Dict[str, tuple] = field(default_factory=dict, init=False, repr=False, compare=False)

    def add(self, authority: CertificationAuthority) -> None:
        """Trust ``authority`` under its name; an anchor verified under another key is no longer one."""
        self.roots[authority.name] = authority

    def anchors(self, certificate: Certificate) -> bool:
        """Whether the key trusted under ``certificate``'s issuer name signed it: one
        verification, or a lookup for the very bytes this store verified under that key."""
        name, wire = certificate.issuer, certificate.to_bytes()
        key = self.public_key_for(name)
        if self._anchors.get(name) != (key, wire):
            if key is None or not certificate.verify_signature(key):
                return False
            if certificate.subject == name:
                self._anchors[name] = (key, wire)
        return True

    def public_key_for(self, name: str):
        """The key trusted under ``name``, or ``None`` for an unknown name."""
        if name not in self.roots:
            return None
        return self.roots[name].public_key

    def trusts(self, name: str) -> bool:
        """Whether ``name`` is a trusted root."""
        return name in self.roots

    def names(self) -> List[str]:
        """The trusted names, sorted."""
        return sorted(self.roots)
