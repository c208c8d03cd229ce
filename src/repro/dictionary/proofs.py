"""Revocation status messages (Eq. 3 of the paper) and their client-side checks.

A revocation status is what an RA attaches to TLS traffic: a Merkle
presence/absence proof for the queried serial, the CA's signed root, and the
latest freshness statement.  The client accepts a certificate only if the
status carries a *valid absence proof*, the root signature verifies, and the
freshness statement is no older than 2Δ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.crypto.merkle import AbsenceProof, PresenceProof
from repro.crypto.signing import PublicKey
from repro.dictionary.freshness import FreshnessStatement, statement_is_fresh
from repro.dictionary.signed_root import SignedRoot
from repro.errors import ProofError, RevokedCertificateError, SignatureError, StaleStatusError
from repro.pki.serial import SerialNumber

MembershipProof = Union[PresenceProof, AbsenceProof]


@dataclass(frozen=True)
class RevocationStatus:
    """``proof, {root, n, H^m(v), t}_{K^-_CA}, H^(m-p)(v)`` for one serial."""

    ca_name: str
    serial: SerialNumber
    proof: MembershipProof
    signed_root: SignedRoot
    freshness: FreshnessStatement

    @property
    def is_revoked(self) -> bool:
        """True when the proof shows the serial *is* in the revocation dictionary."""
        return isinstance(self.proof, PresenceProof)

    # -- verification --------------------------------------------------------

    def verify(
        self,
        ca_public_key: PublicKey,
        now: int,
        delta: int,
        tolerance_periods: int = 1,
        root_cache=None,
    ) -> None:
        """Run the full client-side check of §III step 5 (b) and (c).

        ``root_cache`` may name a
        :class:`~repro.perf.root_cache.VerifiedRootCache`; the signed root's
        Ed25519 check is then memoized per epoch (a tampered root has a
        different cache key and always takes the full verification path).
        Every other check — proof shape, root binding, freshness against
        ``now`` — runs in full on every call.

        Raises
        ------
        SignatureError
            if the signed root does not verify under ``ca_public_key``.
        ProofError
            if the Merkle proof does not verify against the signed root, or
            if the proof is for a different serial than claimed.
        StaleStatusError
            if the freshness statement is older than the acceptance window.
        RevokedCertificateError
            if everything verifies but the proof shows the serial revoked.
        """
        if root_cache is not None:
            root_cache.verify_or_raise(self.signed_root, ca_public_key)
        else:
            self.signed_root.verify_or_raise(ca_public_key)

        expected_key = self.serial.to_bytes()
        if self.proof.key != expected_key:
            raise ProofError(
                f"revocation status proof covers serial {self.proof.key.hex()} "
                f"but claims to be about {expected_key.hex()}"
            )
        if not self.proof.verify(self.signed_root.root):
            raise ProofError("membership proof does not verify against the signed root")

        if self.proof.tree_size != self.signed_root.size:
            raise ProofError(
                "proof tree size does not match the signed root's dictionary size"
            )

        if not statement_is_fresh(
            self.signed_root, self.freshness, now, delta, tolerance_periods
        ):
            raise StaleStatusError(
                f"revocation status for serial {self.serial} is stale "
                f"(root signed at {self.signed_root.timestamp}, now {now})"
            )

        if self.is_revoked:
            raise RevokedCertificateError(
                f"certificate with serial {self.serial} was revoked by {self.ca_name!r}"
            )

    def is_acceptable(
        self,
        ca_public_key: PublicKey,
        now: int,
        delta: int,
        tolerance_periods: int = 1,
        root_cache=None,
    ) -> bool:
        """Boolean form of :meth:`verify` (accept = verified *and* not revoked)."""
        try:
            self.verify(ca_public_key, now, delta, tolerance_periods, root_cache)
        except (SignatureError, ProofError, StaleStatusError, RevokedCertificateError):
            return False
        return True
