"""Key-pair abstraction over the raw Ed25519 functions.

RITM's trust model has exactly one class of signer — certification
authorities — but several verifiers (RAs, clients, edge servers).  This module
wraps :mod:`repro.crypto.ed25519` in small value objects so that the rest of
the code never handles raw byte seeds directly, and so an alternative
signature scheme could be swapped in for experiments.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.crypto import ed25519
from repro.errors import SignatureError

#: Signature size in bytes (used by the overhead model, paper §VI: 64 bytes).
SIGNATURE_SIZE = ed25519.SIGNATURE_SIZE
PUBLIC_KEY_SIZE = ed25519.KEY_SIZE


def _verify(key_bytes: bytes, message: bytes, signature: bytes) -> bool:
    """``ed25519.verify``; a wrong-length signature (wire decoders admit any) is invalid, not an error."""
    return len(signature) == SIGNATURE_SIZE and ed25519.verify(key_bytes, message, signature)


@dataclass(frozen=True)
class PublicKey:
    """An Ed25519 verification key."""

    key_bytes: bytes

    def __post_init__(self) -> None:
        if len(self.key_bytes) != PUBLIC_KEY_SIZE:
            raise SignatureError(
                f"public key must be {PUBLIC_KEY_SIZE} bytes, got {len(self.key_bytes)}"
            )

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Return ``True`` iff ``signature`` signs ``message`` under this key."""
        return _verify(self.key_bytes, message, signature)

    def verify_or_raise(self, message: bytes, signature: bytes) -> None:
        """Like :meth:`verify` but raises :class:`SignatureError` on failure."""
        if not self.verify(message, signature):
            raise SignatureError("signature verification failed")

    def fingerprint(self) -> str:
        """Short hex identifier, convenient for logs and dictionaries."""
        return self.key_bytes.hex()[:16]


@dataclass(frozen=True)
class PrivateKey:
    """An Ed25519 signing key (seed form)."""

    seed: bytes

    def __post_init__(self) -> None:
        if len(self.seed) != PUBLIC_KEY_SIZE:
            raise SignatureError(f"seed must be {PUBLIC_KEY_SIZE} bytes")

    @classmethod
    def generate(cls, rng_seed: bytes | None = None) -> "PrivateKey":
        """Generate a fresh key, or derive one deterministically from ``rng_seed``.

        Deterministic derivation is used by tests and by the workload
        generators so that experiments are reproducible run to run.
        """
        if rng_seed is None:
            return cls(os.urandom(PUBLIC_KEY_SIZE))
        import hashlib

        return cls(hashlib.sha256(b"repro-key:" + rng_seed).digest())

    def public_key(self) -> PublicKey:
        return PublicKey(ed25519.publickey(self.seed))

    def sign(self, message: bytes) -> bytes:
        """Sign ``message``, returning the 64-byte signature."""
        return ed25519.sign(self.seed, message)


def verify_batch(items: Sequence[Tuple[PublicKey, bytes, bytes]]) -> List[bool]:
    """Per-item validity of many ``(public key, message, signature)`` triples.

    ``[key.verify(msg, sig) for key, msg, sig in items]``.  Signatures are
    verified one by one: with per-key comb tables a random-linear-combination
    batch equation is slower than the serial walk at every width
    (docs/PERFORMANCE.md).
    """
    return [
        _verify(public_key.key_bytes, message, signature)
        for public_key, message, signature in items
    ]


@dataclass(frozen=True)
class KeyPair:
    """Convenience bundle of a private key and its public counterpart."""

    private: PrivateKey
    public: PublicKey

    @classmethod
    def generate(cls, rng_seed: bytes | None = None) -> "KeyPair":
        private = PrivateKey.generate(rng_seed)
        return cls(private=private, public=private.public_key())

    def sign(self, message: bytes) -> bytes:
        return self.private.sign(message)

    def verify(self, message: bytes, signature: bytes) -> bool:
        return self.public.verify(message, signature)


@dataclass(frozen=True)
class KeyRecord:
    """One CA verification key together with its validity window.

    A key is *acceptable* at time ``t`` iff it has been activated
    (``activated_at <= t``) and either is still the active key
    (``retired_at is None``) or ``t`` falls inside its overlap window
    (``t <= retired_at + overlap_seconds``).  The overlap window is the
    grace period during which roots signed by a just-retired key still
    verify, so RAs that have not yet pulled the rotation announcement do
    not hard-fail mid-epoch.
    """

    public_key: PublicKey
    key_epoch: int
    activated_at: int
    retired_at: Optional[int] = None
    overlap_seconds: int = 0

    def acceptable_at(self, now: int) -> bool:
        """Is this key valid for verification at time ``now``?"""
        if now < self.activated_at:
            return False
        if self.retired_at is None:
            return True
        return now <= self.retired_at + self.overlap_seconds


class CAKeyring:
    """Time-scoped set of one CA's verification keys across rotations.

    The keyring replaces a bare :class:`PublicKey` wherever a CA signature
    is checked: it quacks like one (``verify``/``verify_or_raise``/
    ``fingerprint``/``key_bytes``) but additionally exposes
    :meth:`acceptable_keys`, which verifiers (including the memoizing
    :class:`~repro.perf.root_cache.VerifiedRootCache`) use to restrict
    acceptance to keys whose activation/overlap window covers the
    keyring's clock.  The clock only moves forward (:meth:`advance`), so a
    retired key's acceptance ends exactly once and never comes back.
    """

    def __init__(self, now: int = 0) -> None:
        self._records: List[KeyRecord] = []
        self._now = now

    @classmethod
    def single(cls, public_key: PublicKey, activated_at: int = 0) -> "CAKeyring":
        """A keyring holding one immortal key — the no-rotation baseline."""
        keyring = cls(now=activated_at)
        keyring.add_key(public_key, activated_at=activated_at)
        return keyring

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> Tuple[KeyRecord, ...]:
        """All key records, oldest first (for checkpointing and audit)."""
        return tuple(self._records)

    @property
    def clock(self) -> int:
        """The keyring's monotonic notion of the current time."""
        return self._now

    @property
    def active(self) -> PublicKey:
        """The newest (currently signing) key."""
        if not self._records:
            raise SignatureError("keyring holds no keys")
        return self._records[-1].public_key

    @property
    def genesis(self) -> PublicKey:
        """The first key ever enrolled — the keyring's trust anchor."""
        if not self._records:
            raise SignatureError("keyring holds no keys")
        return self._records[0].public_key

    @property
    def key_epoch(self) -> int:
        """Epoch number of the active key (0 for the genesis key)."""
        return len(self._records) - 1

    @property
    def key_bytes(self) -> bytes:
        """Active key bytes — lets the keyring stand in for a PublicKey."""
        return self.active.key_bytes

    def fingerprint(self) -> str:
        """Short hex identifier of the active key."""
        return self.active.fingerprint()

    def advance(self, now: int) -> None:
        """Move the keyring clock forward (it never moves back)."""
        if now > self._now:
            self._now = now

    def add_key(
        self,
        public_key: PublicKey,
        activated_at: int,
        overlap_seconds: int = 0,
    ) -> KeyRecord:
        """Enroll a new active key, retiring the previous one at ``activated_at``.

        ``overlap_seconds`` is the grace window granted to the key being
        retired.  Re-enrolling the current active key is a no-op (idempotent
        announcement replay).
        """
        if self._records:
            current = self._records[-1]
            if current.public_key.key_bytes == public_key.key_bytes:
                return current
            if activated_at < current.activated_at:
                raise SignatureError(
                    "key rotation announcement activates a key before the current one"
                )
            self._records[-1] = replace(
                current, retired_at=activated_at, overlap_seconds=overlap_seconds
            )
        record = KeyRecord(
            public_key=public_key,
            key_epoch=len(self._records),
            activated_at=activated_at,
        )
        self._records.append(record)
        self.advance(activated_at)
        return record

    def acceptable_keys(self, now: Optional[int] = None) -> List[PublicKey]:
        """Keys valid for verification at ``now`` (default: the clock), newest first."""
        moment = self._now if now is None else now
        return [
            record.public_key
            for record in reversed(self._records)
            if record.acceptable_at(moment)
        ]

    def verify(self, message: bytes, signature: bytes, now: Optional[int] = None) -> bool:
        """True iff any currently-acceptable key verifies the signature."""
        return any(
            key.verify(message, signature) for key in self.acceptable_keys(now)
        )

    def verify_or_raise(self, message: bytes, signature: bytes) -> None:
        """Like :meth:`verify` but raises :class:`SignatureError` on failure."""
        if not self.verify(message, signature):
            raise SignatureError("signature verifies under no acceptable key")


def acceptable_verifiers(verifier, now: Optional[int] = None) -> List[PublicKey]:
    """Normalize a :class:`PublicKey` or :class:`CAKeyring` to a key list.

    Verification helpers accept either a bare key (the immortal-key
    baseline) or a keyring; this collapses both cases into "the keys
    acceptable right now, newest first" so callers need no isinstance
    checks.
    """
    if hasattr(verifier, "acceptable_keys"):
        return verifier.acceptable_keys(now)
    return [verifier]
