"""Memoized Ed25519 verification of CA-signed dictionary roots.

A signed root changes at most once per Δ epoch (a revocation or a hash-chain
exhaustion), but a naive verifier re-runs the ~millisecond pure-Python
Ed25519 check on every TLS handshake and on every status refresh of an
established connection.  :class:`VerifiedRootCache` memoizes *successful*
verifications so each distinct root is checked exactly once per epoch.

Correctness does not rest on invalidation: the cache key is a SHA-256 digest
of the exact ``public key ‖ payload ‖ signature`` bytes, so a tampered root,
a different signer, or a rotated epoch produces a different key and always
takes the full verification path.  Failed verifications are never cached —
forged roots cannot displace useful entries, and a repeat forgery costs the
attacker a full verification each time, not the verifier.  Explicit
invalidation (:meth:`invalidate_ca`) exists purely to keep the bounded cache
from carrying dead epochs after a refresh, resync, or shard retirement; it is
one scan of the live entries, each of which records the CA it belongs to.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import TYPE_CHECKING, List, Sequence

from repro.crypto.signing import PublicKey, acceptable_verifiers, verify_batch
from repro.errors import SignatureError
from repro.perf.cache import CacheStats

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from repro.dictionary.signed_root import SignedRoot

#: Default capacity: a few epochs of roots for every CA a busy RA replicates.
DEFAULT_ROOT_CACHE_SIZE = 256


class VerifiedRootCache:
    """Bounded memo of successfully verified signed roots, per verifier."""

    def __init__(self, maxsize: int = DEFAULT_ROOT_CACHE_SIZE) -> None:
        if maxsize < 0:
            raise ValueError("maxsize must be >= 0 (0 disables the cache)")
        self.maxsize = maxsize
        self.stats = CacheStats()
        #: cache key → CA name (the value only serves per-CA invalidation).
        self._entries: "OrderedDict[bytes, str]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _key(signed_root: "SignedRoot", public_key: PublicKey) -> bytes:
        """Digest of the exact bytes whose verification is being memoized."""
        digest = hashlib.sha256()
        digest.update(public_key.key_bytes)
        digest.update(signed_root.payload())
        digest.update(signed_root.signature)
        return digest.digest()

    # -- verification --------------------------------------------------------

    def verify(self, signed_root: "SignedRoot", public_key) -> bool:
        """Like :meth:`SignedRoot.verify`, but each success is checked once."""
        return self.verify_many([signed_root], public_key)[0]

    def verify_or_raise(self, signed_root: "SignedRoot", public_key) -> None:
        """Raise :class:`SignatureError` unless the root verifies (memoized)."""
        if not self.verify(signed_root, public_key):
            raise SignatureError(
                f"signed root from {signed_root.ca_name!r} failed verification"
            )

    def verify_many(
        self, signed_roots: Sequence["SignedRoot"], public_key
    ) -> List[bool]:
        """Per-root validity; cache misses are verified and memoized.

        This is the path dissemination pulls and resyncs use for all the
        roots queued since the last pull
        (:func:`repro.crypto.signing.verify_batch`).

        ``public_key`` may be a bare :class:`PublicKey` or a
        :class:`~repro.crypto.signing.CAKeyring`.  With a keyring, a verdict
        is memoized under the *specific* key that verified it and a cached
        hit counts only while that key is still acceptable — so a root
        signed by a retired key stops verifying the moment its overlap
        window closes, cached or not.
        """
        verifier_keys = acceptable_verifiers(public_key)
        if not verifier_keys:
            self.stats.misses += len(signed_roots)
            return [False] * len(signed_roots)
        primary = verifier_keys[0]
        results: List[bool] = [False] * len(signed_roots)
        missed: List[int] = []
        for index, signed_root in enumerate(signed_roots):
            hit = False
            for verifier in verifier_keys:
                key = self._key(signed_root, verifier)
                if key in self._entries:
                    self._entries.move_to_end(key)
                    hit = True
                    break
            if hit:
                self.stats.hits += 1
                results[index] = True
            else:
                self.stats.misses += 1
                missed.append(index)
        if missed:
            verdicts = verify_batch(
                [
                    (primary, signed_roots[i].payload(), signed_roots[i].signature)
                    for i in missed
                ]
            )
            for index, valid in zip(missed, verdicts):
                verified_under = primary if valid else None
                if not valid:
                    # Overlap fallback: an older-but-still-acceptable key may
                    # have signed this root (mid-rotation pulls, restores).
                    for verifier in verifier_keys[1:]:
                        if verifier.verify(
                            signed_roots[index].payload(), signed_roots[index].signature
                        ):
                            verified_under = verifier
                            break
                results[index] = verified_under is not None
                if verified_under is not None:
                    self._remember(signed_roots[index], verified_under)
        return results

    # -- maintenance ---------------------------------------------------------

    def invalidate_ca(self, ca_name: str) -> int:
        """Drop every cached verdict for one CA (or shard) name.

        Called on epoch refresh, resync, and shard retirement so the bounded
        cache does not carry dead epochs; never required for correctness.
        """
        keys = [key for key, owner in self._entries.items() if owner == ca_name]
        for key in keys:
            del self._entries[key]
        self.stats.invalidations += len(keys)
        return len(keys)

    def clear(self) -> int:
        """Drop every cached verdict; returns how many were invalidated."""
        dropped = len(self._entries)
        self._entries.clear()
        self.stats.invalidations += dropped
        return dropped

    def _remember(self, signed_root: "SignedRoot", public_key: PublicKey) -> None:
        """Memoize one verified root, evicting the LRU entry when full."""
        if self.maxsize == 0:
            return
        self._entries[self._key(signed_root, public_key)] = signed_root.ca_name
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
