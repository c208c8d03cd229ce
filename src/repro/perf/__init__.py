"""Hot-path verification engine: caches for the read path.

The paper's pitch (§VII, Table 3 / Fig. 7) is that revocation checking is
cheap enough to sit on the TLS handshake path at CDN scale.  Two costs
dominate the *read* side of this reproduction:

* **Ed25519 signature checks** — the pure-Python implementation takes
  about a millisecond per verification, and a naive client re-verifies the
  CA's signed root on every handshake even though the root changes at most
  once per Δ epoch;
* **Merkle path construction** — an RA recomputes the audit path for a
  serial on every lookup, although repeat lookups (session resumption,
  flash crowds) hit the same ``(root, serial)`` pair again and again.

This package provides the shared machinery that removes those costs without
ever weakening verification:

* :class:`~repro.perf.cache.CacheStats` / :class:`~repro.perf.cache.LRUCache`
  — counters and a bounded LRU used by every cache in the engine (and by
  the CDN edge object cache);
* :class:`~repro.perf.root_cache.VerifiedRootCache` — memoizes *successful*
  Ed25519 verifications of signed roots, keyed by a digest of the exact
  ``(public key, payload, signature)`` bytes, so a tampered or rotated root
  can never alias a cached verdict;
* :class:`~repro.perf.proof_cache.ProofCache` — a bounded LRU of Merkle
  membership proofs keyed by ``(ca, shard, root hash, serial)`` with
  explicit invalidation per dictionary (refresh / resync / shard
  retirement).

:class:`VerifiedRootCache` verifies its cache misses through
:func:`repro.crypto.signing.verify_batch`.  See ``docs/PERFORMANCE.md`` for
the end-to-end architecture, invalidation rules, and tuning knobs.
"""

from repro.perf.cache import CacheStats, LRUCache
from repro.perf.proof_cache import DEFAULT_PROOF_CACHE_SIZE, ProofCache
from repro.perf.root_cache import DEFAULT_ROOT_CACHE_SIZE, VerifiedRootCache

__all__ = [
    "CacheStats",
    "DEFAULT_PROOF_CACHE_SIZE",
    "DEFAULT_ROOT_CACHE_SIZE",
    "LRUCache",
    "ProofCache",
    "VerifiedRootCache",
]
