"""Bounded LRU cache of Merkle membership proofs for the TLS read path.

An RA (and, in the close-to-server deployment, the CDN edge terminator it is
co-located with) answers the same lookups over and over: session resumption
re-asks about the serial it just proved, and a flash crowd asks about one
hot certificate from thousands of connections within a single Δ.  The audit
path for a serial depends only on the dictionary *content*, which is
committed by the root hash — so proofs are cached under the key

    ``(ca, shard, root hash, serial)``

and a cached proof is byte-identical to a freshly built one for as long as
the dictionary still serves that root.  A root change (revocation batch,
resync) changes the key, so stale entries are unreachable by construction;
explicit invalidation (:meth:`ProofCache.invalidate_dictionary`) reclaims
their space on refresh, resync, and shard retirement by one scan of the live
keys — the dictionary name is already in the key, so the cache keeps no
second index to maintain on every ``put``.  A re-signed root over
*unchanged* content (hash-chain exhaustion) keeps the same root hash, so the
cache deliberately stays warm across that rotation.

The RA stores a :class:`ProofEntry` per key.  Beside the proof it holds the
encoded status built from it up to its freshness value (the proof and the
signed root), encoded at the entry's first attach and tagged with
the signature of the exact signed root they carry.  A re-signed root over
the same content reuses the proof but not those bytes: a different
signature re-encodes them.  They live and die with the entry, so
:meth:`ProofCache.clear` and :meth:`ProofCache.invalidate_dictionary` drop
them too.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.perf.cache import LRUCache

#: Default capacity: roughly one flash crowd's worth of distinct serials.
DEFAULT_PROOF_CACHE_SIZE = 4096


class ProofEntry:
    """One cached proof, and the status fields encoded around it."""

    __slots__ = ("proof", "signature", "head")

    def __init__(self, proof: Any) -> None:
        self.proof = proof
        #: Signature of the signed root ``head`` was encoded under (``None``:
        #: not encoded yet).
        self.signature: Optional[bytes] = None
        #: The encoded status up to its freshness statement.
        self.head = b""


class ProofCache:
    """LRU of membership proofs keyed by ``(ca, shard, root hash, serial)``."""

    def __init__(self, maxsize: int = DEFAULT_PROOF_CACHE_SIZE) -> None:
        self._entries = LRUCache(maxsize)
        self.stats = self._entries.stats

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self, ca: str, shard: str, root: bytes, serial_value: int
    ) -> Optional[Any]:
        """The cached proof for this exact dictionary version, or ``None``."""
        return self._entries.get((ca, shard, root, serial_value))

    def put(
        self, ca: str, shard: str, root: bytes, serial_value: int, proof: Any
    ) -> None:
        """Cache one freshly built proof, evicting the LRU entry when full."""
        self._entries.put((ca, shard, root, serial_value), proof)

    def invalidate_dictionary(self, name: str) -> int:
        """Drop every proof built from one dictionary (CA or shard name).

        The read path would never serve those entries anyway (their root no
        longer matches), so this is purely about keeping the bounded cache
        full of *reachable* proofs after a refresh, resync, or retirement.
        """
        # An entry came from the shard replica when it names one, else the CA's.
        dropped = [key for key in self._entries.keys() if (key[1] or key[0]) == name]
        for key in dropped:
            self._entries.discard(key)
        return len(dropped)

    def clear(self) -> int:
        """Drop every proof; returns how many entries were invalidated."""
        return self._entries.clear()
