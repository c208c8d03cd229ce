"""The full-rebuild engine: simple, obviously correct, deliberately slow.

This is the seed implementation of the sorted Merkle tree, kept as the
differential-testing oracle for every other engine.  Mutations only touch the sorted leaf arrays
and mark the hash levels dirty; the first root or proof request after a
mutation rehashes all ``N`` leaves and rebuilds every level, so a single
revocation on an ``N``-entry dictionary costs ``Θ(N)`` hashes.

The one thing it does *not* do naively anymore is batching:
:meth:`insert_batch` merges the batch with the shared slice-spliced merge
instead of ``B`` separate ``O(N)`` ``list.insert`` shifts, and the subsequent
rebuild is paid once per batch rather than once per element.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.crypto.hashing import DEFAULT_DIGEST_SIZE, hash_node
from repro.store.base import SortedLeafStore


class NaiveMerkleStore(SortedLeafStore):
    """A Merkle tree over key-sorted leaves, rebuilt from scratch on demand.

    The hash levels are rebuilt lazily the first time the root (or a proof)
    is requested after a modification, so consecutive mutations pay for a
    single rebuild.
    """

    engine_name = "naive"

    def __init__(self, digest_size: int = DEFAULT_DIGEST_SIZE) -> None:
        super().__init__(digest_size)
        self._levels: List[List[bytes]] = []
        self._dirty = True

    # -- mutation ----------------------------------------------------------

    def insert(self, key: bytes, value: bytes) -> int:
        """Insert a leaf, keeping keys sorted and unique.

        Returns the leaf index at which the key now resides.  Raises
        :class:`~repro.errors.ProofError` if the key is already present
        (RITM dictionaries never revoke the same serial twice).
        """
        index = self._insertion_point(key)
        self._keys.insert(index, key)
        self._values.insert(index, value)
        self._dirty = True
        return index

    def insert_batch(self, items: Iterable[Tuple[bytes, bytes]]) -> int:
        """Merge many leaves in one pass; the hash levels are rebuilt only once."""
        batch, positions = self._place_batch(items)
        if not batch:
            return 0
        return self._merge_batch(batch, positions)

    def _merge_batch(self, batch: List[Tuple[bytes, bytes]], positions: List[int]) -> int:
        self._merge_into(batch, positions)
        self._dirty = True
        return len(batch)

    def _prune_leaves(self, positions) -> None:
        dropped = set(positions)
        self._keys = [k for i, k in enumerate(self._keys) if i not in dropped]
        self._values = [v for i, v in enumerate(self._values) if i not in dropped]
        self._dirty = True

    # -- hashing -----------------------------------------------------------

    def _hash_levels(self) -> List[List[bytes]]:
        if self._dirty:
            self._rebuild()
        return self._levels

    def _rebuild(self) -> None:
        if not self._keys:
            self._levels = []
            self._dirty = False
            return
        level = [
            self._leaf_hash(key, value)
            for key, value in zip(self._keys, self._values)
        ]
        levels = [level]
        digest_size = self._digest_size
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level) - 1, 2):
                nxt.append(hash_node(level[i], level[i + 1], digest_size))
            if len(level) % 2 == 1:
                # Odd node is promoted unchanged to the next level.
                nxt.append(level[-1])
            level = nxt
            levels.append(level)
        self._levels = levels
        self._dirty = False
