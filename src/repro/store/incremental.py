"""The incremental engine: cached hash levels, suffix-only recomputation.

The tree shape is fixed by the proof format (pair adjacent nodes, promote
the odd node), which makes internal node hashes *positional*: inserting a
leaf at index ``i`` shifts every later leaf by one, so every internal node
covering a shifted leaf re-pairs.  Within that constraint this engine does
the minimum work per mutation, and does it at C speed:

* the leaf-hash row is cached, so existing leaves are never re-encoded or
  rehashed — only the new leaves are hashed;
* at every level only the *dirty suffix* (nodes at or right of the
  insertion point's ancestor) is recomputed, as one comprehension over the
  child pairs calling the builtin SHA-256 constructor directly — no Python
  function call per node; nodes left of it are reused from the cache;
* an **append** — keys sorting after every stored key, e.g. sequentially
  allocated serials — extends the arrays in place (``O(B)``, no copy),
  dirties a single right-edge path and costs ``O(B + log N)`` hashes;
* any other **batch** is merged by bisecting each key into the stored keys
  and copying the *gap slices* between positions
  (:func:`~repro.store.base.splice_sorted`: ``O(B log N)`` interpreted
  steps, the ``O(N)`` part is ``memcpy``), followed by a single suffix
  recomputation from the leftmost merged position; rolling a batch back
  (``remove_batch``) keeps the surviving gap slices the same way.

Measured against what the forced hash count alone costs (the SHA-256 floor
of ``docs/PERFORMANCE.md``), a random insert is 1.0–1.2× and a 1,000-serial
append at 10⁶ leaves 1.5–1.7×.  Because the levels are always current,
roots and proofs are served straight from the cache with zero hashing.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.crypto.hashing import DEFAULT_DIGEST_SIZE, NODE_PREFIX, raw_sha256
from repro.store.base import SortedLeafStore, kept_runs


class IncrementalMerkleStore(SortedLeafStore):
    """A sorted Merkle tree that keeps its hash levels fresh across mutations."""

    engine_name = "incremental"

    def __init__(self, digest_size: int = DEFAULT_DIGEST_SIZE) -> None:
        super().__init__(digest_size)
        #: Always-current hash levels; ``[0]`` is the leaf-hash row.
        self._levels: List[List[bytes]] = []

    # -- mutation ----------------------------------------------------------

    def insert(self, key: bytes, value: bytes) -> int:
        """Insert one leaf and repair the cached levels from its position."""
        index = self._insertion_point(key)
        self._keys.insert(index, key)
        self._values.insert(index, value)
        if not self._levels:
            self._levels = [[self._leaf_hash(key, value)]]
        else:
            self._levels[0].insert(index, self._leaf_hash(key, value))
            self._recompute_from(index)
        return index

    def insert_batch(self, items: Iterable[Tuple[bytes, bytes]]) -> int:
        """Sort-merge a batch into the leaf arrays, then repair levels once."""
        batch = self._prepare_batch(items)
        if not batch:
            return 0
        return self._apply_prepared_batch(batch)

    def _apply_prepared_batch(self, batch: List[Tuple[bytes, bytes]]) -> int:
        """Merge an already-validated, sorted batch and repair the levels.

        Split out of :meth:`insert_batch` so engines that interpose between
        validation and application (the durable engine logs the prepared
        batch to its WAL first) can reuse the merge without re-validating.
        """
        if not self._levels:
            self._levels = [[]]
        first_dirty = self._merge_into(batch, leaf_hashes=self._levels[0])
        self._recompute_from(first_dirty)
        return len(batch)

    def _prune_leaves(self, positions) -> None:
        runs = kept_runs(positions, len(self._keys))
        if not runs:
            self._keys, self._values, self._levels = [], [], []
            return
        columns = []
        for column in (self._keys, self._values, self._levels[0]):
            kept: List[bytes] = []
            for start, stop in runs:
                kept += column[start:stop]
            columns.append(kept)
        self._keys, self._values, self._levels[0] = columns
        self._recompute_from(positions[0])

    # -- hashing -----------------------------------------------------------

    def _hash_levels(self) -> List[List[bytes]]:
        return self._levels

    def _recompute_from(self, start: int) -> None:
        """Recompute the dirty suffix of every level above the leaf row.

        ``start`` is the leftmost leaf index whose hash ancestry changed.
        Nodes strictly left of ``start >> l`` at level ``l`` cover only
        untouched, unshifted leaves and are reused from the cache; the rest
        of the level is one comprehension over its child pairs.
        """
        levels = self._levels
        digest_size = self._digest_size
        sha, prefix = raw_sha256, NODE_PREFIX
        child = levels[0]
        level_index = 1
        while len(child) > 1:
            if level_index == len(levels):
                levels.append([])
            parent = levels[level_index]
            start >>= 1
            del parent[start:]
            dirty = iter(child[2 * start :])
            parent += [
                sha(prefix + left + right).digest()[:digest_size]
                for left, right in zip(dirty, dirty)
            ]
            if len(child) & 1:
                # Odd node is promoted unchanged to the next level.
                parent.append(child[-1])
            child = parent
            level_index += 1
        del levels[level_index:]
