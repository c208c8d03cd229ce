"""The incremental engine: cached hash levels, rebuilt only where they changed.

The tree shape is fixed by the proof format (pair adjacent nodes, promote
the odd node), which makes internal node hashes *positional*: inserting a
leaf at index ``i`` shifts every later leaf by one, so every internal node
covering a shifted leaf re-pairs.  Within that constraint this engine does
the minimum work per mutation, and does it at C speed:

* the leaf-hash row is cached, so existing leaves are never re-encoded or
  rehashed — only the new leaves are hashed;
* at every level, nodes left of the first change's ancestor stay where they
  are, and what is hashed is one comprehension per stretch over its child
  pairs, calling the builtin SHA-256 constructor directly — no Python
  function call per node;
* a **batch** is placed with one bisect per key and merged by copying the
  *gap slices* between positions (:func:`~repro.store.base.splice_sorted`:
  ``O(B log N)`` interpreted steps, the ``O(N)`` part is ``memcpy``).  The
  old leaves after the ``k``-th batch key move ``k`` places right as one
  run, and wherever ``k`` is a multiple of ``2**l`` the level-``l`` nodes
  wholly inside the run *are* old nodes, ``k / 2**l`` to their left: those
  stretches of the new row are slices of the old row and only the stretches
  between them are hashed — two thirds of the positional suffix for a sparse
  batch.  Rolling a batch back (``remove_batch``) is the same rebuild with
  negative shifts.  A single insert shifts its suffix by one, which is odd,
  so it hashes the whole suffix: nothing less would be byte-identical;
* an **append** — keys sorting after every stored key, e.g. sequentially
  allocated serials — displaces nothing: it extends the arrays in place
  (``O(B)``, no copy), dirties a single right-edge path and costs
  ``O(B + log N)`` hashes.

Measured against what the forced hash count alone costs (the SHA-256 floor
of ``docs/PERFORMANCE.md``), a random insert is 1.0–1.2× and a 1,000-serial
append at 10⁶ leaves 1.5–1.7×; a 1,000-serial random batch there costs
0.65–0.86× a rehash of its suffix.  Because the levels are always current,
roots and proofs are served straight from the cache with zero hashing.
"""

from __future__ import annotations

from itertools import count
from typing import Iterable, List, Sequence, Tuple

from repro.crypto.hashing import DEFAULT_DIGEST_SIZE, NODE_PREFIX, raw_sha256
from repro.store.base import SortedLeafStore, kept_runs

#: A run is reused at a level only while it holds this many whole nodes there
#: (so never from a gap under twice as many leaves): splitting the level's
#: comprehension around a slice costs ~3 hashes, and a dense batch is all gaps.
MIN_RUN_NODES = 4


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
            self._rebuild_levels(index)
        return index

    def insert_batch(self, items: Iterable[Tuple[bytes, bytes]]) -> int:
        """Sort-merge a batch into the leaf arrays, then repair levels once."""
        batch, positions = self._place_batch(items)
        if not batch:
            return 0
        return self._merge_batch(batch, positions)

    def _merge_batch(self, batch: List[Tuple[bytes, bytes]], positions: List[int]) -> int:
        if not self._levels:
            self._levels = [[]]
        stored = len(self._keys)
        self._levels[0] = self._merge_into(batch, positions, self._levels[0])
        # An append (first key past the stored tail) displaces nothing.
        runs = _displaced_runs(positions, stored, 1) if positions[0] < stored else ()
        self._rebuild_levels(positions[0], runs)
        return len(batch)

    def _prune_leaves(self, positions) -> None:
        stored = len(self._keys)
        runs = kept_runs(positions, stored)
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
        self._rebuild_levels(positions[0], _displaced_runs(positions, stored, -1))

    # -- hashing -----------------------------------------------------------

    def _hash_levels(self) -> List[List[bytes]]:
        return self._levels

    def _rebuild_levels(self, start: int, runs: Sequence[Tuple[int, int, int]] = ()) -> None:
        """Rebuild every level above the (already current) leaf row.

        ``start`` is the leftmost leaf index whose hash ancestry changed:
        nodes left of ``start >> l`` at level ``l`` stay where they are.
        ``runs`` are the displaced stretches right of it, ``(new_start,
        new_stop, shift)`` with ``row[i] == old_row[i - shift]`` inside;
        while a run's shift stays even, a parent with both children inside
        it is the old parent half the shift to its left, so that stretch is
        sliced from the old row (which is released as its level is rebuilt)
        and everything between is hashed.  A run drops out at its first odd
        shift or under :data:`MIN_RUN_NODES`; with no runs this is the
        plain suffix rehash of a single insert or an append.
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
            pairs = len(child) >> 1
            runs = [
                ((low + 1) >> 1, high >> 1, shift >> 1)
                for low, high, shift in runs
                if not shift & 1 and (high >> 1) - ((low + 1) >> 1) >= MIN_RUN_NODES
            ]
            reused = [(low, high, parent[low - shift : high - shift]) for low, high, shift in runs]
            reused.append((pairs, pairs, ()))  # hash from the last run to the row's end
            del parent[start:]
            dirty_from = start
            for low, high, old_nodes in reused:
                dirty = iter(child[2 * dirty_from : 2 * low])
                parent += [
                    sha(prefix + left + right).digest()[:digest_size]
                    for left, right in zip(dirty, dirty)
                ]
                parent += old_nodes
                dirty_from = high
            if len(child) & 1:
                # Odd node is promoted unchanged to the next level.
                parent.append(child[-1])
            child = parent
            level_index += 1
        del levels[level_index:]


def _displaced_runs(positions: Sequence[int], stored: int, step: int) -> List[Tuple[int, int, int]]:
    """Level-0 runs ``(new_start, new_stop, shift)`` of the old leaves right of
    ``positions[0]`` after a merge at those insertion indices (``step`` 1) or
    a prune of those leaf indices (``step`` -1); the ``k``-th gap moves by
    ``k`` places.  Gaps too short for :data:`MIN_RUN_NODES` pairs are hashed.
    """
    skip = step < 0  # a pruned position is itself an old leaf, an insertion index is not
    return [
        (low + skip + step * k, high + step * k, step * k)
        for k, low, high in zip(count(1), positions, [*positions[1:], stored])
        if high - low - skip >= 2 * MIN_RUN_NODES
    ]
