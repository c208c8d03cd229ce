"""The :class:`AuthenticatedStore` interface and shared sorted-leaf machinery.

An authenticated store holds ``(key, value)`` leaves in lexicographic key
order and commits to them with the sorted Merkle tree of
:mod:`repro.crypto.merkle` (paper §II/§III).  The interface splits RITM's
dictionary semantics from the hashing strategy: engines differ in *when* and
*how much* they rehash, never in *what* they commit to — every engine must
produce byte-identical roots and proofs for the same leaf set.

:class:`SortedLeafStore` is the shared concrete base: it owns the sorted
key/value arrays, batch validation, and proof construction, and asks the
engine for the current hash levels through one hook (:meth:`_hash_levels`).
"""

from __future__ import annotations

import bisect
import os
import tempfile
from abc import ABC, abstractmethod
from itertools import islice
from pathlib import Path
from typing import ClassVar, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.crypto.hashing import (
    DEFAULT_DIGEST_SIZE,
    FULL_DIGEST_SIZE,
    LEAF_PREFIX,
    hash_leaf,
    raw_sha256,
)
from repro.crypto.merkle import (
    AbsenceProof,
    AuditStep,
    MembershipProof,
    PresenceProof,
    empty_root,
    encode_leaf,
    new_step,
)
from repro.errors import ConfigurationError, ProofError


def atomic_write(path: Union[str, Path], data: bytes, sync: bool = False) -> None:
    """Write ``data`` to ``path`` via a temp file and atomic rename.

    The crash-ordering primitive shared by store snapshots and RA
    checkpoint files: a crash at any point leaves either the old file or
    the complete new one, never a torn write.  ``sync=True`` fsyncs before
    the rename.
    """
    path = Path(path)
    fd, temp_name = tempfile.mkstemp(prefix=path.name + ".", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            if sync:
                os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except OSError:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


class LeafKeysView(Sequence):
    """Lazy, read-only view of a store's sorted keys.

    Returned by :meth:`SortedLeafStore.keys` instead of a full tuple copy —
    dissemination sync and checkpoint paths call ``keys()`` per pull, which
    at web scale turned every pull into an O(N) allocation spike.  The view
    indexes straight into the engine's live key column, so it reflects
    later mutations; callers needing snapshot semantics wrap it in
    ``tuple()``/``list()`` (every in-repo caller either does so or consumes
    the view immediately).  Compares element-wise against any sized
    iterable, so differential assertions like ``a.keys() == b.keys()`` keep
    working across engines and against plain tuples.
    """

    __slots__ = ("_source",)

    def __init__(self, source: Sequence[bytes]) -> None:
        """Wrap the engine's live sorted-key column."""
        self._source = source

    def __len__(self) -> int:
        """Number of keys currently stored."""
        return len(self._source)

    def __getitem__(self, index):
        """Key at ``index`` (slices return tuples)."""
        if isinstance(index, slice):
            return tuple(
                self._source[i] for i in range(*index.indices(len(self._source)))
            )
        return self._source[index]

    def __iter__(self) -> Iterator[bytes]:
        """Iterate keys in sorted order straight off the column."""
        return iter(self._source)

    def __eq__(self, other: object) -> bool:
        """Element-wise comparison against any sized iterable of keys."""
        try:
            length = len(other)  # type: ignore[arg-type]
        except TypeError:
            return NotImplemented
        if length != len(self):
            return False
        return all(mine == theirs for mine, theirs in zip(self, other))

    __hash__ = None  # type: ignore[assignment]  # mutable view

    def __repr__(self) -> str:
        """Debugging representation showing the view length."""
        return f"<LeafKeysView of {len(self)} keys>"


class LeafItemsView(Sequence):
    """Lazy, read-only view of a store's sorted ``(key, value)`` leaves.

    Same contract as :class:`LeafKeysView`: indexes the engine's live
    columns without copying them, so snapshots must be taken explicitly
    with ``list()`` (as the dictionary checkpoint path already does).
    """

    __slots__ = ("_keys", "_values")

    def __init__(self, keys: Sequence[bytes], values: Sequence[bytes]) -> None:
        """Wrap the engine's live key and value columns."""
        self._keys = keys
        self._values = values

    def __len__(self) -> int:
        """Number of leaves currently stored."""
        return len(self._keys)

    def __getitem__(self, index):
        """Leaf pair at ``index`` (slices return tuples of pairs)."""
        if isinstance(index, slice):
            return tuple(
                (self._keys[i], self._values[i])
                for i in range(*index.indices(len(self._keys)))
            )
        return (self._keys[index], self._values[index])

    def __iter__(self) -> Iterator[Tuple[bytes, bytes]]:
        """Iterate leaf pairs in sorted key order."""
        return zip(self._keys, self._values)

    def __eq__(self, other: object) -> bool:
        """Element-wise comparison against any sized iterable of pairs."""
        try:
            length = len(other)  # type: ignore[arg-type]
        except TypeError:
            return NotImplemented
        if length != len(self):
            return False
        return all(mine == theirs for mine, theirs in zip(self, other))

    __hash__ = None  # type: ignore[assignment]  # mutable view

    def __repr__(self) -> str:
        """Debugging representation showing the view length."""
        return f"<LeafItemsView of {len(self)} leaves>"


def splice_sorted(old: list, positions: Sequence[int], new: Sequence) -> list:
    """``old`` with ``new[i]`` spliced in before old index ``positions[i]``.

    ``positions`` is non-decreasing and non-empty; the merged list is
    assembled from the *gap slices* between consecutive positions, so the
    per-element work is a ``memcpy`` and the interpreted work is one step
    per new item.
    """
    previous = positions[0]
    merged = old[:previous]
    for position, item in zip(positions, new):
        if position > previous:
            merged += old[previous:position]
            previous = position
        merged.append(item)
    merged += old[previous:]
    return merged


def kept_runs(positions: Sequence[int], total: int) -> List[Tuple[int, int]]:
    """Half-open index runs of ``range(total)`` left after dropping the
    ascending, distinct ``positions``."""
    runs: List[Tuple[int, int]] = []
    start = 0
    for position in positions:
        if position > start:
            runs.append((start, position))
        start = position + 1
    if start < total:
        runs.append((start, total))
    return runs


class AuthenticatedStore(ABC):
    """Interface every Merkle-store engine implements.

    All mutation is insert-only (RITM dictionaries are append-only sets of
    revoked serials); ``insert_batch`` is the transactional path the
    dictionary layer uses for CA issuances, RA updates, and resyncs.
    """

    #: Registry name of the engine (``"naive"``, ``"incremental"``, ...).
    engine_name: ClassVar[str] = "abstract"

    @abstractmethod
    def insert(self, key: bytes, value: bytes) -> int:
        """Insert one leaf; returns its sorted index.  Raises on duplicates."""

    @abstractmethod
    def insert_batch(self, items: Iterable[Tuple[bytes, bytes]]) -> int:
        """Insert many leaves in one transaction; returns how many were added."""

    @abstractmethod
    def remove_batch(self, keys: Iterable[bytes]) -> int:
        """Remove stored leaves in one transaction; returns how many were removed.

        RITM dictionaries are append-only; this exists solely so a caller
        that staged a batch and then failed a commit check (e.g. a replica
        whose recomputed root does not match the CA-signed one) can roll the
        store back to its pre-batch state.  Raises :class:`ProofError` if
        any key is absent.
        """

    @abstractmethod
    def root(self) -> bytes:
        """Current root digest (empty-tree sentinel when there are no leaves)."""

    @abstractmethod
    def prove_presence(self, key: bytes) -> PresenceProof:
        """Audit path for a stored key; raises :class:`ProofError` if absent."""

    @abstractmethod
    def prove_absence(self, key: bytes) -> AbsenceProof:
        """Adjacency proof for a missing key; raises if the key is present."""

    def prove(self, key: bytes) -> MembershipProof:
        """Return a presence proof if the key is stored, else an absence proof."""
        return self._prove(key)

    @abstractmethod
    def _prove(self, key: bytes) -> MembershipProof:
        """The engine's hook under :meth:`prove` (which instrumentation wraps
        here, on the interface): decide presence and build the proof."""

    @abstractmethod
    def get(self, key: bytes) -> Optional[bytes]:
        """Value stored under ``key``, or ``None``."""

    @abstractmethod
    def keys(self) -> Sequence[bytes]:
        """All keys in sorted order."""

    def items(self) -> Iterable[Tuple[bytes, bytes]]:
        """All ``(key, value)`` leaves in sorted key order.

        The default derives the pairs from :meth:`keys` and :meth:`get`;
        engines with direct access to their leaf arrays override it (and may
        return a lazy view).  Snapshot/checkpoint callers that need the leaf
        set frozen at call time materialise with ``list()``.
        """
        for key in self.keys():
            value = self.get(key)
            assert value is not None  # keys() only returns stored keys
            yield key, value

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release any persistent resources held by the engine.

        Purely in-memory engines have nothing to release, so the default is
        a no-op.  Engines with real I/O (WAL file handles, mmap regions)
        override this; after ``close()`` the store must not be mutated.
        Closing twice is always safe.
        """

    def __enter__(self) -> "AuthenticatedStore":
        """Context-manager support: ``with create_store("durable") as s:``."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close the engine when the ``with`` block exits."""
        self.close()

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def __contains__(self, key: bytes) -> bool: ...


class SortedLeafStore(AuthenticatedStore):
    """Shared base for engines that keep leaves in sorted Python lists.

    Subclasses implement the hashing strategy by overriding
    :meth:`_hash_levels` (and the mutators); everything position- and
    proof-related lives here so the proof format cannot drift between
    engines.
    """

    def __init__(self, digest_size: int = DEFAULT_DIGEST_SIZE) -> None:
        if not 1 <= digest_size <= FULL_DIGEST_SIZE:
            raise ConfigurationError(
                f"digest_size must be between 1 and {FULL_DIGEST_SIZE} bytes, "
                f"got {digest_size}"
            )
        self._digest_size = digest_size
        self._keys: List[bytes] = []
        self._values: List[bytes] = []

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: bytes) -> bool:
        return self._search(key)[1]

    @property
    def digest_size(self) -> int:
        """The digest truncation (bytes) every hash in this store uses."""
        return self._digest_size

    def keys(self) -> Sequence[bytes]:
        """All stored keys in lexicographic order, as a lazy read-only view.

        The view tracks the live store (O(1) to obtain, no copy); take an
        explicit ``tuple()`` for snapshot semantics across mutations.
        """
        return LeafKeysView(self._keys)

    def get(self, key: bytes) -> Optional[bytes]:
        """The value stored under ``key``, or ``None`` when absent."""
        index, found = self._search(key)
        return self._values[index] if found else None

    def items(self) -> Sequence[Tuple[bytes, bytes]]:
        """All ``(key, value)`` leaves as a lazy read-only view.

        Like :meth:`keys`, the view tracks the live store; snapshot and
        checkpoint callers materialise it with ``list()``.
        """
        return LeafItemsView(self._keys, self._values)

    def root(self) -> bytes:
        """The current root digest (empty-tree sentinel with no leaves)."""
        if not self._keys:
            return empty_root(self._digest_size)
        return self._hash_levels()[-1][0]

    # -- proofs ------------------------------------------------------------

    def prove_presence(self, key: bytes) -> PresenceProof:
        """Audit path for a stored ``key``; raises :class:`ProofError` if absent."""
        index, found = self._search(key)
        if not found:
            raise ProofError(f"key {key.hex()} is not in the tree")
        return self._presence_proof_at(index)

    def prove_absence(self, key: bytes) -> AbsenceProof:
        """Adjacency proof that ``key`` is not stored; raises if it is."""
        index, found = self._search(key)
        if found:
            raise ProofError(f"key {key.hex()} is present; cannot prove absence")
        return self._absence_proof_at(key, index)

    def _prove(self, key: bytes) -> MembershipProof:
        """One search: the index that says whether ``key`` is stored is the
        index its presence proof, or its two neighbours', is built from."""
        index, found = self._search(key)
        if found:
            return self._presence_proof_at(index)
        return self._absence_proof_at(key, index)

    # -- mutation ----------------------------------------------------------

    def remove_batch(self, keys: Iterable[bytes]) -> int:
        """Remove ``keys`` in one transaction (rollback support); see the ABC."""
        positions: List[int] = []
        for key in sorted(set(keys)):
            index, found = self._search(key)
            if not found:
                raise ProofError(f"key {key.hex()} is not in the tree; cannot remove")
            positions.append(index)
        if positions:
            self._prune_leaves(positions)
        return len(positions)

    # -- engine hooks ------------------------------------------------------

    @abstractmethod
    def _hash_levels(self) -> List[List[bytes]]:
        """Hash levels bottom-up; ``[0]`` is the leaf-hash row, ``[-1]`` has
        length one.  Only called when the store is non-empty."""

    @abstractmethod
    def _merge_batch(self, batch: List[Tuple[bytes, bytes]], positions: List[int]) -> int:
        """Apply a placed, non-empty batch (:meth:`_place_batch`) to the leaf
        arrays and the engine's hash state; returns how many leaves it added."""

    @abstractmethod
    def _prune_leaves(self, positions: List[int]) -> None:
        """Drop the leaves at the ascending, distinct, non-empty indices
        ``positions`` and repair the engine's hash state."""

    # -- shared internals --------------------------------------------------

    def _search(self, key: bytes) -> Tuple[int, bool]:
        """The one key search: ``key``'s sorted index and whether it is stored."""
        keys = self._keys
        index = bisect.bisect_left(keys, key)
        return index, index < len(keys) and keys[index] == key

    def _find(self, key: bytes) -> Optional[int]:
        index, found = self._search(key)
        return index if found else None

    def _leaf_hash(self, key: bytes, value: bytes) -> bytes:
        return hash_leaf(encode_leaf(key, value), self._digest_size)

    def _insertion_point(self, key: bytes) -> int:
        """Sorted index for a new key; raises :class:`ProofError` on duplicates."""
        index, found = self._search(key)
        if found:
            raise ProofError(f"duplicate key {key.hex()} inserted into sorted tree")
        return index

    def _place_batch(
        self, items: Iterable[Tuple[bytes, bytes]]
    ) -> Tuple[List[Tuple[bytes, bytes]], List[int]]:
        """Sort a batch, reject duplicates (within it or against the store)
        and return it with every key's insertion index: one search per key
        serves the duplicate check and the merge.  (Over the whole column:
        from the previous key's index on measures slower, the probes stop
        being the same cached few.)  Nothing is mutated: this is the validate
        half of every ``insert_batch`` — place → (the WAL overlay logs here)
        → :meth:`_merge_batch`."""
        batch = sorted(items, key=lambda item: item[0])
        search = self._search
        positions: List[int] = []
        previous: Optional[bytes] = None
        for key, _ in batch:
            if key == previous:
                raise ProofError(f"duplicate key {key.hex()} within one batch")
            index, found = search(key)
            if found:
                raise ProofError(f"duplicate key {key.hex()} inserted into sorted tree")
            positions.append(index)
            previous = key
        return batch, positions

    def _merge_into(
        self,
        batch: Sequence[Tuple[bytes, bytes]],
        positions: Sequence[int],
        leaf_hashes: Optional[List[bytes]] = None,
    ) -> Optional[List[bytes]]:
        """Merge a placed batch (:meth:`_place_batch`, non-empty) into the leaf
        arrays and, when given, into the cached ``leaf_hashes`` row, which is
        returned merged.

        A batch sorting after the stored tail extends the arrays in place,
        O(B); any other is spliced in at ``positions`` by
        :func:`splice_sorted`.  ``positions[0]`` is the leftmost index whose
        hash ancestry changed.
        """
        new_keys = [key for key, _ in batch]
        new_values = [value for _, value in batch]
        if leaf_hashes is not None:
            sha, size = raw_sha256, self._digest_size
            new_hashes = [
                sha(LEAF_PREFIX + encode_leaf(key, value)).digest()[:size]
                for key, value in batch
            ]
        if positions[0] == len(self._keys):
            self._keys.extend(new_keys)
            self._values.extend(new_values)
            if leaf_hashes is not None:
                leaf_hashes.extend(new_hashes)
            return leaf_hashes
        self._keys = splice_sorted(self._keys, positions, new_keys)
        self._values = splice_sorted(self._values, positions, new_values)
        if leaf_hashes is not None:
            leaf_hashes = splice_sorted(leaf_hashes, positions, new_hashes)
        return leaf_hashes

    def _presence_proof_at(
        self, index: int, path: Optional[Tuple[AuditStep, ...]] = None
    ) -> PresenceProof:
        return PresenceProof(
            key=self._keys[index],
            value=self._values[index],
            leaf_index=index,
            tree_size=len(self._keys),
            path=tuple(self._climb(index)) if path is None else path,
        )

    def _absence_proof_at(self, key: bytes, index: int) -> AbsenceProof:
        """Adjacency proof for a ``key`` missing at sorted position ``index``."""
        size = len(self._keys)
        if not 0 < index < size:  # the empty tree, or one neighbour and its whole path
            left = self._presence_proof_at(index - 1) if index else None
            right = self._presence_proof_at(index) if index < size else None
            return AbsenceProof(key=key, tree_size=size, left=left, right=right)
        # Leaves ``index - 1`` and ``index`` become siblings at the lowest set
        # bit of ``index``: each climbs to that fork alone (its last step is
        # the other's ancestor), the parent they share is climbed once, and
        # both paths end in the same step objects.
        fork = (index & -index).bit_length()
        shared = self._climb(index >> fork, fork)
        return AbsenceProof(
            key=key,
            tree_size=size,
            left=self._presence_proof_at(index - 1, (*self._climb(index - 1, 0, fork), *shared)),
            right=self._presence_proof_at(index, (*self._climb(index, 0, fork), *shared)),
        )

    def _climb(self, node: int, start: int = 0, stop: Optional[int] = None) -> List[AuditStep]:
        """Sibling steps from ``node`` of level ``start`` up to level ``stop``
        (by default to, and not including, the root)."""
        levels = self._hash_levels()
        path: List[AuditStep] = []
        append, step = path.append, new_step
        for level in islice(levels, start, len(levels) - 1 if stop is None else stop):
            try:
                append(step(AuditStep, (level[node ^ 1], node & 1 == 1)))
            except IndexError:
                # The promoted odd node has no sibling at this level; it
                # simply carries up, so no audit step is emitted.
                pass
            node >>= 1
        return path
