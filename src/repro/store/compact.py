"""The compact engine: flat-buffer leaf arenas and level-vectorized hashing.

:class:`IncrementalMerkleStore` already does the minimum *hashing* work per
mutation and runs each level pass as one comprehension, but it pays
Python-object overhead for storage: every leaf key, leaf value, and internal
node digest is its own ``bytes`` object inside a ``list``, so a 10M-leaf
dictionary costs hundreds of bytes per leaf.

This engine removes the objects, not the hashes:

* **Leaf arenas** — keys and values live in one contiguous ``bytearray``
  each (:class:`_ByteColumn`).  RITM keys are fixed-width serial numbers, so
  the arena is digest-stride indexed (``offset = index * width``) with no
  per-leaf pointers; columns transparently fall back to an offset-indexed
  ragged layout the first time a differently-sized entry appears.
* **Hash planes** — each tree level is a single ``bytearray`` of
  concatenated ``digest_size``-strided node digests.  A level pass snapshots
  the dirty suffix once and runs a tight ``b"".join`` comprehension of
  ``sha256(prefix + row[k:k+2*ds])`` calls: one C-level hash per node with
  no intermediate node objects and no per-node Python function dispatch.
* **Lazy suffix recompute** — mutations only splice the leaf plane and lower
  a dirty watermark; the next ``root()``/proof call settles all levels in a
  single bottom-up sweep from the watermark.  Appends stay ``O(log N)``
  hashes, mid-tree inserts rehash only the dirty suffix, and a burst of
  mutations between reads shares one settle.
* **Proofs are slice reads** — audit-path siblings come straight out of the
  level planes as ``level_buf[i*ds:(i+1)*ds]`` copies, so returned proofs
  never alias live buffers and later mutations cannot corrupt them.

The tree *shape* is untouched: the engine subclasses
:class:`SortedLeafStore`, whose batch validation and proof assembly reach the
arenas through two seams — the key search, which a uniform column runs in
place over arena slices, and the climb, which reads the planes.  Roots
and proofs are byte-identical to every other engine
(``tests/store/test_compact_store.py`` enforces this differentially).
"""

from __future__ import annotations

import bisect
from array import array
from itertools import accumulate, chain, islice
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.crypto.hashing import DEFAULT_DIGEST_SIZE, LEAF_PREFIX, NODE_PREFIX, raw_sha256
from repro.crypto.merkle import empty_root, encode_leaf
from repro.store.base import SortedLeafStore, kept_runs


def _splice_strided(
    buf: bytearray, width: int, positions: Sequence[int], items: Sequence[bytes]
) -> bytearray:
    """``buf`` (cells of ``width`` bytes) with ``items[i]`` spliced in before
    cell ``positions[i]`` (non-decreasing): one gap-slice join, no per-item
    ``memmove``."""
    parts: List[bytes] = []
    previous = 0
    for position, item in zip(positions, items):
        offset = position * width
        parts.append(buf[previous:offset])
        parts.append(item)
        previous = offset
    parts.append(buf[previous:])
    return bytearray(b"".join(parts))


class _ByteColumn(Sequence):
    """A sorted column of byte strings packed into one contiguous arena.

    Starts in *uniform* mode: the first entry fixes the stride and every
    item is addressed as ``buf[i*width : (i+1)*width]`` — zero per-item
    metadata, which is what makes 10M fixed-width serials cheap.  The first
    differently-sized entry triggers a one-time conversion to *ragged* mode
    (a parallel ``array('I')`` of lengths plus lazily rebuilt prefix-sum
    offsets), preserving correctness for arbitrary keys at a small per-item
    cost.  Supports the sequence protocol :class:`SortedLeafStore` relies
    on plus its own :meth:`search`; ``__getitem__`` always returns
    independent ``bytes`` copies.
    """

    __slots__ = ("_buf", "_count", "_width", "_lens", "_offs")

    def __init__(self) -> None:
        """Create an empty column; the stride is learned from the first item."""
        self._buf = bytearray()
        self._count = 0
        self._width: Optional[int] = None  # None until the first item
        self._lens: Optional[array] = None  # non-None once ragged
        self._offs: Optional[array] = None  # lazy prefix sums (ragged mode)

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        """Number of items stored."""
        return self._count

    def __getitem__(self, index):
        """Item at ``index`` as an independent ``bytes`` copy."""
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(self._count)))
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError("column index out of range")
        if self._lens is None:
            width = self._width or 0
            offset = index * width
            return bytes(self._buf[offset : offset + width])
        offsets = self._offsets()
        return bytes(self._buf[offsets[index] : offsets[index + 1]])

    def __iter__(self):
        """Iterate items in order without repeated offset arithmetic."""
        buf = self._buf
        if self._lens is None:
            width = self._width or 0
            if width == 0:
                for _ in range(self._count):
                    yield b""
                return
            for offset in range(0, self._count * width, width):
                yield bytes(buf[offset : offset + width])
            return
        offsets = self._offsets()
        for index in range(self._count):
            yield bytes(buf[offsets[index] : offsets[index + 1]])

    def search(self, probe: bytes) -> Tuple[int, bool]:
        """``bisect_left`` index of ``probe`` and whether the item there is it.

        A uniform column is searched in place, one arena slice per probe step
        and no item object; ragged and zero-width columns (and the empty one)
        go through the sequence protocol.
        """
        width = self._width
        if not width or self._lens is not None:
            low = bisect.bisect_left(self, probe)
            return low, low < self._count and self[low] == probe
        buf, low, high = self._buf, 0, self._count
        while low < high:
            middle = (low + high) >> 1
            if buf[middle * width : (middle + 1) * width] < probe:
                low = middle + 1
            else:
                high = middle
        return low, low < self._count and buf[low * width : (low + 1) * width] == probe

    # -- mutation ----------------------------------------------------------

    def insert_at(self, index: int, item: bytes) -> None:
        """Splice one item before position ``index`` (a single ``memmove``)."""
        self._fit(item)
        if self._lens is None:
            offset = index * self._width  # type: ignore[operator]
            self._buf[offset:offset] = item
        else:
            offset = self._offsets()[index]
            self._buf[offset:offset] = item
            self._lens.insert(index, len(item))
            self._offs = None
        self._count += 1

    def merge(self, positions: Sequence[int], items: Sequence[bytes]) -> None:
        """Splice sorted ``items`` before the old indices ``positions``.

        ``positions`` must be non-decreasing (computed against the
        pre-merge column) and aligned with ``items``; the arena is rebuilt
        with one gap-slice join instead of per-item splices.
        """
        for item in items:
            self._fit(item)
            if self._lens is not None:
                break
        if self._lens is None:
            self._buf = _splice_strided(self._buf, self._width or 0, positions, items)
        else:
            buf = self._buf
            parts: List[bytes] = []
            previous = 0
            offsets = self._offsets()
            new_lens = array("I")
            consumed = 0
            for position, item in zip(positions, items):
                offset = offsets[position]
                parts.append(buf[previous:offset])
                new_lens.extend(self._lens[consumed:position])
                consumed = position
                parts.append(item)
                new_lens.append(len(item))
                previous = offset
            parts.append(buf[previous:])
            new_lens.extend(self._lens[consumed:])
            self._buf = bytearray(b"".join(parts))
            self._lens = new_lens
            self._offs = None
        self._count += len(items)

    def append_bulk(self, items: Sequence[bytes]) -> None:
        """Append pre-sorted ``items`` that all sort after the current tail.

        The bootstrap/sequential-issuance fast path: one arena extend, no
        gap-slice bookkeeping.
        """
        for item in items:
            self._fit(item)
            if self._lens is not None:
                break
        self._buf += b"".join(items)
        if self._lens is not None:
            self._lens.extend([len(item) for item in items])
            self._offs = None
        self._count += len(items)

    def keep_runs(self, runs: Sequence[Tuple[int, int]], new_count: int) -> None:
        """Rebuild the arena keeping only the index ranges in ``runs``.

        ``runs`` are disjoint, ascending ``(start, stop)`` half-open index
        intervals whose lengths sum to ``new_count``.
        """
        buf = self._buf
        parts: List[bytes] = []
        if self._lens is None:
            width = self._width or 0
            for start, stop in runs:
                parts.append(buf[start * width : stop * width])
            self._buf = bytearray(b"".join(parts))
        else:
            offsets = self._offsets()
            new_lens = array("I")
            for start, stop in runs:
                parts.append(buf[offsets[start] : offsets[stop]])
                new_lens.extend(self._lens[start:stop])
            self._buf = bytearray(b"".join(parts))
            self._lens = new_lens
            self._offs = None
        self._count = new_count

    # -- accounting --------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Bytes held by the arena plus ragged-mode length/offset metadata."""
        total = len(self._buf)
        if self._lens is not None:
            total += self._lens.itemsize * len(self._lens)
        if self._offs is not None:
            total += self._offs.itemsize * len(self._offs)
        return total

    # -- internals ---------------------------------------------------------

    def _fit(self, item: bytes) -> None:
        """Learn the stride from the first item; go ragged on a mismatch."""
        if self._width is None:
            self._width = len(item)
        elif self._lens is None and len(item) != self._width:
            self._lens = array("I", [self._width]) * self._count
            self._offs = None

    def _offsets(self) -> array:
        """Prefix-sum offsets for ragged mode, rebuilt lazily after mutation."""
        if self._offs is None:
            assert self._lens is not None
            self._offs = array("Q", accumulate(chain((0,), self._lens)))
        return self._offs


class CompactMerkleStore(SortedLeafStore):
    """A sorted Merkle tree stored as flat byte planes with lazy hashing.

    See the module docstring for the layout.  The engine keeps a *dirty
    watermark* — the leftmost leaf index whose hash ancestry changed since
    the planes were last settled — and recomputes each level's dirty suffix
    in one vectorized pass on the next read.  All validation, absence-proof
    assembly, and ordering logic is inherited from :class:`SortedLeafStore`;
    the differential suites keep the column search and the plane-reading
    climb identical to the shared ones.
    """

    engine_name = "compact"

    def __init__(self, digest_size: int = DEFAULT_DIGEST_SIZE) -> None:
        """Create an empty store hashing with ``digest_size``-byte digests."""
        super().__init__(digest_size)
        self._keys: _ByteColumn = _ByteColumn()  # type: ignore[assignment]
        self._values: _ByteColumn = _ByteColumn()  # type: ignore[assignment]
        #: ``_planes[l]`` is level ``l``'s concatenated node digests;
        #: ``_planes[0]`` (the leaf-hash row) is always current, planes above
        #: it are only valid left of the watermark until the next settle.
        self._planes: List[bytearray] = [bytearray()]
        #: Leftmost leaf index whose ancestry is stale; ``None`` == settled.
        self._dirty_from: Optional[int] = None

    # -- mutation ----------------------------------------------------------

    def insert(self, key: bytes, value: bytes) -> int:
        """Insert one leaf: three arena splices and a lowered watermark."""
        index = self._insertion_point(key)
        digest_size = self._digest_size
        leaf = raw_sha256(LEAF_PREFIX + encode_leaf(key, value)).digest()[:digest_size]
        self._keys.insert_at(index, key)
        self._values.insert_at(index, value)
        offset = index * digest_size
        self._planes[0][offset:offset] = leaf
        self._mark_dirty(index)
        return index

    def insert_batch(self, items: Iterable[Tuple[bytes, bytes]]) -> int:
        """Validate a batch, then splice and hash it in bulk."""
        batch, positions = self._place_batch(items)
        if not batch:
            return 0
        return self._merge_batch(batch, positions)

    def _merge_batch(self, batch: List[Tuple[bytes, bytes]], positions: List[int]) -> int:
        """Merge a placed batch into the flat planes: one comprehension hashes
        all new leaves; each arena is extended (an append) or rebuilt with a
        single gap-slice join at ``positions``."""
        digest_size = self._digest_size
        sha, prefix = raw_sha256, LEAF_PREFIX
        digests = [
            sha(prefix + encode_leaf(key, value)).digest()[:digest_size] for key, value in batch
        ]
        if positions[0] == len(self._keys):
            # Every batch key sorts after the stored tail (bootstrap builds
            # and sequentially allocated serials): plain arena appends.
            self._planes[0] += b"".join(digests)
            self._keys.append_bulk([key for key, _ in batch])
            self._values.append_bulk([value for _, value in batch])
        else:
            self._planes[0] = _splice_strided(self._planes[0], digest_size, positions, digests)
            self._keys.merge(positions, [key for key, _ in batch])
            self._values.merge(positions, [value for _, value in batch])
        self._mark_dirty(positions[0])
        return len(batch)

    def _prune_leaves(self, positions: List[int]) -> None:
        """Drop the targeted leaves by rebuilding the arenas from kept runs."""
        total = len(self._keys)
        runs = kept_runs(positions, total)
        kept = total - len(positions)
        self._keys.keep_runs(runs, kept)
        self._values.keep_runs(runs, kept)
        digest_size = self._digest_size
        plane0 = self._planes[0]
        self._planes[0] = bytearray(
            b"".join(
                [plane0[start * digest_size : stop * digest_size] for start, stop in runs]
            )
        )
        if kept == 0:
            del self._planes[1:]
            self._dirty_from = None
            return
        self._mark_dirty(positions[0])

    # -- hashing -----------------------------------------------------------

    def root(self) -> bytes:
        """Current root digest, served straight off the settled top plane."""
        if not len(self._keys):
            return empty_root(self._digest_size)
        self._settle()
        return bytes(self._planes[-1])

    def _hash_levels(self) -> List[List[bytes]]:
        """The settled planes as lists of digests (differential tests only:
        :meth:`root` and :meth:`_climb` read the planes)."""
        self._settle()
        size = self._digest_size
        return [
            [bytes(plane[at : at + size]) for at in range(0, len(plane), size)]
            for plane in self._planes
        ]

    def _search(self, key: bytes) -> Tuple[int, bool]:
        """The one key search, run by the key column over its own arena."""
        return self._keys.search(key)

    def _climb(self, node: int, start: int = 0, stop: Optional[int] = None) -> List[bytes]:
        """The shared climb read straight off the planes, one slice copy per
        level (so the proof never aliases a live plane)."""
        self._settle()
        size = self._digest_size
        path: List[bytes] = []
        append = path.append
        for plane in islice(self._planes, start, stop):
            at = (node ^ 1) * size
            sibling = bytes(plane[at : at + size])
            if sibling:  # else the promoted odd node (or the root): no sibling
                append(sibling)
            node >>= 1
        return path

    def _mark_dirty(self, index: int) -> None:
        """Lower the dirty watermark to ``index``."""
        if self._dirty_from is None or index < self._dirty_from:
            self._dirty_from = index

    def _settle(self) -> None:
        """Recompute every level's dirty suffix in one bottom-up sweep.

        At level ``l`` the first stale parent is ``watermark >> l``; the
        dirty child suffix is snapshotted once as immutable ``bytes`` and
        hashed pairwise in a single comprehension (the trailing odd child,
        if any, is promoted unchanged).  Slice-assigning the result grows or
        shrinks each plane to exactly its new node count.
        """
        start = self._dirty_from
        if start is None:
            return
        self._dirty_from = None
        count = len(self._keys)
        planes = self._planes
        if count == 0:
            del planes[1:]
            return
        digest_size = self._digest_size
        pair_stride = digest_size * 2
        sha, prefix = raw_sha256, NODE_PREFIX
        child = planes[0]
        child_count = count
        level = 1
        while child_count > 1:
            parent_count = (child_count + 1) >> 1
            first = start >> level
            if level == len(planes):
                planes.append(bytearray())
            parent = planes[level]
            child_base = (first << 1) * digest_size
            row = bytes(child[child_base:])
            paired_end = (child_count - (child_count & 1)) * digest_size - child_base
            out = b"".join(
                [
                    sha(prefix + row[offset : offset + pair_stride]).digest()[:digest_size]
                    for offset in range(0, paired_end, pair_stride)
                ]
            )
            if child_count & 1:
                out += row[paired_end : paired_end + digest_size]
            parent[first * digest_size :] = out
            child = parent
            child_count = parent_count
            level += 1
        del planes[level:]

    # -- accounting --------------------------------------------------------

    def memory_usage(self) -> Dict[str, int]:
        """Byte accounting of the flat buffers (keys, values, hash planes).

        Settles first so the plane total reflects the full tree; used by the
        scaling benchmarks and ``docs/STORAGE.md`` memory/leaf numbers.
        """
        self._settle()
        keys_bytes = self._keys.nbytes
        values_bytes = self._values.nbytes
        plane_bytes = sum(len(plane) for plane in self._planes)
        return {
            "keys_bytes": keys_bytes,
            "values_bytes": values_bytes,
            "plane_bytes": plane_bytes,
            "total_bytes": keys_bytes + values_bytes + plane_bytes,
        }
