"""The durable engine: write-ahead-logged Merkle persistence with snapshots.

:class:`DurableMerkleStore` extends the incremental engine with crash-safe
persistence so a restarted process recovers **byte-identical roots and
proofs** without re-downloading anything:

* every mutation (``insert``/``insert_batch``/``remove_batch``) is appended
  to an append-only **write-ahead log** *before* it touches the in-memory
  tree.  Records are length-prefixed and CRC-checksummed, so recovery can
  replay a prefix of the history and cleanly discard a torn tail — a crash
  at (or inside) any record leaves a recoverable log;
* every ``snapshot_every`` records (and on demand via :meth:`snapshot`) the
  engine writes a **snapshot**: a pinned-format, checksummed dump of the
  sorted leaves plus the sequence number of the last record it covers.
  Snapshots are written to a temp file and atomically renamed, then the WAL
  is reset; a crash between the two steps is harmless because replay skips
  records whose sequence number the snapshot already covers;
* opening a :class:`DurableMerkleStore` on an existing directory **recovers**
  by loading the snapshot (if any) and replaying the WAL suffix.

The persistence machinery lives in :class:`WALOverlay`, a mixin layered
over any in-memory :class:`~repro.store.base.SortedLeafStore` engine: the
overlay validates, logs, and then delegates the actual mutation to the
wrapped engine via ``super()``.  Two compositions are registered —
``durable`` (over :class:`~repro.store.incremental.IncrementalMerkleStore`)
and ``durable-compact`` (over
:class:`~repro.store.compact.CompactMerkleStore`, the flat-buffer core).
The hashing strategy is inherited unchanged from the wrapped engine, so
both stay byte-identical to every other engine for the same leaf set — the
differential suite in ``tests/store/`` proves it.  File formats, the
recovery algorithm, and tuning knobs are documented in ``docs/STORAGE.md``.

When no directory is given the engine persists into a private temporary
directory that is deleted on :meth:`close` — that keeps ``engine="durable"``
usable through every existing knob (``RITMConfig.store_engine``, scenario
configs, CLI ``--engine``, benchmarks) without plumbing paths everywhere;
pass ``directory=`` (e.g. via :func:`repro.store.create_store`) when state
must outlive the process.
"""

from __future__ import annotations

import os
import shutil
import struct
import tempfile
import weakref
import zlib
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.crypto.hashing import DEFAULT_DIGEST_SIZE
from repro.errors import ProofError, StorageError
from repro.store.base import atomic_write
from repro.store.compact import CompactMerkleStore
from repro.store.incremental import IncrementalMerkleStore

#: Snapshot file magic; the trailing version byte pair pins the format.
SNAPSHOT_MAGIC = b"RITMSNAP"

#: Pinned snapshot format version; bumped on any layout change.
SNAPSHOT_VERSION = 1

#: WAL file name inside the store directory.
WAL_FILENAME = "wal.log"

#: Snapshot file name inside the store directory.
SNAPSHOT_FILENAME = "snapshot.bin"

#: Default number of WAL records between automatic snapshots (0 disables
#: automatic snapshotting; explicit :meth:`DurableMerkleStore.snapshot`
#: calls always work).
DEFAULT_SNAPSHOT_EVERY = 512

#: WAL record types.
_RECORD_INSERT = 1
_RECORD_REMOVE = 2

#: WAL record header: sequence number (u64), type (u8), payload length (u32).
_RECORD_HEADER = struct.Struct(">QBI")

#: Trailing CRC32 over header + payload.
_RECORD_CRC = struct.Struct(">I")

#: Snapshot fixed header after the magic: version (u16), digest size (u8),
#: covered sequence number (u64), leaf count (u64).
_SNAPSHOT_HEADER = struct.Struct(">HBQQ")


def encode_leaf_pairs(items: Sequence[Tuple[bytes, bytes]]) -> bytes:
    """Length-prefixed ``(key, value)`` frames (u16 key, u32 value).

    The one leaf shape shared by WAL insert records and snapshots —
    callers prepend their own item count.
    """
    parts = []
    for key, value in items:
        parts.append(struct.pack(">H", len(key)))
        parts.append(key)
        parts.append(struct.pack(">I", len(value)))
        parts.append(value)
    return b"".join(parts)


def decode_leaf_pairs(
    payload: bytes, offset: int, count: int
) -> Tuple[List[Tuple[bytes, bytes]], int]:
    """Decode ``count`` frames from ``payload`` starting at ``offset``.

    Inverse of :func:`encode_leaf_pairs`; returns the items and the offset
    after the last frame.  Raises :class:`StorageError` on truncation.
    """
    try:
        items: List[Tuple[bytes, bytes]] = []
        for _ in range(count):
            (key_length,) = struct.unpack_from(">H", payload, offset)
            offset += 2
            key = payload[offset : offset + key_length]
            if len(key) != key_length:
                raise ValueError("short key")
            offset += key_length
            (value_length,) = struct.unpack_from(">I", payload, offset)
            offset += 4
            value = payload[offset : offset + value_length]
            if len(value) != value_length:
                raise ValueError("short value")
            offset += value_length
            items.append((key, value))
        return items, offset
    except (struct.error, ValueError) as exc:
        raise StorageError(f"malformed leaf frames: {exc}") from None


def _encode_insert_payload(batch: Sequence[Tuple[bytes, bytes]]) -> bytes:
    """One WAL insert record's payload: u32 count + leaf frames."""
    return struct.pack(">I", len(batch)) + encode_leaf_pairs(batch)


def _decode_insert_payload(payload: bytes) -> List[Tuple[bytes, bytes]]:
    """Inverse of :func:`_encode_insert_payload`; raises on malformed data."""
    try:
        (count,) = struct.unpack_from(">I", payload, 0)
    except struct.error as exc:
        raise StorageError(f"malformed WAL insert payload: {exc}") from None
    items, offset = decode_leaf_pairs(payload, 4, count)
    if offset != len(payload):
        raise StorageError("malformed WAL insert payload: trailing bytes")
    return items


def _encode_remove_payload(keys: Sequence[bytes]) -> bytes:
    """Length-prefixed keys of one remove record."""
    parts = [struct.pack(">I", len(keys))]
    for key in keys:
        parts.append(struct.pack(">H", len(key)))
        parts.append(key)
    return b"".join(parts)


def _decode_remove_payload(payload: bytes) -> List[bytes]:
    """Inverse of :func:`_encode_remove_payload`; raises on malformed data."""
    try:
        (count,) = struct.unpack_from(">I", payload, 0)
        offset = 4
        keys: List[bytes] = []
        for _ in range(count):
            (key_length,) = struct.unpack_from(">H", payload, offset)
            offset += 2
            key = payload[offset : offset + key_length]
            if len(key) != key_length:
                raise ValueError("short key")
            offset += key_length
            keys.append(key)
        if offset != len(payload):
            raise ValueError("trailing bytes after last key")
        return keys
    except (struct.error, ValueError) as exc:
        raise StorageError(f"malformed WAL remove payload: {exc}") from None


class WALOverlay:
    """Write-ahead-log persistence layered over an in-memory store engine.

    A cooperative mixin: subclass as ``class Engine(WALOverlay, Core)``
    where ``Core`` is any :class:`~repro.store.base.SortedLeafStore` engine
    engine.  Every mutator validates its input against the current state,
    appends a checksummed WAL record, and only then delegates the in-memory
    mutation to ``Core``.  A batch goes through the two calls every engine's
    ``insert_batch`` is made of — ``_place_batch`` (validates, mutates
    nothing) → ``_merge_batch(batch, positions)`` — with the log append in
    between, and recovery replays snapshot + WAL through the same two, so the
    overlay never re-implements tree semantics and cannot drift from its core.
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        digest_size: int = DEFAULT_DIGEST_SIZE,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        sync: bool = False,
    ) -> None:
        """Open (and recover) the store persisted under ``directory``.

        ``directory=None`` creates a private temporary directory removed on
        :meth:`close`.  ``snapshot_every`` bounds WAL growth (0 disables
        automatic snapshots); ``sync=True`` fsyncs after every append and
        snapshot for real crash durability at a heavy per-write cost (the
        default relies on OS write-back, which is what the simulated stack
        and benchmarks want).
        """
        super().__init__(digest_size)
        if snapshot_every < 0:
            raise StorageError("snapshot_every cannot be negative")
        self._owns_directory = directory is None
        if directory is None:
            directory = tempfile.mkdtemp(prefix="ritm-durable-store-")
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._snapshot_every = snapshot_every
        self._sync = sync
        self._closed = False
        self._next_seq = 1
        #: Sequence number covered by the last snapshot written/loaded.
        self._snapshot_seq = 0
        #: Operational counters (benchmarks and tests read these).
        self.records_logged = 0
        self.records_replayed = 0
        self.snapshots_written = 0
        self.recovered_from_snapshot = False
        self._recover()
        self._wal = open(self._wal_path, "ab")
        if self._owns_directory:
            # Temp-backed stores must not litter /tmp when callers forget
            # close(): reclaim the directory at GC / interpreter exit too.
            self._directory_finalizer = weakref.finalize(
                self, shutil.rmtree, str(self._directory), True
            )
        else:
            self._directory_finalizer = None

    # -- paths and introspection -------------------------------------------

    @property
    def directory(self) -> Path:
        """The directory holding this store's WAL and snapshot."""
        return self._directory

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    @property
    def _wal_path(self) -> Path:
        return self._directory / WAL_FILENAME

    @property
    def _snapshot_path(self) -> Path:
        return self._directory / SNAPSHOT_FILENAME

    def wal_size_bytes(self) -> int:
        """Current size of the write-ahead log file."""
        try:
            return os.path.getsize(self._wal_path)
        except OSError:
            return 0

    def snapshot_size_bytes(self) -> int:
        """Current size of the snapshot file (0 when none exists)."""
        try:
            return os.path.getsize(self._snapshot_path)
        except OSError:
            return 0

    # -- mutation (validate → log → apply) ---------------------------------

    def insert(self, key: bytes, value: bytes) -> int:
        """Insert one leaf, durably: the WAL record precedes the mutation."""
        self._check_open()
        self._insertion_point(key)  # validate before anything hits the log
        self._append_record(_RECORD_INSERT, _encode_insert_payload([(key, value)]))
        index = super().insert(key, value)
        self._after_commit()
        return index

    def insert_batch(self, items: Iterable[Tuple[bytes, bytes]]) -> int:
        """Insert a batch durably: one WAL record per applied transaction."""
        self._check_open()
        batch, positions = self._place_batch(items)
        if not batch:
            return 0
        self._append_record(_RECORD_INSERT, _encode_insert_payload(batch))
        applied = self._merge_batch(batch, positions)
        self._after_commit()
        return applied

    def remove_batch(self, keys: Iterable[bytes]) -> int:
        """Remove a batch durably (the rollback path is logged too)."""
        self._check_open()
        targets = sorted(set(keys))
        if not targets:
            return 0
        for key in targets:
            if self._find(key) is None:
                raise ProofError(f"key {key.hex()} is not in the tree; cannot remove")
        self._append_record(_RECORD_REMOVE, _encode_remove_payload(targets))
        removed = super().remove_batch(targets)
        self._after_commit()
        return removed

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> Path:
        """Write a snapshot covering the whole applied history, reset the WAL.

        The snapshot is written to a temp file and atomically renamed into
        place before the WAL is truncated, so a crash at any point leaves
        either the old (snapshot, WAL) pair or the new snapshot plus a WAL
        whose records the snapshot already covers (replay skips them by
        sequence number).
        """
        self._check_open()
        covered_seq = self._next_seq - 1
        body = bytearray()
        body += SNAPSHOT_MAGIC
        body += _SNAPSHOT_HEADER.pack(
            SNAPSHOT_VERSION, self._digest_size, covered_seq, len(self._keys)
        )
        # (no per-dump count prefix: the header's leaf count serves as one)
        body += encode_leaf_pairs(list(zip(self._keys, self._values)))
        body += _RECORD_CRC.pack(zlib.crc32(bytes(body)))
        atomic_write(self._snapshot_path, bytes(body), sync=self._sync)
        self._snapshot_seq = covered_seq
        self.snapshots_written += 1
        # Reset the WAL: everything it held is now covered by the snapshot.
        self._wal.close()
        self._wal = open(self._wal_path, "wb")
        return self._snapshot_path

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Flush and close the WAL; temp-backed stores delete their files.

        After ``close()`` the in-memory tree keeps serving roots and proofs
        but every mutation raises :class:`StorageError`.  Closing twice is a
        no-op.
        """
        if self._closed:
            return
        self._closed = True
        self._wal.flush()
        if self._sync:
            os.fsync(self._wal.fileno())
        self._wal.close()
        if self._directory_finalizer is not None:
            self._directory_finalizer()  # idempotent rmtree of the temp dir

    # -- recovery -----------------------------------------------------------

    def _recover(self) -> None:
        """Load the snapshot (if any) and replay the WAL suffix."""
        if self._snapshot_path.exists():
            self._load_snapshot()
            self.recovered_from_snapshot = True
        last_seq, good_offset, torn = self._replay_wal()
        self._next_seq = max(last_seq, self._snapshot_seq) + 1
        if torn:
            # Discard the torn tail so the next append starts at a clean
            # record boundary instead of corrupting the log forever.
            with open(self._wal_path, "ab") as handle:
                handle.truncate(good_offset)

    def _load_snapshot(self) -> None:
        """Rebuild the leaf arrays and hash levels from the snapshot file."""
        data = self._snapshot_path.read_bytes()
        floor = len(SNAPSHOT_MAGIC) + _SNAPSHOT_HEADER.size + _RECORD_CRC.size
        if len(data) < floor or not data.startswith(SNAPSHOT_MAGIC):
            raise StorageError(f"{self._snapshot_path} is not a RITM snapshot")
        (stored_crc,) = _RECORD_CRC.unpack_from(data, len(data) - _RECORD_CRC.size)
        if zlib.crc32(data[: -_RECORD_CRC.size]) != stored_crc:
            raise StorageError(f"{self._snapshot_path} failed its checksum")
        version, digest_size, covered_seq, leaf_count = _SNAPSHOT_HEADER.unpack_from(
            data, len(SNAPSHOT_MAGIC)
        )
        if version != SNAPSHOT_VERSION:
            raise StorageError(
                f"{self._snapshot_path} has format version {version}; this "
                f"engine reads version {SNAPSHOT_VERSION}"
            )
        if digest_size != self._digest_size:
            raise StorageError(
                f"{self._snapshot_path} was written with digest_size "
                f"{digest_size}, store opened with {self._digest_size}"
            )
        items, end = decode_leaf_pairs(
            data, len(SNAPSHOT_MAGIC) + _SNAPSHOT_HEADER.size, leaf_count
        )
        if end != len(data) - _RECORD_CRC.size:
            raise StorageError(f"{self._snapshot_path} has trailing bytes")
        if items:
            self._replay_insert(items)
        self._snapshot_seq = covered_seq

    def _replay_wal(self) -> Tuple[int, int, bool]:
        """Apply every complete WAL record newer than the snapshot.

        Returns ``(last good sequence number, offset after the last good
        record, whether a torn tail was found)``.  A truncated or
        checksum-failing record ends replay — that is the crash-at-a-record
        contract — but a record that *decodes* and then contradicts the
        recovered state (e.g. removing an absent key) means the files do not
        belong together and raises :class:`StorageError`.
        """
        last_seq = self._snapshot_seq
        good_offset = 0
        torn = False
        try:
            data = self._wal_path.read_bytes()
        except OSError:
            return last_seq, good_offset, torn
        offset = 0
        while offset < len(data):
            if offset + _RECORD_HEADER.size > len(data):
                torn = True
                break
            seq, record_type, payload_length = _RECORD_HEADER.unpack_from(data, offset)
            end = offset + _RECORD_HEADER.size + payload_length + _RECORD_CRC.size
            if end > len(data):
                torn = True
                break
            payload = data[offset + _RECORD_HEADER.size : end - _RECORD_CRC.size]
            (stored_crc,) = _RECORD_CRC.unpack_from(data, end - _RECORD_CRC.size)
            if zlib.crc32(data[offset : end - _RECORD_CRC.size]) != stored_crc:
                torn = True
                break
            if seq > self._snapshot_seq:
                self._apply_replayed(record_type, payload)
                self.records_replayed += 1
                last_seq = seq
            offset = end
            good_offset = end
        return last_seq, good_offset, torn

    def _apply_replayed(self, record_type: int, payload: bytes) -> None:
        """Apply one decoded WAL record to the in-memory tree."""
        if record_type == _RECORD_INSERT:
            self._replay_insert(_decode_insert_payload(payload))
        elif record_type == _RECORD_REMOVE:
            keys = _decode_remove_payload(payload)
            for key in keys:
                if self._find(key) is None:
                    raise StorageError(
                        "WAL remove record names a key absent from the "
                        "recovered state; snapshot and WAL do not match"
                    )
            super().remove_batch(keys)
        else:
            raise StorageError(f"unknown WAL record type {record_type}")

    def _replay_insert(self, items: List[Tuple[bytes, bytes]]) -> None:
        """Insert replayed/snapshot leaves, re-validating against the state."""
        try:
            batch, positions = self._place_batch(items)
        except ProofError as exc:
            raise StorageError(
                f"WAL/snapshot leaves conflict with the recovered state: {exc}"
            ) from None
        if batch:
            self._merge_batch(batch, positions)

    # -- internals ----------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(
                f"durable store at {self._directory} is closed; no further "
                f"mutations are possible"
            )

    def _append_record(self, record_type: int, payload: bytes) -> None:
        """Append one checksummed record and make it durable-ish (flush)."""
        header = _RECORD_HEADER.pack(self._next_seq, record_type, len(payload))
        record = header + payload
        self._wal.write(record + _RECORD_CRC.pack(zlib.crc32(record)))
        self._wal.flush()
        if self._sync:
            os.fsync(self._wal.fileno())
        self._next_seq += 1
        self.records_logged += 1

    def _after_commit(self) -> None:
        """Auto-snapshot once enough records accumulated since the last one."""
        if not self._snapshot_every:
            return
        if (self._next_seq - 1) - self._snapshot_seq >= self._snapshot_every:
            self.snapshot()


class DurableMerkleStore(WALOverlay, IncrementalMerkleStore):
    """An incremental Merkle store persisted through a WAL plus snapshots."""

    engine_name = "durable"


class DurableCompactMerkleStore(WALOverlay, CompactMerkleStore):
    """The flat-buffer compact core persisted through a WAL plus snapshots.

    Same on-disk formats and recovery contract as :class:`DurableMerkleStore`
    (the two are interchangeable over one directory); the in-memory side uses
    the compact engine's byte arenas and level-vectorized hashing.
    """

    engine_name = "durable-compact"
