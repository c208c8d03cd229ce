"""Pluggable authenticated-dictionary storage engines.

This package is the seam between RITM's *semantics* (sorted-leaf Merkle
trees with presence/absence proofs, defined in :mod:`repro.crypto.merkle`)
and their *realisation*.  Every engine commits to exactly the same tree
shape — pair adjacent nodes, promote the odd node unchanged — so all
engines produce byte-identical roots and proofs for the same leaf set and
can be differentially tested against each other.

Five engines ship today (see ``docs/STORAGE.md`` for the full guide):

* :class:`NaiveMerkleStore` — the original full-rebuild tree.  Every
  mutation invalidates the hash levels; the next root or proof request
  rehashes all ``N`` leaves.  Kept as the differential-testing oracle.
* :class:`IncrementalMerkleStore` — maintains the hash levels across
  mutations.  Appends (keys sorting after every stored key) rehash only the
  ``O(log N)`` right-edge path; mid-tree inserts rehash only the dirty
  suffix of each level; batches are applied with one slice-spliced merge
  (or an in-place extend when they append) and a single suffix
  recomputation, one comprehension per level.
* :class:`CompactMerkleStore` — the web-scale flat-buffer engine: keys and
  values in contiguous byte arenas, one digest-strided ``bytearray`` per
  hash level, a dirty watermark deferring recomputation until the next
  read settles each level's suffix in one pass, and proofs served as slice
  reads.  ~47 B/leaf: the engine for dictionaries whose limit is memory.
* :class:`DurableMerkleStore` — the incremental engine plus crash-safe
  persistence via :class:`WALOverlay`: every mutation is appended to a
  checksummed write-ahead log before it is applied, periodic snapshots
  bound the log, and reopening the store's directory recovers
  byte-identical roots and proofs after a crash at any record boundary.
* :class:`DurableCompactMerkleStore` — the same WAL overlay composed over
  the compact core; directories interchange freely with ``durable``.

Engines with real I/O participate in an explicit lifecycle: call
:meth:`AuthenticatedStore.close` (or use the store as a context manager)
when done; in-memory engines treat it as a no-op.  An engine plugs in by
subclassing :class:`AuthenticatedStore` and registering in :data:`ENGINES`.
"""

from __future__ import annotations

from typing import Dict, Type

from repro.crypto.hashing import DEFAULT_DIGEST_SIZE
from repro.errors import ConfigurationError
from repro.store.base import AuthenticatedStore, LeafItemsView, LeafKeysView
from repro.store.compact import CompactMerkleStore
from repro.store.durable import DurableCompactMerkleStore, DurableMerkleStore
from repro.store.incremental import IncrementalMerkleStore
from repro.store.naive import NaiveMerkleStore

#: Engine used when callers do not choose one explicitly.
DEFAULT_ENGINE = "incremental"

#: Registry of available engines; new backends register here.
ENGINES: Dict[str, Type[AuthenticatedStore]] = {
    NaiveMerkleStore.engine_name: NaiveMerkleStore,
    IncrementalMerkleStore.engine_name: IncrementalMerkleStore,
    CompactMerkleStore.engine_name: CompactMerkleStore,
    DurableMerkleStore.engine_name: DurableMerkleStore,
    DurableCompactMerkleStore.engine_name: DurableCompactMerkleStore,
}


def create_store(
    engine: str | None = None,
    digest_size: int = DEFAULT_DIGEST_SIZE,
    **engine_options: object,
) -> AuthenticatedStore:
    """Instantiate the engine named ``engine`` (default :data:`DEFAULT_ENGINE`).

    ``engine_options`` are forwarded to the engine's constructor for
    engine-specific knobs — e.g. ``create_store("durable",
    directory="state/ca")`` pins the durable engine's persistence directory
    instead of using a per-instance temporary one.  Passing an option the
    chosen engine does not understand raises :class:`ConfigurationError`.
    """
    name = engine if engine is not None else DEFAULT_ENGINE
    try:
        engine_class = ENGINES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown store engine {name!r}; available engines: {sorted(ENGINES)}"
        ) from None
    try:
        return engine_class(digest_size=digest_size, **engine_options)
    except TypeError as exc:
        raise ConfigurationError(
            f"store engine {name!r} rejected options "
            f"{sorted(engine_options)}: {exc}"
        ) from None


__all__ = [
    "AuthenticatedStore",
    "LeafKeysView",
    "LeafItemsView",
    "NaiveMerkleStore",
    "IncrementalMerkleStore",
    "CompactMerkleStore",
    "DurableMerkleStore",
    "DurableCompactMerkleStore",
    "ENGINES",
    "DEFAULT_ENGINE",
    "create_store",
]
