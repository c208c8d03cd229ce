"""Expiry-split dictionaries ("Ever-growing dictionaries", paper §VIII).

A single append-only dictionary can never shrink, so an RA would eventually
store revocations for certificates that expired long ago.  The paper's
proposed relaxation: a CA maintains several dictionaries at once, each
dedicated to certificates that expire before a given date.  Because the CA/B
Forum caps certificate lifetimes (39 months at the time of the paper), a
revocation only ever needs to live in the shard covering its certificate's
expiry; once a shard's entire expiry window is in the past, RAs can delete
the whole shard.

This module implements that scheme on top of the ordinary
:class:`~repro.dictionary.authdict.CADictionary` / ``ReplicaDictionary``
pair:

* :class:`ShardedCADictionary` — the CA side: routes each revocation to the
  shard covering the certificate's expiry time, refreshes every live shard
  each Δ, and retires shards whose window has passed;
* the RA side is the agent's shard registry
  (``RevocationAgent.register_shard_replica`` / ``prune_shard_replicas``):
  one ordinary replica per shard, pruned as shard windows pass — the
  storage reclamation the paper's §VIII is about.

Each shard is a fully independent authenticated dictionary (own signed root,
own freshness chain), so all the security arguments of the base construction
apply unchanged per shard.

Two invariants matter for the layers above (``ritm/``, ``scenarios/``,
``analysis/``):

* **the query path never mutates state** — proving a serial in a window no
  shard covers answers "absent" from a transient dictionary without
  registering a shard, so ``shard_count``/``storage_size_bytes`` are driven
  by revocations and retirement only;
* **reclaimed storage is accounted** — both sides expose
  ``reclaimed_storage_bytes`` so cost/overhead analyses can report what
  sharding saved over an ever-growing baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.crypto.signing import KeyPair
from repro.dictionary.authdict import CADictionary, RevocationIssuance
from repro.dictionary.proofs import RevocationStatus
from repro.errors import DictionaryError
from repro.pki.serial import SerialNumber

#: CA/B Forum maximum certificate lifetime at the time of the paper: 39 months.
MAX_CERTIFICATE_LIFETIME_SECONDS = 39 * 30 * 86_400
#: Default shard width: one calendar quarter of expiry dates per dictionary.
DEFAULT_SHARD_SECONDS = 90 * 86_400


def shard_name(ca_name: str, shard_index: int) -> str:
    """The per-shard dictionary name (doubles as its dissemination path key)."""
    return f"{shard_prefix(ca_name)}{shard_index}"


#: What separates the CA name from the shard index in a shard's name.
_SHARD_MARKER = "#expiry-"


def shard_prefix(ca_name: str) -> str:
    """The common prefix of all of ``ca_name``'s shard names."""
    return f"{ca_name}{_SHARD_MARKER}"


def shard_issuer(dictionary_name: str) -> str:
    """The CA a shard dictionary name belongs to (any other name: itself)."""
    return dictionary_name.partition(_SHARD_MARKER)[0]


@dataclass(frozen=True)
class ShardKey:
    """Identifies one expiry shard: every certificate expiring in
    ``[index * width, (index + 1) * width)`` lands in this shard."""

    index: int
    width_seconds: int

    @property
    def window_start(self) -> int:
        """First expiry timestamp (inclusive) covered by this shard."""
        return self.index * self.width_seconds

    @property
    def window_end(self) -> int:
        """First expiry timestamp *not* covered by this shard."""
        return (self.index + 1) * self.width_seconds

    def is_expired(self, now: float) -> bool:
        """The whole shard is obsolete once every certificate in it has expired."""
        return now >= self.window_end

    @classmethod
    def for_expiry(cls, expiry: int, width_seconds: int = DEFAULT_SHARD_SECONDS) -> "ShardKey":
        """The shard key covering a certificate expiring at ``expiry``."""
        if width_seconds <= 0:
            raise DictionaryError(
                f"shard width must be a positive number of seconds, got {width_seconds}"
            )
        if expiry < 0:
            raise DictionaryError("certificate expiry cannot be negative")
        return cls(index=expiry // width_seconds, width_seconds=width_seconds)


class ShardedCADictionary:
    """The CA side of expiry-split dictionaries."""

    def __init__(
        self,
        ca_name: str,
        keys: KeyPair,
        delta: int,
        chain_length: int = 1024,
        shard_seconds: int = DEFAULT_SHARD_SECONDS,
        digest_size: int = 20,
        engine: Optional[str] = None,
    ) -> None:
        """Create an empty sharded dictionary for ``ca_name``.

        ``shard_seconds`` is the expiry-window width of each shard; every
        other parameter is passed through to the per-shard
        :class:`~repro.dictionary.authdict.CADictionary` instances.
        """
        if shard_seconds <= 0:
            raise DictionaryError(
                f"shard width must be a positive number of seconds, got {shard_seconds}"
            )
        self.ca_name = ca_name
        #: The key pair *new* shards sign with.  The owner replaces it on key
        #: rotation (existing shards are re-signed through their own
        #: ``CADictionary.rotate_keys``).
        self.keys = keys
        self.delta = delta
        self.chain_length = chain_length
        self.shard_seconds = shard_seconds
        self._digest_size = digest_size
        self._engine = engine
        self._shards: Dict[int, CADictionary] = {}
        self._retired: List[int] = []
        #: Bytes of per-entry storage released by :meth:`retire_expired`.
        self.reclaimed_storage_bytes = 0
        #: Revocation entries dropped with their retired shards.
        self.retired_revocations = 0

    # -- shard management -------------------------------------------------------

    def _new_shard(self, shard_index: int, chain_length: Optional[int] = None) -> CADictionary:
        """A fresh (empty, unregistered) dictionary for ``shard_index``."""
        return CADictionary(
            ca_name=shard_name(self.ca_name, shard_index),
            keys=self.keys,
            delta=self.delta,
            chain_length=chain_length if chain_length is not None else self.chain_length,
            digest_size=self._digest_size,
            engine=self._engine,
        )

    def shard_at(self, shard_index: int) -> Optional[CADictionary]:
        """The retained shard with ``shard_index``, or ``None`` (no creation)."""
        return self._shards.get(shard_index)

    def shard_keys(self) -> List[ShardKey]:
        """Keys of all retained shards, in window order."""
        return [ShardKey(index, self.shard_seconds) for index in sorted(self._shards)]

    def live_shards(self, now: float) -> List[Tuple[ShardKey, CADictionary]]:
        """Shards still covering unexpired certificates."""
        return [
            (key, self._shards[key.index])
            for key in self.shard_keys()
            if not key.is_expired(now)
        ]

    def live_shard_indices(self, now: float) -> List[int]:
        """Indices of the shards still covering unexpired certificates."""
        return [key.index for key, _ in self.live_shards(now)]

    def retire_expired(self, now: float) -> List[ShardKey]:
        """Drop shards whose entire expiry window has passed; returns them.

        The per-entry storage of each dropped shard is added to
        :attr:`reclaimed_storage_bytes` — the quantity §VIII's relaxation is
        about.
        """
        retired = [key for key in self.shard_keys() if key.is_expired(now)]
        for key in retired:
            shard = self._shards[key.index]
            self.reclaimed_storage_bytes += shard.storage_size_bytes()
            self.retired_revocations += shard.size
            shard.close()  # release the retired shard's store (durable engines)
            del self._shards[key.index]
            self._retired.append(key.index)
        return retired

    def close(self) -> None:
        """Close every retained shard's backing store."""
        for shard in self._shards.values():
            shard.close()

    @property
    def shard_count(self) -> int:
        """Number of retained (non-retired) shards."""
        return len(self._shards)

    @property
    def retired_count(self) -> int:
        """Number of shards dropped by :meth:`retire_expired` so far."""
        return len(self._retired)

    def retired_indices(self) -> List[int]:
        """Indices of every shard retired so far, oldest first."""
        return list(self._retired)

    def total_revocations(self) -> int:
        """Revocation entries across all retained shards."""
        return sum(shard.size for shard in self._shards.values())

    # -- CA operations ---------------------------------------------------------------

    def validate_expiries(
        self, serials_with_expiry: Iterable[Tuple[SerialNumber, int]], now: int
    ) -> List[Tuple[SerialNumber, ShardKey]]:
        """Check every (serial, expiry) pair without touching any state.

        Rejects negative expiries, expiries beyond the CA/B Forum lifetime
        cap (``now`` + 39 months — no real certificate can expire there, so
        such a revocation would create a shard that never retires), and
        expiries whose whole shard window has already passed (the shard
        would be born retired: never listed live, never replicated by any
        RA, breaking the CA/RA lockstep-reclamation invariant), and serials
        already present (or repeated) in their target shard — so a rejected
        batch never leaves partially mutated shards behind.  The same
        serial value in *different* shards stays legal: shards are
        independent dictionaries.  Returns each serial with its resolved
        shard key.  Callers with side effects of their own (e.g. the RITM
        CA service, which records revocations in the issuance CA first) run
        this before mutating anything.
        """
        horizon = int(now) + MAX_CERTIFICATE_LIFETIME_SECONDS
        routed: List[Tuple[SerialNumber, ShardKey]] = []
        batch_seen: Dict[int, set] = {}
        for serial, expiry in serials_with_expiry:
            if expiry > horizon:
                raise DictionaryError(
                    f"certificate expiry {expiry} exceeds the maximum lifetime "
                    f"({MAX_CERTIFICATE_LIFETIME_SECONDS}s past now={int(now)})"
                )
            key = ShardKey.for_expiry(expiry, self.shard_seconds)
            if key.is_expired(now):
                raise DictionaryError(
                    f"certificate expiry {expiry} falls in shard {key.index}, "
                    f"whose whole window passed before now={int(now)}"
                )
            seen = batch_seen.setdefault(key.index, set())
            shard = self._shards.get(key.index)
            if serial.value in seen or (shard is not None and shard.contains(serial)):
                raise DictionaryError(
                    f"serial {serial} is already revoked in shard {key.index} "
                    f"of {self.ca_name!r}"
                )
            seen.add(serial.value)
            routed.append((serial, key))
        return routed

    def revoke(
        self,
        serials_with_expiry: Iterable[Tuple[SerialNumber, int]],
        now: int,
        routed: Optional[List[Tuple[SerialNumber, ShardKey]]] = None,
    ) -> List[Tuple[ShardKey, RevocationIssuance]]:
        """Revoke certificates, routing each serial to its expiry shard.

        Returns one issuance message per touched shard (batched per shard,
        as the base dictionary's ``insert`` supports).  The whole batch is
        validated (:meth:`validate_expiries`) before any shard is created,
        so a rejected batch leaves ``shard_count`` untouched; a caller that
        already ran :meth:`validate_expiries` (to order side effects of its
        own before this one) passes its result as ``routed`` to skip the
        second pass.
        """
        if routed is None:
            routed = self.validate_expiries(serials_with_expiry, now)
        by_shard: Dict[int, List[SerialNumber]] = {}
        keys: Dict[int, ShardKey] = {}
        for serial, key in routed:
            by_shard.setdefault(key.index, []).append(serial)
            keys[key.index] = key
        issuances: List[Tuple[ShardKey, RevocationIssuance]] = []
        for index, serials in sorted(by_shard.items()):
            if index not in self._shards:
                self._shards[index] = self._new_shard(index)
            issuances.append((keys[index], self._shards[index].insert(serials, now)))
        return issuances

    def cover(
        self, expiries: Iterable[int], now: int
    ) -> List[Tuple[ShardKey, CADictionary]]:
        """Open an empty, signed shard for every live window in ``expiries``
        that has none yet; returns the shards created.

        A certificate in a window nobody was ever revoked in must still be
        provably *not* revoked, so a CA covers the windows of its
        outstanding certificates ahead of their first revocation.  Windows
        already passed are skipped; one beyond the CA/B Forum lifetime cap
        is rejected, as in :meth:`validate_expiries` (it would never retire).
        """
        horizon = int(now) + MAX_CERTIFICATE_LIFETIME_SECONDS
        opened: List[Tuple[ShardKey, CADictionary]] = []
        for expiry in expiries:
            if expiry > horizon:
                raise DictionaryError(
                    f"certificate expiry {expiry} exceeds the maximum lifetime "
                    f"({MAX_CERTIFICATE_LIFETIME_SECONDS}s past now={int(now)})"
                )
            key = ShardKey.for_expiry(expiry, self.shard_seconds)
            if key.is_expired(now) or key.index in self._shards:
                continue
            shard = self._shards[key.index] = self._new_shard(key.index)
            shard.refresh(int(now))
            opened.append((key, shard))
        return opened

    def refresh_all(self, now: int) -> Dict[int, object]:
        """Refresh every live shard (freshness statement or re-signed root)."""
        return {
            key.index: shard.refresh(now) for key, shard in self.live_shards(now)
        }

    def prove(self, serial: SerialNumber, expiry: int, now: Optional[int] = None) -> RevocationStatus:
        """Status for ``serial`` from the shard covering its certificate's expiry.

        Querying a window no shard covers answers "absent" from a transient
        empty dictionary — the read path never creates or retains shards, so
        ``shard_count`` and ``storage_size_bytes`` are unaffected by queries.
        Minting the absence proof (for a transient or not-yet-signed shard)
        signs a root, which needs a real timestamp: ``now`` is required in
        that case and must never default to epoch 0, which would make every
        later freshness check see thousands of elapsed Δ periods.
        """
        key = ShardKey.for_expiry(expiry, self.shard_seconds)
        shard = self._shards.get(key.index)
        if shard is None:
            # Transient, never registered — and never refreshed past its
            # first link, so a length-1 hash chain avoids paying
            # O(chain_length) hashing per uncovered-window query.
            shard = self._new_shard(key.index, chain_length=1)
        if shard.signed_root is None:
            if now is None:
                raise DictionaryError(
                    f"shard {key.index} of {self.ca_name!r} has no signed root yet; "
                    f"prove() needs a real timestamp (now=...) to mint one"
                )
            shard.refresh(int(now))
        return shard.prove(serial)

    def storage_size_bytes(self) -> int:
        """Per-entry storage across all retained shards."""
        return sum(shard.storage_size_bytes() for shard in self._shards.values())
