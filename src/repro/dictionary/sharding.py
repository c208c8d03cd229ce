"""Expiry-split dictionaries ("Ever-growing dictionaries", paper §VIII).

A single append-only dictionary can never shrink, so an RA would eventually
store revocations for certificates that expired long ago.  The paper's
proposed relaxation: a CA maintains several dictionaries at once, each
dedicated to certificates that expire before a given date.  Because the CA/B
Forum caps certificate lifetimes (39 months at the time of the paper), a
revocation only ever needs to live in the shard covering its certificate's
expiry; once a shard's entire expiry window is in the past, RAs can delete
the whole shard.

This module holds only what both sides of that scheme share: the window
arithmetic (:class:`ShardKey`), the naming of a shard's dictionary
(:func:`shard_name` / :func:`shard_prefix` / :func:`shard_issuer`), the
lifetime cap and the default window width.  Each side keeps its shards in
the map it already has:

* the CA side is ``RITMCertificationAuthority.streams``
  (:mod:`repro.ritm.ca_service`) — one ordinary
  :class:`~repro.dictionary.authdict.CADictionary` stream per open window,
  routed to by expiry, refreshed every Δ while live, retired (storage
  accounted in ``reclaimed_storage_bytes``) once its window passes; an
  unsharded CA is the one-stream case;
* the RA side is the agent's shard registry
  (``RevocationAgent.register_shard_replica`` / ``prune_shard_replicas``):
  one ordinary replica per shard, pruned as shard windows pass — the
  storage reclamation the paper's §VIII is about.

Each shard is a fully independent authenticated dictionary (own signed root,
own freshness chain), so all the security arguments of the base construction
apply unchanged per shard.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DictionaryError

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
