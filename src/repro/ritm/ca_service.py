"""The RITM-enabled certification authority.

Wraps a :class:`~repro.pki.ca.CertificationAuthority` (issuance half) with
the RITM half: the CA's master authenticated dictionaries, the Δ-periodic
refresh duty, and publication of dissemination objects to the CDN.

Everything the CA publishes about one dictionary forms a **stream**
(:class:`DictionaryStream`), laid out under the dictionary's name:

* ``/ritm/<name>/head``          — the small polling object: size, signed
  root, latest freshness statement (pulled by every RA every Δ);
* ``/ritm/<name>/issuance/<k>``  — the k-th revocation batch (pulled only by
  RAs that detect they are behind);
* ``/ritm/<name>/segment/<k>``   — the same batch as a signed WAL segment
  (docs/REPLICATION.md).

An unsharded CA owns exactly one stream, named after the CA.  With
``RITMConfig.sharded`` (§VIII "Ever-growing dictionaries") it owns one
stream per live expiry window, named ``shard_name(ca, index)``, and every
operation — revoke, refresh, key rotation — routes to the streams it
touches and runs the same publish routine on each.  Per CA (not per
stream) there are three more objects:

* ``/ritm/<ca>/manifest``      — the bootstrap manifest of §VIII
  ("/RITM.json"): where the dictionary lives and which Δ the CA uses;
* ``/ritm/<ca>/keys``          — the key-rotation announcement chain;
* ``/ritm/<ca>/shards``        — sharded CAs only: the index of live and
  recently retired windows, from which RAs discover new streams and learn
  which replicas to delete.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cdn.network import CDNNetwork
from repro.crypto.signing import CAKeyring, KeyPair
from repro.dictionary.authdict import CADictionary, RevocationIssuance
from repro.dictionary.proofs import RevocationStatus
from repro.dictionary.sharding import (
    MAX_CERTIFICATE_LIFETIME_SECONDS,
    ShardKey,
    shard_name,
)
from repro.dictionary.signed_root import SignedRoot
from repro.dictionary.sync import SyncServer
from repro.errors import DictionaryError
from repro.pki.ca import CertificationAuthority
from repro.pki.serial import SerialNumber
from repro.ritm.config import RITMConfig
from repro.ritm.messages import (
    MAX_ISSUANCE_SERIALS,
    DictionaryHead,
    KeyAnnouncement,
    ShardIndex,
    encode_head,
    encode_issuance,
    encode_key_announcements,
    encode_shard_index,
)
from repro.ritm.replication import build_segment, encode_segment, segment_path


def head_path(ca_name: str) -> str:
    return f"/ritm/{ca_name}/head"


def issuance_path(ca_name: str, batch_number: int) -> str:
    return f"/ritm/{ca_name}/issuance/{batch_number}"


def manifest_path(ca_name: str) -> str:
    return f"/ritm/{ca_name}/manifest"


def shard_index_path(ca_name: str) -> str:
    """CDN path of the shard discovery object (sharded mode only)."""
    return f"/ritm/{ca_name}/shards"


def keys_path(ca_name: str) -> str:
    """CDN path of the CA's key-rotation announcement chain."""
    return f"/ritm/{ca_name}/keys"


@dataclass
class PublicationStats:
    """Bytes and object counts the CA has pushed to the distribution point."""

    heads_published: int = 0
    issuances_published: int = 0
    bytes_uploaded: int = 0
    #: WAL segments appended across every stream (retired ones included).
    segments_published: int = 0
    segment_bytes_published: int = 0


@dataclass
class DictionaryStream:
    """One master dictionary and everything the CA publishes about it."""

    dictionary: CADictionary
    #: Desync-recovery endpoint serving this dictionary's full history.
    sync_server: SyncServer
    #: Issuance batches (and segments) published so far.
    batches: int = 0
    #: Head publications so far, stamped into each head so a replayed copy
    #: of an earlier one is detectably behind.
    sequence: int = 0
    #: The expiry window this stream covers (``None`` = every expiry).
    window: Optional[ShardKey] = None

    @property
    def name(self) -> str:
        """The dictionary's name: every object of the stream lives under it."""
        return self.dictionary.ca_name

    def covers(self, now: float) -> bool:
        """Whether a certificate this stream covers can still be unexpired."""
        return self.window is None or not self.window.is_expired(now)


class RITMCertificationAuthority:
    """A CA participating in RITM: dictionary owner and CDN publisher."""

    def __init__(
        self,
        authority: CertificationAuthority,
        config: Optional[RITMConfig] = None,
        cdn: Optional[CDNNetwork] = None,
    ) -> None:
        self.authority = authority
        self.config = config if config is not None else RITMConfig()
        self.cdn = cdn
        self.publication_stats = PublicationStats()
        self._batch_counter = 0
        # Dictionary-signing keys start as the authority's long-term keys
        # (epoch 0, the out-of-band trust anchor) and rotate on the
        # configured schedule; retired pairs are retained so the attack
        # scenarios can forge with them.
        self._signing_keys: KeyPair = self._keys_of(authority)
        self._retired_signing_keys: List[KeyPair] = []
        self._keyring = CAKeyring.single(self._signing_keys.public)
        genesis = KeyAnnouncement(
            ca_name=authority.name,
            key_epoch=0,
            public_key_bytes=self._signing_keys.public.key_bytes,
            activated_at=0,
            overlap_seconds=0,
        )
        self._announcements: List[KeyAnnouncement] = [
            replace(genesis, signature=self._signing_keys.sign(genesis.payload()))
        ]
        self._index_sequence = 0
        self._refresh_count = 0
        #: Live streams by dictionary name, in creation order: the one map
        #: from which this CA reaches its dictionaries.  Unsharded, one stream
        #: named after the CA (``window=None``); sharded, one per open expiry
        #: window.
        self.streams: Dict[str, DictionaryStream] = {}
        #: Indices of every expiry window retired so far, oldest first.
        self.retired_windows: List[int] = []
        #: Bytes of per-entry storage released by :meth:`retire_expired`.
        self.reclaimed_storage_bytes = 0
        if not self.config.sharded:
            self._open_stream(self._new_dictionary(self.name))
        # An unsharded CA's one stream, under the names it always had.
        own = self.streams.get(self.name)
        self.dictionary = own.dictionary if own else None
        self.sync_server = own.sync_server if own else None

    @staticmethod
    def _keys_of(authority: CertificationAuthority):
        # The issuance CA object keeps its key pair private by convention; the
        # RITM service is part of the same trust domain and reuses it.
        return authority._keys  # noqa: SLF001 - intentional same-trust-domain access

    # -- identity -----------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.authority.name

    @property
    def public_key(self):
        """The *genesis* verification key — RAs' out-of-band trust anchor.

        This is deliberately the epoch-0 key even after rotations: RAs are
        configured with it once and extend trust to later keys through the
        signed announcement chain, never through reconfiguration.
        """
        return self.authority.public_key

    @property
    def signing_public_key(self):
        """The currently-active dictionary-signing key (rotates)."""
        return self._signing_keys.public

    @property
    def keyring(self) -> CAKeyring:
        """The CA's own time-scoped keyring across every rotation so far."""
        return self._keyring

    @property
    def key_epoch(self) -> int:
        """How many rotations have happened (0 = still on the genesis key)."""
        return len(self._announcements) - 1

    @property
    def sharded(self) -> bool:
        """Whether this CA runs expiry-split dictionaries (§VIII)."""
        return self.config.sharded

    # -- bootstrap ------------------------------------------------------------------

    def bootstrap(self, now: float) -> Dict[str, SignedRoot]:
        """Sign every stream's initial (possibly empty) dictionary and publish.

        A sharded CA starts with no stream — windows open with their first
        revocation or :meth:`cover` — so it publishes only the manifest and
        an empty shard index.  Returns the signed roots by stream name.
        """
        roots = {
            name: stream.dictionary.refresh(int(now))
            for name, stream in self.streams.items()
        }
        self._publish_manifest(now)
        for stream in self.streams.values():
            self._publish_head(stream, now)
        self._publish_shard_index(now)
        return roots

    # -- revocation -----------------------------------------------------------------

    def revoke(
        self, serials: Iterable[SerialNumber], now: float, reason: str = "unspecified"
    ) -> RevocationIssuance:
        """:meth:`revoke_with_expiry` with each expiry taken from the issuance
        CA's records; returns the *last* touched stream's issuance (all
        batches are published)."""
        pairs = []
        for serial in serials:
            certificate = self.authority.certificate_for(serial)
            pairs.append((serial, certificate.not_after if certificate else None))
        return self.revoke_with_expiry(pairs, now, reason=reason)[-1][1]

    def revoke_with_expiry(
        self,
        serials_with_expiry: Iterable[Tuple[SerialNumber, Optional[int]]],
        now: float,
        reason: str = "unspecified",
    ) -> List[Tuple[Optional[ShardKey], RevocationIssuance]]:
        """Revoke (serial, certificate expiry) pairs and publish per stream.

        Serials are routed to the stream covering their expiry (an unsharded
        CA's one stream covers every expiry, so it ignores them and its
        window key is ``None``); each touched stream gets one issuance
        batch, the matching WAL segment, and a refreshed head.  The shard
        index is republished when a new window opened, so RAs discover it
        on their next pull.
        """
        pairs = list(serials_with_expiry)
        if not 0 < len(pairs) <= MAX_ISSUANCE_SERIALS:
            raise DictionaryError(
                f"a revocation batch needs at least one serial and at most "
                f"{MAX_ISSUANCE_SERIALS} (one issuance object), got {len(pairs)}"
            )
        streams_before = len(self.streams)
        issuances = self._insert_routed(pairs, int(now), reason)
        for _, issuance in issuances:
            self._publish_batch(self.streams[issuance.ca_name], issuance, now)
        if len(self.streams) != streams_before:
            self._publish_shard_index(now)
        return issuances

    def _insert_routed(
        self, pairs: List[Tuple[SerialNumber, Optional[int]]], now: int, reason: str
    ) -> List[Tuple[Optional[ShardKey], RevocationIssuance]]:
        """Record a batch at the issuance CA and insert it where it routes."""
        serials = [serial for serial, _ in pairs]
        # Validate the whole batch — duplicate serials, then (sharded)
        # expiries — before the issuance CA records anything or a window
        # opens, so a rejected batch leaves both halves untouched and
        # retryable.
        seen = set()
        for serial in serials:
            if serial.value in seen or self.authority.is_revoked(serial):
                raise DictionaryError(
                    f"serial {serial} is already revoked by {self.name!r}"
                )
            seen.add(serial.value)
        if not self.sharded:
            self.authority.revoke_many(serials, now=now, reason=reason)
            return [(None, self.dictionary.insert(serials, now))]
        for serial, expiry in pairs:
            if expiry is None:
                raise DictionaryError(
                    f"sharded CA {self.name!r} cannot derive an expiry for "
                    f"serial {serial} (not issued here); use revoke_with_expiry"
                )
        routed: Dict[int, List[SerialNumber]] = {}
        for serial, expiry in pairs:
            key = self._window(expiry, now)
            if key.is_expired(now):
                # Born retired: never listed live, never replicated by any
                # RA — it would break the CA/RA lockstep reclamation.
                raise DictionaryError(
                    f"certificate expiry {expiry} falls in shard {key.index}, "
                    f"whose whole window passed before now={now}"
                )
            routed.setdefault(key.index, []).append(serial)
        self.authority.revoke_many(serials, now=now, reason=reason)
        issuances = []
        for index in sorted(routed):
            key = ShardKey(index, self.config.shard_width_seconds)
            name = shard_name(self.name, index)
            stream = self.streams.get(name) or self._open_stream(
                self._new_dictionary(name), key
            )
            issuances.append((key, stream.dictionary.insert(routed[index], now)))
        return issuances

    def cover(self, expiries: Iterable[int], now: float) -> int:
        """Open (and publish) an empty, signed stream for every live expiry
        window in ``expiries`` lacking one.  Returns the number opened:
        always 0 for an unsharded CA, whose one stream covers every expiry.

        A certificate in a window nobody was ever revoked in must still be
        provably *not* revoked, so a CA covers the windows of its
        outstanding certificates ahead of their first revocation.  Windows
        already passed are skipped; one past the CA/B Forum lifetime cap is
        rejected before any window opens, as on revocation.
        """
        if not self.sharded:
            return 0
        windows = [self._window(expiry, int(now)) for expiry in expiries]
        opened = 0
        for key in windows:
            name = shard_name(self.name, key.index)
            if key.is_expired(now) or name in self.streams:
                continue
            stream = self._open_stream(self._new_dictionary(name), key)
            stream.dictionary.refresh(int(now))
            self._publish_head(stream, now)
            opened += 1
        if opened:
            self._publish_shard_index(now)
        return opened

    # -- periodic duty -------------------------------------------------------------------

    def refresh(self, now: float) -> Dict[str, object]:
        """The CA's every-Δ duty: a freshness statement (or a re-signed root)
        for every live stream, by stream name.

        On the configured schedule the refresh is a key rotation instead,
        and every :attr:`RITMConfig.prune_every_periods` refreshes streams
        whose expiry window has fully passed are retired (dropping their
        storage) and the shard index republished.
        """
        self._refresh_count += 1
        rotation = self.config.key_rotation_periods
        if rotation and self._refresh_count % rotation == 0:
            results = self.rotate_keys(now)
        else:
            results = {
                stream.name: stream.dictionary.refresh(int(now))
                for stream in self.live_streams(now)
            }
        for name in results:
            self._publish_head(self.streams[name], now)
        if self._refresh_count % self.config.prune_every_periods == 0:
            if self.retire_expired(now):
                self._publish_shard_index(now)
        return results

    def rotate_keys(self, now: float) -> Dict[str, SignedRoot]:
        """Retire the active dictionary-signing key and enroll a fresh one.

        The new key is announced in a :class:`KeyAnnouncement` signed by the
        *outgoing* key (extending the chain RAs validate from the genesis
        anchor), every live stream's current content is immediately
        re-signed under the new key, and the announcement chain is
        republished (the caller republishes the heads).  The outgoing key
        keeps verifying for :attr:`RITMConfig.key_overlap_seconds`.
        Returns the re-signed roots by stream name.
        """
        epoch = len(self._announcements)
        new_keys = KeyPair.generate(
            rng_seed=f"{self.name}:key-epoch-{epoch}".encode("utf-8")
        )
        announcement = KeyAnnouncement(
            ca_name=self.name,
            key_epoch=epoch,
            public_key_bytes=new_keys.public.key_bytes,
            activated_at=int(now),
            overlap_seconds=self.config.key_overlap_seconds,
        )
        announcement = replace(
            announcement, signature=self._signing_keys.sign(announcement.payload())
        )
        self._announcements.append(announcement)
        self._retired_signing_keys.append(self._signing_keys)
        self._signing_keys = new_keys
        self._keyring.add_key(
            new_keys.public,
            activated_at=int(now),
            overlap_seconds=self.config.key_overlap_seconds,
        )
        roots = {
            stream.name: stream.dictionary.rotate_keys(new_keys, int(now))
            for stream in self.live_streams(now)
        }
        self._publish_key_announcements(now)
        return roots

    def retire_expired(self, now: float) -> List[ShardKey]:
        """Drop streams whose expiry window has passed, oldest window first;
        returns their windows.

        Each dropped stream's per-entry storage is added to
        :attr:`reclaimed_storage_bytes` — the quantity §VIII's relaxation is
        about — and its store is closed (durable engines release their log).
        """
        retired = sorted(
            (stream for stream in self.streams.values() if not stream.covers(now)),
            key=lambda stream: stream.window.index,
        )
        for stream in retired:
            self.reclaimed_storage_bytes += stream.dictionary.storage_size_bytes()
            stream.dictionary.close()
            del self.streams[stream.name]
            self.retired_windows.append(stream.window.index)
        return [stream.window for stream in retired]

    # -- views -----------------------------------------------------------------------------

    def head(self, stream_name: Optional[str] = None) -> DictionaryHead:
        """The polling object of one stream (default: the CA's own name)."""
        stream = self.streams.get(stream_name or self.name)
        if (
            stream is None
            or stream.dictionary.signed_root is None
            or stream.dictionary.latest_freshness is None
        ):
            raise DictionaryError(
                f"CA {self.name!r} has no published dictionary "
                f"{stream_name or self.name!r} (not bootstrapped, or a shard "
                f"that was never opened)"
            )
        return DictionaryHead(
            ca_name=stream.name,
            size=stream.dictionary.size,
            signed_root=stream.dictionary.signed_root,
            freshness=stream.dictionary.latest_freshness,
            sequence=stream.sequence,
        )

    #: Most recent retired shard indices carried in the published index; the
    #: wire object must stay O(live shards), not grow with the CA's history.
    RETIRED_INDICES_PUBLISHED = 16

    def shard_index(self, now: float) -> ShardIndex:
        """The shard discovery object: live and recently retired indices."""
        return ShardIndex(
            ca_name=self.name,
            width_seconds=self.config.shard_width_seconds,
            live=tuple(
                sorted(stream.window.index for stream in self.live_streams(now))
            ),
            retired=tuple(self.retired_windows[-self.RETIRED_INDICES_PUBLISHED:]),
            sequence=self._index_sequence,
        )

    def live_streams(self, now: float) -> List[DictionaryStream]:
        """Streams still owed a publication every Δ (window not yet passed)."""
        return [stream for stream in self.streams.values() if stream.covers(now)]

    def sync_server_for(self, stream_name: str) -> Optional[SyncServer]:
        """One stream's sync endpoint (``None`` for unknown or retired streams)."""
        stream = self.streams.get(stream_name)
        return stream.sync_server if stream is not None else None

    def prove_status(
        self, serial: SerialNumber, expiry: int, now: Optional[int] = None
    ) -> RevocationStatus:
        """Revocation status from the master copy of the stream covering
        ``expiry``.

        A window no stream covers answers "absent" from a transient
        dictionary that is never registered, so the read path leaves
        :attr:`streams` and storage untouched.  Minting its root signs,
        which needs a real timestamp: ``now`` is required then, and never
        defaults to epoch 0 (every later freshness check would see thousands
        of elapsed Δ periods).
        """
        stream = self.streams.get(self.config.dictionary_name(self.name, expiry))
        if stream is not None:
            return stream.dictionary.prove(serial)
        key = ShardKey.for_expiry(expiry, self.config.shard_width_seconds)
        if now is None:
            raise DictionaryError(
                f"shard {key.index} of {self.name!r} has no signed root yet; "
                f"prove() needs a real timestamp (now=...) to mint one"
            )
        # Never refreshed past its first link: a length-1 hash chain avoids
        # O(chain_length) hashing per uncovered-window query.
        transient = self._new_dictionary(
            shard_name(self.name, key.index), chain_length=1
        )
        transient.refresh(int(now))
        return transient.prove(serial)

    def total_revocations(self) -> int:
        """Entries across the master copies of every live stream."""
        return sum(stream.dictionary.size for stream in self.streams.values())

    def storage_size_bytes(self) -> int:
        """Per-entry storage across the master copies of every live stream."""
        return sum(
            stream.dictionary.storage_size_bytes() for stream in self.streams.values()
        )

    def issuance_count(self) -> int:
        """Issuance batches published so far, across every stream."""
        return self._batch_counter

    def close(self) -> None:
        """Close every live stream's backing store.

        Part of the store-lifecycle contract introduced with the durable
        engine (``docs/STORAGE.md``); in-memory engines treat it as a no-op.
        """
        for stream in self.streams.values():
            stream.dictionary.close()

    def manifest(self) -> dict:
        """The §VIII bootstrap manifest (would live at ``/RITM.json``)."""
        manifest = {
            "ca": self.name,
            "delta_seconds": self.config.delta_seconds,
            "head": head_path(self.name),
            "issuance_prefix": f"/ritm/{self.name}/issuance/",
        }
        if self.sharded:
            manifest["sharded"] = True
            manifest["shard_width_seconds"] = self.config.shard_width_seconds
            manifest["shard_index"] = shard_index_path(self.name)
        return manifest

    # -- internals ------------------------------------------------------------------------------

    def _new_dictionary(
        self, name: str, chain_length: Optional[int] = None
    ) -> CADictionary:
        """An empty dictionary named ``name``, signed with the current key."""
        return CADictionary(
            ca_name=name,
            keys=self._signing_keys,
            delta=self.config.delta_seconds,
            chain_length=chain_length or self.config.chain_length,
            digest_size=self.config.digest_size,
            engine=self.config.store_engine,
        )

    def _window(self, expiry: int, now: int) -> ShardKey:
        """The expiry window covering ``expiry``.

        An expiry past the CA/B Forum lifetime cap (``now`` + 39 months) is
        refused: no real certificate expires there, and its window would
        never retire.
        """
        if expiry > now + MAX_CERTIFICATE_LIFETIME_SECONDS:
            raise DictionaryError(
                f"certificate expiry {expiry} exceeds the maximum lifetime "
                f"({MAX_CERTIFICATE_LIFETIME_SECONDS}s past now={now})"
            )
        return ShardKey.for_expiry(expiry, self.config.shard_width_seconds)

    def _open_stream(
        self, dictionary: CADictionary, window: Optional[ShardKey] = None
    ) -> DictionaryStream:
        """Start publishing ``dictionary`` under its own name."""
        stream = DictionaryStream(
            dictionary=dictionary,
            sync_server=SyncServer(dictionary),
            window=window,
        )
        self.streams[stream.name] = stream
        return stream

    def _publish(self, path: str, content: bytes, now: float) -> None:
        self.cdn.publish(path, content, now, ttl_seconds=self.config.cdn_ttl_seconds)

    def _publish_batch(
        self, stream: DictionaryStream, issuance: RevocationIssuance, now: float
    ) -> None:
        """The one publish routine: issuance object, signed segment, head.

        Issuance objects and segments are numbered by the one batch
        counter, so an RA-side stream position means the same whichever
        object it was reached through.  The segment embeds the issuance
        object's bytes, which the batch keeps once encoded.
        """
        stream.sync_server.record_issuance(issuance)
        stream.batches += 1
        self._batch_counter += 1
        stats = self.publication_stats
        if self.cdn is not None:
            content = encode_issuance(issuance)
            self._publish(issuance_path(stream.name, stream.batches), content, now)
            stats.issuances_published += 1
            stats.bytes_uploaded += len(content)
        segment = encode_segment(
            build_segment(
                issuance,
                stream.dictionary.latest_freshness,
                stream.batches,
                self._signing_keys,
            )
        )
        stats.segments_published += 1
        stats.segment_bytes_published += len(segment)
        if self.cdn is not None:
            self._publish(segment_path(stream.name, stream.batches), segment, now)
        self._publish_head(stream, now)

    def _publish_head(self, stream: DictionaryStream, now: float) -> None:
        if self.cdn is None:
            return
        # The publication sequence advances exactly once per publish, so a
        # replayed copy of an earlier object is detectably behind.
        stream.sequence += 1
        content = encode_head(self.head(stream.name))
        self._publish(head_path(stream.name), content, now)
        self.publication_stats.heads_published += 1
        self.publication_stats.bytes_uploaded += len(content)

    def _publish_key_announcements(self, now: float) -> None:
        """Publish the full signed rotation chain at :func:`keys_path`."""
        if self.cdn is None:
            return
        content = encode_key_announcements(tuple(self._announcements))
        self._publish(keys_path(self.name), content, now)
        self.publication_stats.bytes_uploaded += len(content)

    def _publish_manifest(self, now: float) -> None:
        if self.cdn is None:
            return
        content = json.dumps(self.manifest()).encode("utf-8")
        self.cdn.publish(manifest_path(self.name), content, now, ttl_seconds=86_400.0)
        self.publication_stats.bytes_uploaded += len(content)

    def _publish_shard_index(self, now: float) -> None:
        """Publish the shard discovery object (sharded CAs only)."""
        if self.cdn is None or not self.sharded:
            return
        self._index_sequence += 1
        content = encode_shard_index(self.shard_index(now))
        self._publish(shard_index_path(self.name), content, now)
        self.publication_stats.bytes_uploaded += len(content)
