"""RA-side dissemination: pulling dictionary updates from the CDN every Δ.

Implements the pull loop of §III/§VI: every Δ each RA issues an HTTP GET for
each CA's small *head* object from its closest edge server.  If the head
shows the replica is current, only the freshness statement is applied (the
common case whose cost dominates Fig. 7).  If the head's size is larger than
the replica's, the RA fetches the missing issuance batches (or falls back to
the sync protocol) and applies them.

Every replica the agent holds — a whole-CA dictionary or one expiry shard of
a sharded CA (§VIII, ``RITMConfig.sharded``) — goes through that same cycle
under its own name, tracked by one :class:`ReplicaFeed` record: head first,
then, if the head shows the replica behind, one catch-up walk from the
feed's position (fetching issuance objects, or WAL segments when
``segment_streaming`` is set — docs/REPLICATION.md), then freshness.  A
sharded CA adds only a step *before* it: the RA pulls the CA's small shard *index* object to
register replicas for newly opened shards, and every pruning period deletes
replicas of shards whose expiry window has passed — the storage reclamation
the §VIII relaxation is about.  The shard index itself is unauthenticated,
but it can only direct the RA *towards* shards: every shard's content is
still verified against that shard's CA-signed root, so a forged index can
cause wasted fetches, never a false revocation status.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Iterable, List, Optional

from repro.cdn.geography import GeoLocation, region_distance
from repro.cdn.network import CDNNetwork
from repro.crypto.signing import CAKeyring
from repro.dictionary.authdict import RevocationIssuance
from repro.dictionary.sharding import (
    MAX_CERTIFICATE_LIFETIME_SECONDS,
    ShardKey,
    shard_name,
)
from repro.dictionary.sync import SyncServer, resynchronize
from repro.errors import (
    CDNError,
    DictionaryError,
    ReplayError,
    SignatureError,
    TLSError,
)
from repro.ritm.agent import RevocationAgent
from repro.ritm.ca_service import (
    RITMCertificationAuthority,
    head_path,
    issuance_path,
    keys_path,
    shard_index_path,
)
from repro.ritm.messages import (
    decode_head,
    decode_issuance,
    decode_key_announcements,
    decode_shard_index,
    encode_sync_response,
)
from repro.ritm.persistence import load_checkpoint, write_checkpoint
from repro.ritm.replication import decode_segment, segment_path, verify_segment


@dataclass
class PullResult:
    """What one Δ-periodic pull cycle transferred and applied."""

    time: float
    bytes_downloaded: int = 0
    latency_seconds: float = 0.0
    heads_checked: int = 0
    freshness_applied: int = 0
    issuances_applied: int = 0
    serials_applied: int = 0
    resyncs: int = 0
    errors: List[str] = field(default_factory=list)
    #: Sharded-mode accounting (zero for unsharded CAs).
    shard_indexes_checked: int = 0
    shards_pruned: int = 0
    entries_pruned: int = 0
    bytes_reclaimed: int = 0
    #: Hot-path verification engine accounting (docs/PERFORMANCE.md):
    #: root-signature checks answered from the agent's verified-root cache
    #: during this cycle, full Ed25519 verifications actually performed
    #: (through ``crypto.signing.verify_batch``), and proof-cache
    #: entries evicted by this cycle's refreshes/resyncs/prunes.
    root_cache_hits: int = 0
    root_signatures_verified: int = 0
    proofs_invalidated: int = 0
    #: Adversarial control-plane accounting (docs/THREATS.md): heads/indexes
    #: skipped as benign CDN staleness (within the replay window), heads or
    #: freshness statements rejected as replays (beyond the window or older
    #: than already-applied authenticated state), and CA key rotations the
    #: RA learned and validated this cycle.
    stale_heads_ignored: int = 0
    replays_rejected: int = 0
    key_rotations_applied: int = 0
    #: Streaming-replication accounting (docs/REPLICATION.md): WAL segments
    #: verified and applied this cycle, the subset relayed by a peer rather
    #: than fetched CA-direct, raw segment bytes transferred, per-CA
    #: anti-entropy exchanges attempted against a peer, explicit
    #: degradations to the cold sync protocol, and segments rejected for
    #: failing structural or signature verification.
    segments_applied: int = 0
    segments_from_peer: int = 0
    segment_bytes_downloaded: int = 0
    peer_syncs: int = 0
    cold_sync_fallbacks: int = 0
    segments_rejected: int = 0


def total_pulls(history: Iterable[PullResult]) -> PullResult:
    """The field-wise total of ``history``: every counter summed in order,
    ``errors`` concatenated, ``time`` the last pull's."""
    total = PullResult(time=0.0)
    for pull in history:
        for spec in fields(PullResult):
            value = getattr(pull, spec.name)
            if spec.name != "time":
                value = getattr(total, spec.name) + value
            setattr(total, spec.name, value)
    return total


@dataclass
class ReplayWindow:
    """Replay window over one object's unauthenticated publication sequence."""

    #: Highest publication sequence observed (0 = none yet).
    cursor: int = 0
    #: Consecutive out-of-window rejections; lets a forged-high cursor
    #: self-heal instead of bricking the pull loop forever (docs/THREATS.md).
    stale: int = 0

    def skips(self, sequence: int, window: int, what: str, result: PullResult) -> bool:
        """Classify a publication sequence against the cursor.

        Returns ``True`` when the object should be *skipped* as benign CDN
        staleness (at most ``window`` publications behind the newest
        sequence this RA has seen).  Raises :class:`ReplayError` when it is
        further behind — a re-presented old object, the §V replay attack.
        Returns ``False`` when the object is current.

        Sequences are unauthenticated (a CDN cannot sign), so the cursor
        self-heals: after more than ``window`` *consecutive* rejections it
        resets, bounding how long a forged-high sequence can starve an RA
        of honest updates.  Safety never rests on this counter — replayed
        signed content is still rejected by hash-chain linkage and
        monotonic freshness age.
        """
        cursor = self.cursor
        behind = cursor - sequence
        if behind <= 0:
            self.stale = 0
            return False
        if behind <= window:
            result.stale_heads_ignored += 1
            return True
        self.stale += 1
        if self.stale > window:
            self.cursor = self.stale = 0
        result.replays_rejected += 1
        raise ReplayError(
            f"{what} re-presents publication sequence "
            f"{sequence}, {behind} behind the newest observed ({cursor}) — "
            f"outside the replay window of {window}"
        )


@dataclass
class ReplicaFeed:
    """Where one replica stands in its dictionary's stream (docs/REPLICATION.md)."""

    #: The highest batch whose content the replica holds.  The CA numbers a
    #: stream's issuance objects and WAL segments with one counter, so this
    #: is the position in both.
    position: int = 0
    #: Replay window over the stream's head publications.
    head: ReplayWindow = field(default_factory=ReplayWindow)
    #: Verified raw segments by number, retained so this RA can relay them
    #: to anti-entropy peers.
    segments: Dict[int, bytes] = field(default_factory=dict)
    #: The CA's direct sync endpoint, used when the batch objects cannot
    #: close the gap — the paper's desynchronization recovery.
    sync_server: Optional[SyncServer] = None


@dataclass
class ShardDiscovery:
    """How one sharded CA's live shard set is tracked."""

    #: Shard (stream) name → its sync endpoint.
    sync_server_for: Optional[Callable[[str], Optional[SyncServer]]] = None
    #: Pull cycles completed (drives the pruning cadence).
    pulls: int = 0
    #: Replay window over the shard index publications.
    index: ReplayWindow = field(default_factory=ReplayWindow)


class RADisseminationClient:
    """The piece of an RA that talks to the dissemination network."""

    def __init__(
        self, agent: RevocationAgent, cdn: CDNNetwork, location: GeoLocation
    ) -> None:
        self.agent = agent
        self.cdn = cdn
        self.location = location
        #: Replication state per replica, by dictionary name.
        self.feeds: Dict[str, ReplicaFeed] = {}
        #: Shard discovery state per sharded CA, by CA name.
        self.sharded: Dict[str, ShardDiscovery] = {}
        self.pull_history: List[PullResult] = []
        #: Which object the catch-up walk fetches per missing batch from the
        #: CDN: the compact issuance object (default), or the signed WAL
        #: segment — which the RA can then relay to peers.  Either way the
        #: replica ends byte-identical.
        self.segment_streaming = False

    def _feed(self, name: str) -> ReplicaFeed:
        """The feed record of replica ``name`` (created on first use)."""
        return self.feeds.setdefault(name, ReplicaFeed())

    def register_sync_server(self, ca_name: str, server: SyncServer) -> None:
        """Register the CA's direct sync endpoint for desync recovery."""
        self._feed(ca_name).sync_server = server

    # -- crash recovery (docs/STORAGE.md) ---------------------------------------

    def checkpoint(self, directory) -> int:
        """Persist the agent plus this client's stream positions and replay
        cursors, as one checkpoint file.

        The positions are what turn a warm restart into a *delta* fetch: the
        restored client resumes from the last batch it committed instead of
        re-walking (or re-downloading) the CA's whole batch history.
        Returns the number of replicas persisted.
        """
        checkpoint = self.agent.checkpoint_state()
        checkpoint.feeds = {
            name: (feed.position, feed.head.cursor) for name, feed in self.feeds.items()
        }
        checkpoint.discoveries = {
            name: (record.pulls, record.index.cursor)
            for name, record in self.sharded.items()
        }
        write_checkpoint(checkpoint, directory)
        return len(checkpoint.replicas)

    def restore(self, directory) -> int:
        """Warm-start the agent and this client from a checkpoint.

        Stream positions are restored only for dictionaries whose replica
        actually warm-started (holds a verified root): a position without
        its replica state would make the next pull skip batches the replica
        never applied.  Replay cursors are restored for every replica and
        sharded CA still registered; they are never *trusted* for anything
        but staleness filtering, so a doctored one costs at most a replay
        window of self-healing.  Returns the number of replicas restored.
        """
        checkpoint = load_checkpoint(directory)
        restored = self.agent.restore_state(checkpoint)
        for name, (position, cursor) in checkpoint.feeds.items():
            replica = self.agent.replicas.get(name)
            if replica is not None:
                feed = self._feed(name)
                feed.head.cursor = cursor
                if replica.signed_root is not None:
                    feed.position = position
        for name, (pulls, cursor) in checkpoint.discoveries.items():
            if name in self.sharded:
                self.sharded[name].pulls = pulls
                self.sharded[name].index.cursor = cursor
        return restored

    # -- streaming replication (docs/REPLICATION.md) -----------------------------

    def replication_cursor(self, ca_name: str) -> int:
        """The stream position of one replica (0 = nothing applied yet)."""
        feed = self.feeds.get(ca_name)
        return feed.position if feed is not None else 0

    def archived_segment(self, ca_name: str, number: int) -> Optional[bytes]:
        """Raw bytes of a verified, retained segment (``None`` if unknown).

        This is the anti-entropy serving side: peers relay exactly the
        bytes they verified, and every receiver re-verifies against its own
        trust anchor, so the archive never has to be trusted.  An RA that
        caught up through issuance objects holds the position but no
        segments, so it has nothing to offer.
        """
        feed = self.feeds.get(ca_name)
        return feed.segments.get(number) if feed is not None else None

    def sync_from_peer(self, peer: "RADisseminationClient", now: float) -> PullResult:
        """RA→RA anti-entropy: catch up from a peer's verified segment archive.

        The same cycle as :meth:`pull` — shard discovery, then every replica
        — except that the peer's position, not a head, says how far behind
        a replica is, and the catch-up walk asks the peer's archive for the
        missing segments.  Each one is re-verified against *this* RA's trust
        anchor before it touches the replica, so the peer can withhold
        progress but never forge it.  When the peer cannot supply a
        contiguous run up to its claimed position (archive gap, tampered
        relay, equivocation attempt), the CA's sync protocol is used as the
        **explicit** cold fallback and counted as such.  The latency model
        charges one inter-region round trip per relayed segment plus
        transfer time at this RA's downstream bandwidth.
        """
        result = PullResult(time=now)
        self._cycle(now, result, peer)
        self.pull_history.append(result)
        return result

    def register_sharded_ca(
        self,
        ca_name: str,
        public_key,
        width_seconds: int,
        sync_server_for: Optional[Callable[[str], Optional[SyncServer]]] = None,
    ) -> None:
        """Register a CA running expiry-split dictionaries (§VIII).

        The pull cycle will discover this CA's shards through its shard
        index object and replicate each live shard under its shard name,
        verifying with ``public_key`` (bare key or keyring);
        ``sync_server_for`` (shard name → :class:`SyncServer`) provides the
        per-shard desync-recovery endpoints.  ``width_seconds`` comes from
        deployment configuration (the same :class:`RITMConfig` both sides
        share), never from the unauthenticated index object — a published
        index advertising a different width is treated as malformed.
        """
        self.agent.register_sharded_ca(ca_name, width_seconds, public_key)
        self.sharded[ca_name] = ShardDiscovery(sync_server_for)

    # -- the Δ-periodic pull -------------------------------------------------------

    def pull(self, now: float, link=None) -> PullResult:
        """One pull cycle over every CA the RA replicates.

        ``link`` (a :class:`repro.net.Link`, optional) models the RA's
        uplink: when set, one request/response round trip sized by the
        cycle's actual head checks and downloaded bytes is added to the
        recorded latency.  ``None`` (the default) keeps the pre-fleet
        behaviour where latency is purely the CDN path model's.
        """
        result = PullResult(time=now)
        root_stats = self.agent.root_cache.stats
        proof_stats = self.agent.proof_cache.stats
        hits_before = root_stats.hits
        misses_before = root_stats.misses
        invalidations_before = proof_stats.invalidations
        self._cycle(now, result)
        result.root_cache_hits = root_stats.hits - hits_before
        result.root_signatures_verified = root_stats.misses - misses_before
        result.proofs_invalidated = proof_stats.invalidations - invalidations_before
        if link is not None:
            result.latency_seconds += link.round_trip_time(
                request_bytes=64 * max(1, result.heads_checked),
                response_bytes=result.bytes_downloaded,
            )
        self.pull_history.append(result)
        return result

    def _cycle(self, now: float, result: PullResult, peer=None) -> None:
        """Shard discovery, then every replica behind one error boundary."""
        for ca_name in self.sharded:
            self._refresh_shard_set(ca_name, now, result)
        for name, replica in list(self.agent.replicas.items()):
            try:
                self._pull_one(name, replica, now, result, peer)
            except (CDNError, DictionaryError, SignatureError, TLSError) as exc:
                # One dictionary's bad objects (or forged signatures) must
                # never abort the cycle for every other healthy one.
                result.errors.append(f"{name}: {exc}")

    def _refresh_shard_set(self, ca_name: str, now: float, result: PullResult) -> None:
        """Discovery and pruning for one sharded CA: which replicas to hold."""
        index = None
        try:
            index = self._discover_shards(ca_name, now, result)
        except (CDNError, DictionaryError, TLSError) as exc:
            result.errors.append(f"{ca_name}: {exc}")
        # Pruning depends only on the local clock, so it must not be
        # suppressible by a missing/forged index object: expired shard
        # replicas are reclaimed whether or not the index decoded.
        self._prune_sharded(ca_name, index, now, result)

    def _discover_shards(self, ca_name: str, now: float, result: PullResult):
        """Register a replica for every live shard the index lists; returns it."""
        discovery = self.sharded[ca_name]
        download = self.cdn.download(shard_index_path(ca_name), self.location, now)
        result.bytes_downloaded += download.bytes_on_wire
        result.latency_seconds += download.latency_seconds
        result.shard_indexes_checked += 1
        index = decode_shard_index(download.content)

        # The width registered at attach time (from deployment config) is
        # authoritative: the index is unauthenticated, so a forged width
        # must not re-map (or mass-expire) the agent's shard replicas.  A
        # mismatch is treated as a malformed object, like any other
        # undecodable index — checked before the replay window so a forged
        # index can never hide behind "benign staleness".
        width = self.agent.issuers[ca_name].shard_width
        if index.width_seconds != width:
            raise TLSError(
                f"shard index for {ca_name!r} advertises width "
                f"{index.width_seconds}s but the agent is configured with "
                f"{width}s"
            )
        if discovery.index.skips(
            index.sequence,
            self.agent.config.replay_window,
            f"shard index for {ca_name!r}",
            result,
        ):
            return index
        discovery.index.cursor = index.sequence
        plausible_end = now + MAX_CERTIFICATE_LIFETIME_SECONDS + width
        # Dedup before iterating: a forged index repeating one live entry a
        # million times must cost one head fetch, not a million.  Distinct
        # in-range live indices are bounded by ~lifetime/width + 2.
        for shard_idx in sorted(set(index.live)):
            key = ShardKey(shard_idx, width)
            if key.is_expired(now):
                # A stale (cached) index can still list a shard whose window
                # has passed locally; re-replicating it would just be pruned
                # again, double-counting reclaimed storage and applied serials.
                continue
            if key.window_start > plausible_end:
                # No certificate can expire past now + the CA/B lifetime cap,
                # so a (forged or corrupt) index must not make the RA
                # register unbounded far-future replicas that never prune.
                result.errors.append(
                    f"{ca_name}: shard index lists implausible far-future "
                    f"shard {shard_idx}"
                )
                continue
            name = shard_name(ca_name, shard_idx)
            try:
                self.agent.register_shard_replica(ca_name, shard_idx)
            except DictionaryError as exc:
                result.errors.append(f"{name}: {exc}")
                continue
            feed = self._feed(name)
            if feed.sync_server is None and discovery.sync_server_for is not None:
                feed.sync_server = discovery.sync_server_for(name)
        return index

    def _prune_sharded(self, ca_name: str, index, now: float, result: PullResult) -> None:
        """Reclaim expired shard replicas of one sharded CA.

        Runs every pull (whether or not the index fetch succeeded) and
        prunes when the cadence fires — or promptly when the decoded
        index's retired list names a shard the RA still holds.  Either way
        replicas are dropped solely by the local-clock window check, so a
        forged retired list cannot make the RA delete live shards.
        """
        width = self.agent.issuers[ca_name].shard_width
        held_indices = self.agent.shard_replicas(ca_name)
        ca_retired_held = index is not None and any(
            idx in held_indices and ShardKey(idx, width).is_expired(now)
            for idx in index.retired
        )
        discovery = self.sharded[ca_name]
        discovery.pulls += 1
        if (
            ca_retired_held
            or discovery.pulls % self.agent.config.prune_every_periods == 0
        ):
            held = [shard_name(ca_name, idx) for idx in held_indices]
            entries, bytes_freed = self.agent.prune_shard_replicas(ca_name, now)
            for name in held:
                if name not in self.agent.replicas:
                    result.shards_pruned += 1
                    self.feeds.pop(name, None)
            result.entries_pruned += entries
            result.bytes_reclaimed += bytes_freed

    def _pull_one(
        self, ca_name: str, replica, now: float, result: PullResult, peer=None
    ) -> None:
        """Bring one replica up to what its head (or ``peer``) shows."""
        verifier = replica.ca_public_key
        if hasattr(verifier, "advance"):
            # Keyring verifiers are time-scoped: move the acceptance clock
            # forward so retired keys expire out of their overlap windows.
            verifier.advance(int(now))
        feed = self._feed(ca_name)
        if peer is not None:
            if peer.replication_cursor(ca_name) > feed.position:
                result.peer_syncs += 1
                self._catch_up(ca_name, replica, now, result, peer=peer)
            return
        download = self.cdn.download(head_path(ca_name), self.location, now)
        result.bytes_downloaded += download.bytes_on_wire
        result.latency_seconds += download.latency_seconds
        result.heads_checked += 1
        head = decode_head(download.content)

        if feed.head.skips(
            head.sequence,
            self.agent.config.replay_window,
            f"head for {ca_name!r}",
            result,
        ):
            return

        self.agent.consistency.observe_root(head.signed_root)
        try:
            self._apply_head(ca_name, replica, head, now, result)
        except SignatureError:
            # A head the current keyring cannot verify may simply be signed
            # by a key the CA rotated in since our last pull: learn the
            # announcement chain (authenticated back to the genesis key) and
            # retry once.  A genuinely forged head fails again and the error
            # propagates like any other signature failure.
            if not self._learn_rotation(ca_name, replica, now, result):
                raise
            self._apply_head(ca_name, replica, head, now, result)
        feed.head.cursor = head.sequence

    def _apply_head(self, ca_name: str, replica, head, now: float, result: PullResult) -> None:
        """Apply one decoded, replay-checked head to its replica."""
        if replica.signed_root is None or replica.is_desynchronized(head.size):
            self._catch_up(ca_name, replica, now, result, head_size=head.size)
            if replica.size == head.size and (
                replica.signed_root is None
                or head.signed_root.timestamp > replica.signed_root.timestamp
            ):
                # Bootstrap (empty dictionary) or a re-signed root over the
                # content we just caught up to.
                replica.install_root(head.signed_root)
        elif head.signed_root.root == replica.signed_root.root:
            # Same content; a newer signed root only appears when the CA's
            # hash chain ran out and it re-signed the same dictionary.
            if head.signed_root.timestamp > replica.signed_root.timestamp:
                # Epoch refresh: retire the old epoch's cached verdicts, then
                # install (verifying and memoizing the new root).  Cached
                # proofs survive — the root *hash* is unchanged, so they are
                # still byte-identical to freshly built ones.
                self.agent.root_cache.invalidate_ca(ca_name)
                replica.install_root(head.signed_root)

        try:
            replica.apply_freshness(head.freshness)
        except ReplayError:
            # The authenticated backstop fired: this statement is older than
            # freshness already applied to the replica, so something (a
            # malicious edge, a §V attacker) re-presented signed past state.
            result.replays_rejected += 1
            raise
        result.freshness_applied += 1

    def _learn_rotation(self, ca_name: str, replica, now: float, result: PullResult) -> bool:
        """Fetch and validate the CA's key-announcement chain from the CDN.

        Returns ``True`` when at least one new key was enrolled into the
        replica's keyring (so the caller should retry verification), and
        ``False`` when the chain is unavailable, invalid, or adds nothing —
        rotation learning is strictly additive and anchored at the genesis
        key, so a forged chain can never displace trusted keys.
        """
        if not isinstance(replica.ca_public_key, CAKeyring):
            return False
        issuer = self.agent.issuer_of(ca_name)  # a shard's keys are its CA's
        try:
            download = self.cdn.download(keys_path(issuer), self.location, now)
            result.bytes_downloaded += download.bytes_on_wire
            result.latency_seconds += download.latency_seconds
            announcements = decode_key_announcements(download.content)
            learned = self.agent.learn_key_announcements(issuer, announcements)
        except (CDNError, TLSError, SignatureError) as exc:
            result.errors.append(f"{ca_name}: key-announcement fetch failed: {exc}")
            return False
        if learned:
            result.key_rotations_applied += learned
            return True
        return False

    def _catch_up(
        self,
        ca_name: str,
        replica,
        now: float,
        result: PullResult,
        head_size: int = 0,
        peer=None,
    ) -> None:
        """The one catch-up walk: fetch the batches past the replica's
        position, apply them in one store transaction, or fall back to sync.

        Batch ``n`` of a stream exists as two objects: the issuance object,
        and the CA-signed segment that embeds it byte for byte.  The walk
        fetches one of them per missing batch — the issuance object from the
        CDN, the segment from the CDN when :attr:`segment_streaming` is set,
        or the segment from ``peer``'s archive — until the replica is as
        large as the head says (or as far along as the peer claims), and
        hands every fetchable, contiguous batch to the replica at once
        (``RevocationAgent.apply_issuances``): one merge and one suffix
        rehash however many batches queued up.  An object that is missing,
        malformed, mis-signed or out of sequence ends the walk and degrades
        it to the CA's sync protocol — never silently.
        """
        feed = self._feed(ca_name)
        segments = peer is not None or self.segment_streaming
        goal = peer.replication_cursor(ca_name) if peer is not None else 0
        # ``committed`` only ever advances over batches whose content is
        # durably in the replica (applied, already present, or covered by a
        # successful resync) — a batch that failed to apply is refetched on
        # the next pull rather than skipped forever.
        fetched = committed = feed.position
        have = replica.size
        pending: List[RevocationIssuance] = []
        relayable: Dict[int, bytes] = {}
        freshness = None
        needs_resync = False
        while (fetched < goal) if peer is not None else (have < head_size):
            number = fetched + 1
            if peer is not None:
                raw = peer.archived_segment(ca_name, number)
                if raw is not None:
                    size = len(raw)
                    latency = size / self.location.bandwidth_to_edge() + max(
                        0.001,
                        region_distance(self.location.region, peer.location.region),
                    )
            else:
                path = (
                    segment_path(ca_name, number)
                    if segments
                    else issuance_path(ca_name, number)
                )
                try:
                    download = self.cdn.download(
                        path, self.location, now, source=self.agent.name
                    )
                except CDNError:
                    raw = None  # purged, or not published: only sync can help
                else:
                    raw = download.content
                    size = download.bytes_on_wire
                    latency = download.latency_seconds
            if raw is None:
                needs_resync = True
                break
            fetched = number
            result.bytes_downloaded += size
            result.latency_seconds += latency
            try:
                if segments:
                    result.segment_bytes_downloaded += size
                    segment = decode_segment(raw)
                    if (segment.ca_name, segment.segment_number) != (ca_name, number):
                        raise TLSError(
                            f"asked for WAL segment {number} of {ca_name!r}, got "
                            f"segment {segment.segment_number} of {segment.ca_name!r}"
                        )
                    if not verify_segment(segment, replica.ca_public_key):
                        raise SignatureError(
                            f"WAL segment {number} for {ca_name!r} is not "
                            f"signed by an acceptable CA key"
                        )
                    issuance = segment.issuance
                else:
                    issuance = decode_issuance(raw)
            except (TLSError, SignatureError) as exc:
                if segments:
                    result.segments_rejected += 1
                result.errors.append(f"{ca_name}: {exc}")
                needs_resync = True
                break
            if issuance.first_number > have + 1:
                # A gap: earlier batches were purged or missed; full resync.
                needs_resync = True
                break
            if issuance.first_number <= have:
                if not pending:
                    committed = fetched  # old batch, content already in the replica
                continue
            pending.append(issuance)
            have += len(issuance.serials)
            if segments:
                relayable[number] = raw
                freshness = segment.freshness_after
        if pending:
            try:
                result.serials_applied += self.agent.apply_issuances(ca_name, pending)
            except (DictionaryError, SignatureError) as exc:
                # Tampered batch content (update_many rolled the replica back
                # to its last verified state) or a forged root signature
                # (rejected before anything was staged): either way the sync
                # protocol can recover the honest suffix directly.
                result.errors.append(f"{ca_name}: {exc}")
                needs_resync = True
            else:
                committed += len(pending)  # pending batches are consecutive
                result.issuances_applied += len(pending)
                # Only segments whose content passed the recomputed-root
                # check are ever offered onward.
                feed.segments.update(relayable)
                result.segments_applied += len(relayable)
                if peer is not None:
                    result.segments_from_peer += len(relayable)
                if freshness is not None:
                    try:
                        replica.apply_freshness(freshness)
                        result.freshness_applied += 1
                    except (ReplayError, DictionaryError):
                        pass  # the replica already holds newer freshness
        if needs_resync:
            if peer is not None:
                # Never silent: the peer claimed more history than it could
                # prove, so fall back to the CA's sync protocol and say so.
                result.cold_sync_fallbacks += 1
            if self._resync(ca_name, replica, result) and peer is None:
                # The signed head vouches that every batch fetched so far
                # exists, and the resync covered it; a peer's claim to more
                # history vouches for nothing.
                committed = fetched
        feed.position = committed

    def _resync(self, ca_name: str, replica, result: PullResult) -> bool:
        """Full-state recovery via the CA's sync endpoint.

        Returns ``False`` when no sync server is known (the caller must not
        mark fetched batches as consumed in that case).
        """
        server = self._feed(ca_name).sync_server
        if server is None:
            result.errors.append(f"{ca_name}: desynchronized and no sync server known")
            return False
        # Resync replaces the replica's verified state wholesale: evict the
        # dictionary's cached proofs and root verdicts up front so the cache
        # only ever holds entries derived from the recovered state.
        self.agent.proof_cache.invalidate_dictionary(ca_name)
        self.agent.root_cache.invalidate_ca(ca_name)
        response = resynchronize(replica, server)
        result.bytes_downloaded += len(encode_sync_response(response))
        result.resyncs += 1
        result.serials_applied += len(response.serials)
        return True


def attach_agent_to_cas(
    agent: RevocationAgent,
    cas: List[RITMCertificationAuthority],
    cdn: CDNNetwork,
    location: GeoLocation,
) -> RADisseminationClient:
    """Wire an RA to a set of RITM CAs: register replicas and sync servers.

    Each CA is registered under a fresh per-agent
    :class:`~repro.crypto.signing.CAKeyring` anchored at the CA's genesis
    key, so each RA independently learns (and time-scopes) any later key
    rotations from the announcement chain.  An unsharded CA gets its one
    replica now; a sharded CA is registered for shard discovery, and its
    per-shard replicas (all sharing the keyring) appear as the pull cycle
    reads the CA's shard index.
    """
    client = RADisseminationClient(agent, cdn, location)
    for ca in cas:
        keyring = CAKeyring.single(ca.public_key)
        if ca.sharded:
            client.register_sharded_ca(
                ca.name, keyring, ca.config.shard_width_seconds, ca.sync_server_for
            )
        else:
            agent.register_ca(ca.name, keyring)
            client.register_sync_server(ca.name, ca.sync_server)
    return client
