"""RA-side dissemination: pulling dictionary updates from the CDN every Δ.

Implements the pull loop of §III/§VI: every Δ each RA issues one HTTP GET
for each dictionary's *per-Δ object* from its closest edge server — the
paper's one message per Δ.  In a Δ without a batch that is the CA's latest
freshness statement, alone; if the statement hash-links to the anchor of the
signed root the replica holds, applying it is the whole poll (the common
case whose cost dominates Fig. 7).  In a Δ with a batch it is that batch's
object, which carries the batch and the root the CA signed after it; that
root's anchor is the statement the CA serves next, so an RA that was
current catches up with that one GET.  An RA further behind fetches the
batches in between — or falls back to the sync protocol — applies them,
and then applies the statement.  Only a statement that links to no root the
replica holds (a batch the RA missed, a re-signed chain, a key rotation, a
replayed or forged root) or a per-Δ object that fails to decode sends the
RA to the dictionary's *head* (signed root, freshness), as does a replica
with no root yet.

Every replica the agent holds — a whole-CA dictionary or one expiry shard of
a sharded CA (§VIII, ``RITMConfig.sharded``) — goes through that same cycle
under its own name, tracked by one :class:`ReplicaFeed` record: the per-Δ
object first, then, if it is a batch object whose batch ends past the
replica, one catch-up walk from the replica's size (fetching batch objects —
docs/REPLICATION.md; a batch the per-Δ object carried is not fetched again),
then the head only if the statement still does not link.  A sharded CA adds
only a step *before* it: the RA pulls the CA's small shard *index* object to
register replicas for newly opened shards, and deletes replicas of shards
whose expiry window has passed — the storage reclamation the §VIII
relaxation is about.  The shard index itself is unauthenticated,
but it can only direct the RA *towards* shards: every shard's content is
still verified against that shard's CA-signed root, so a forged index can
cause wasted fetches, never a false revocation status.  Nothing orders one
index against another, and nothing needs to: replicas are registered
idempotently and dropped only by the RA's own clock.

Everything the RA ranks is ranked by what the CA signed: a freshness
statement by its hash-chain period, a head by its signed root's size and
then timestamp.  Older signed state is a counted replay (§V).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Iterable, List, Optional

from repro.cdn.geography import GeoLocation, region_distance
from repro.cdn.network import CDNNetwork
from repro.crypto.signing import CAKeyring
from repro.dictionary.authdict import RevocationIssuance
from repro.dictionary.freshness import FreshnessStatement, periods_elapsed
from repro.dictionary.sharding import (
    MAX_CERTIFICATE_LIFETIME_SECONDS,
    ShardKey,
    shard_name,
)
from repro.dictionary.sync import SyncRequest, SyncServer, apply_sync_response
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
    freshness_path,
    head_path,
    issuance_path,
    keys_path,
    shard_index_path,
)
from repro.ritm.messages import (
    decode_head,
    decode_key_announcements,
    decode_shard_index,
    encode_sync_response,
)
from repro.ritm.persistence import load_checkpoint, write_checkpoint
from repro.ritm.replication import decode_delta_object, decode_segment

#: Request bytes one GET (or sync request) puts on the RA's uplink.
REQUEST_BYTES = 64


@dataclass
class PullResult:
    """What one Δ-periodic pull cycle transferred and applied."""

    time: float
    bytes_downloaded: int = 0
    latency_seconds: float = 0.0
    heads_checked: int = 0
    #: CDN GETs and sync requests issued (each is one request on the uplink).
    requests: int = 0
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
    #: Adversarial control-plane accounting (docs/THREATS.md): freshness
    #: statements skipped as benign CDN staleness (within the replay
    #: window), heads rejected as replays (a head whose signed root is older
    #: than the held one, or whose statement is older than the freshness
    #: already applied), and CA key rotations the RA learned and validated
    #: this cycle.
    stale_statements_ignored: int = 0
    replays_rejected: int = 0
    key_rotations_applied: int = 0
    #: Replication accounting (docs/REPLICATION.md): the batches of
    #: ``issuances_applied`` a peer relayed rather than the CDN served, the
    #: batch-object bytes the catch-up walk read (the per-Δ object's
    #: included), per-CA anti-entropy exchanges attempted against a peer,
    #: explicit degradations to the cold sync protocol, and batch objects
    #: rejected: undecodable, at the wrong address, or failing the root
    #: check (each rejection ends the walk).
    batches_from_peer: int = 0
    batch_bytes_downloaded: int = 0
    peer_syncs: int = 0
    cold_sync_fallbacks: int = 0
    batches_rejected: int = 0


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
class ReplicaFeed:
    """What one replica's replication needs beside the replica itself
    (docs/REPLICATION.md).  Where the replica stands in its stream is its
    size: the batch it reads next is the one at ``size + 1``."""

    #: Raw batch objects by address (first serial number) whose batches
    #: passed the root check, retained so this RA can relay them to
    #: anti-entropy peers.
    batches: Dict[int, bytes] = field(default_factory=dict)
    #: The CA's direct sync endpoint, used when the batch objects cannot
    #: close the gap — the paper's desynchronization recovery.
    sync_server: Optional[SyncServer] = None


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
        #: Sharded CAs by name, each with its shard name → sync endpoint
        #: lookup (``None``: no per-shard recovery endpoint).
        self.sharded: Dict[str, Optional[Callable[[str], Optional[SyncServer]]]] = {}
        self.pull_history: List[PullResult] = []
        #: Whether this RA archives the batch objects it applies, so that
        #: peers can catch up from it (:meth:`sync_from_peer`).  The replica
        #: ends byte-identical either way.
        self.segment_streaming = False

    def _feed(self, name: str) -> ReplicaFeed:
        """The feed record of replica ``name`` (created on first use)."""
        return self.feeds.setdefault(name, ReplicaFeed())

    def register_sync_server(self, ca_name: str, server: SyncServer) -> None:
        """Register the CA's direct sync endpoint for desync recovery."""
        self._feed(ca_name).sync_server = server

    # -- crash recovery (docs/STORAGE.md) ---------------------------------------

    def checkpoint(self, directory) -> int:
        """Persist the agent as one checkpoint file.

        A restored replica resumes its walk from its own size, so a warm
        restart is a *delta* fetch with nothing but the replicas persisted.
        Returns the number of replicas persisted.
        """
        checkpoint = self.agent.checkpoint_state()
        write_checkpoint(checkpoint, directory)
        return len(checkpoint.replicas)

    def restore(self, directory) -> int:
        """Warm-start the agent from a checkpoint; returns the number of
        replicas restored."""
        return self.agent.restore_state(load_checkpoint(directory))

    # -- streaming replication (docs/REPLICATION.md) -----------------------------

    def replication_cursor(self, ca_name: str) -> int:
        """How far one replica reaches in its stream: its size (0 = nothing
        applied yet, or no such replica)."""
        replica = self.agent.replicas.get(ca_name)
        return replica.size if replica is not None else 0

    def archived_batch(self, ca_name: str, number: int) -> Optional[bytes]:
        """Raw bytes of the archived batch object whose first serial is
        number ``number`` (``None`` if unknown).

        This is the anti-entropy serving side: peers relay exactly the
        bytes whose batch they applied, and every receiver checks the batch
        against the CA-signed root it carries, so the archive never has to
        be trusted.  An RA that does not archive (``segment_streaming``
        off) holds the content but no objects, so it has nothing to offer.
        """
        feed = self.feeds.get(ca_name)
        return feed.batches.get(number) if feed is not None else None

    def sync_from_peer(self, peer: "RADisseminationClient", now: float) -> PullResult:
        """RA→RA anti-entropy: catch up from a peer's batch archive.

        The same cycle as :meth:`pull` — shard discovery, then every replica
        — except that the peer's replica size, not a head, says how far
        behind a replica is, and the catch-up walk asks the peer's archive
        for the missing batch objects.  Each batch is checked against the
        CA-signed root it carries, under *this* RA's trust anchor, so the
        peer can withhold progress but never forge it.  When the peer cannot
        supply a contiguous run up to its claimed size (archive gap,
        tampered relay, equivocation attempt), the CA's sync protocol is
        used as the **explicit** cold fallback and counted as such.  The
        latency model charges one inter-region round trip per relayed batch
        plus transfer time at this RA's downstream bandwidth.
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
        self.sharded[ca_name] = sync_server_for

    # -- the Δ-periodic pull -------------------------------------------------------

    def pull(self, now: float, link=None) -> PullResult:
        """One pull cycle over every CA the RA replicates.

        ``link`` (a :class:`repro.net.Link`, optional) models the RA's
        uplink: when set, one request/response round trip sized by the
        cycle's requests (:data:`REQUEST_BYTES` each) and downloaded bytes
        is added to the recorded latency.  ``None`` (the default) keeps the
        pre-fleet behaviour where latency is purely the CDN path model's.
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
        if link is not None and result.requests:
            result.latency_seconds += link.round_trip_time(
                request_bytes=REQUEST_BYTES * result.requests,
                response_bytes=result.bytes_downloaded,
            )
        self.pull_history.append(result)
        return result

    def _get(self, path: str, now: float, result: PullResult, source: str = ""):
        """One CDN GET, charged to ``result``; ``source`` labels its origin
        bytes (:attr:`CDNNetwork.origin_bytes_by_source`)."""
        result.requests += 1
        download = self.cdn.download(path, self.location, now, source=source)
        result.bytes_downloaded += download.bytes_on_wire
        result.latency_seconds += download.latency_seconds
        return download

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
        try:
            self._discover_shards(ca_name, now, result)
        except (CDNError, DictionaryError, TLSError) as exc:
            result.errors.append(f"{ca_name}: {exc}")
        # Pruning depends only on the local clock, so it must not be
        # suppressible by a missing/forged index object: expired shard
        # replicas are reclaimed whether or not the index decoded.
        self._prune_sharded(ca_name, now, result)

    def _discover_shards(self, ca_name: str, now: float, result: PullResult) -> None:
        """Register a replica for every live shard the index lists.

        The index is not ordered against earlier ones: a replayed or stale
        copy can only omit windows opened since, as withholding it can, and
        registering a window already held changes nothing.
        """
        sync_server_for = self.sharded[ca_name]
        download = self._get(shard_index_path(ca_name), now, result)
        result.shard_indexes_checked += 1
        index = decode_shard_index(download.content)

        # The width registered at attach time (from deployment config) is
        # authoritative: the index is unauthenticated, so a forged width
        # must not re-map (or mass-expire) the agent's shard replicas.  A
        # mismatch is treated as a malformed object, like any other
        # undecodable index.
        width = self.agent.issuers[ca_name].shard_width
        if index.width_seconds != width:
            raise TLSError(
                f"shard index for {ca_name!r} advertises width "
                f"{index.width_seconds}s but the agent is configured with "
                f"{width}s"
            )
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
            if feed.sync_server is None and sync_server_for is not None:
                feed.sync_server = sync_server_for(name)

    def _prune_sharded(self, ca_name: str, now: float, result: PullResult) -> None:
        """Reclaim expired shard replicas of one sharded CA.

        Runs every pull, whether or not the index fetch succeeded: replicas
        are dropped solely by the local-clock window check, so nothing the
        CDN serves can make the RA delete a live shard or keep a dead one.
        """
        held = [shard_name(ca_name, idx) for idx in self.agent.shard_replicas(ca_name)]
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
        """Bring one replica up to what its stream (or ``peer``) shows."""
        verifier = replica.ca_public_key
        if hasattr(verifier, "advance"):
            # Keyring verifiers are time-scoped: move the acceptance clock
            # forward so retired keys expire out of their overlap windows.
            verifier.advance(int(now))
        if peer is not None:
            if peer.replication_cursor(ca_name) > replica.size:
                result.peer_syncs += 1
                self._catch_up(ca_name, replica, now, result, peer=peer)
            return
        if replica.signed_root is not None and self._poll_freshness(
            ca_name, replica, now, result
        ):
            return
        download = self._get(head_path(ca_name), now, result)
        result.heads_checked += 1
        head = decode_head(download.content)
        self.agent.consistency.observe_root(head.signed_root)
        self._retry_after_rotation(
            ca_name,
            replica,
            now,
            result,
            lambda: self._apply_head(ca_name, replica, head, now, result),
        )

    def _poll_freshness(
        self, ca_name: str, replica, now: float, result: PullResult
    ) -> bool:
        """The per-Δ poll of a replica that holds a signed root.

        Fetches the stream's per-Δ object: a freshness statement, or the
        batch object of the batch published in this Δ, whose root's anchor
        (period 0 of its hash chain) is then the statement.  A batch that
        ends past the replica's size (at ``first_number + len(serials) - 1``)
        first runs the catch-up walk to there, which takes that object as
        its batch, already fetched: every batch object embeds the root
        signed after its batch, so no head is needed.  A statement that then
        links to the statement the replica holds is ranked by its hash-chain
        period — the held period or a later one the RA's clock allows is
        applied, up to :data:`~repro.dictionary.freshness.REPLAY_WINDOW`
        periods behind is benign CDN staleness.  Returns ``False`` when only
        the head can settle the replica: the object fails to decode (one
        recorded error; an RA that is behind then recovers through the
        head's walk, never a sync request), or the statement links to
        nothing the replica holds within those bounds (a batch the replica missed, a re-signed chain,
        a key rotation, a replayed or forged root, another stream's
        statement, a value older than the window or newer than the clock).
        """
        download = self._get(freshness_path(ca_name), now, result)
        try:
            per_delta = decode_delta_object(download.content)
        except TLSError as exc:
            result.errors.append(f"{ca_name}: {exc}")
            return False
        statement = per_delta
        if isinstance(per_delta, RevocationIssuance):
            goal = per_delta.first_number + len(per_delta.serials) - 1
            if goal > replica.size:
                prefetched = (per_delta, download)
                self._catch_up(
                    ca_name, replica, now, result, advertised_size=goal, prefetched=prefetched
                )
                if replica.size < goal:
                    return True  # the walk could not close the gap and said why
            statement = FreshnessStatement(per_delta.signed_root.anchor)
        behind = replica.offer_freshness(statement, self._clock_period(replica, now))
        if behind is None:
            return False
        if behind:
            result.stale_statements_ignored += 1  # benign CDN staleness
        else:
            result.freshness_applied += 1
        return True

    def _clock_period(self, replica, now: float) -> int:
        """The Δ period this RA's clock reads under ``replica``'s root: how
        far a statement of that root's chain can have got by ``now``, with
        the CA's Δ taken to be this RA's.  A CA whose Δ is shorter, or whose
        clock leads by more than a period, only costs the poll its head GET:
        the head's statement links over the whole chain."""
        delta = self.agent.config.delta_seconds
        return int(periods_elapsed(replica.signed_root.timestamp, now, delta))

    def _apply_head(self, ca_name: str, replica, head, now: float, result: PullResult) -> None:
        """Apply one decoded head to its replica, ordered by its signed root.

        A root older than the held one — by size, then timestamp — is a
        replay and leaves the replica untouched.  An equal one leaves the
        root alone; a newer one is caught up to or installed.  Either way
        the head's statement is then linked over the root's whole chain
        (``ReplicaDictionary.apply_freshness``): an honest one always links,
        whatever the CA's Δ and clock, and one older than the freshness held
        is a counted replay.
        """
        held, signed = replica.signed_root, head.signed_root
        if held is not None and (signed.size, signed.timestamp) < (held.size, held.timestamp):
            result.replays_rejected += 1
            raise ReplayError(
                f"head for {ca_name!r} re-presents a root over {signed.size} "
                f"revocations signed at {signed.timestamp}; the replica holds "
                f"one over {held.size} signed at {held.timestamp}"
            )
        if held is None or replica.is_desynchronized(signed.size):
            self._catch_up(ca_name, replica, now, result, advertised_size=signed.size)
            if replica.size == signed.size and (
                replica.signed_root is None
                or signed.timestamp > replica.signed_root.timestamp
            ):
                # Bootstrap (empty dictionary) or a re-signed root over the
                # content we just caught up to.
                replica.install_root(signed)
        elif signed.root == held.root and signed.timestamp > held.timestamp:
            # Same content under a newer signed root: the CA's hash chain ran
            # out (or its key rotated) and it re-signed the same dictionary.
            # Retire the old epoch's cached verdicts, then install (verifying
            # and memoizing the new root).  Cached proofs survive — the root
            # *hash* is unchanged, so they are still byte-identical to
            # freshly built ones.
            self.agent.root_cache.invalidate_ca(ca_name)
            replica.install_root(signed)

        try:
            replica.apply_freshness(head.freshness)
        except ReplayError:
            # The authenticated backstop fired: this statement is older than
            # freshness already applied to the replica, so something (a
            # malicious edge, a §V attacker) re-presented signed past state.
            result.replays_rejected += 1
            raise
        result.freshness_applied += 1

    def _retry_after_rotation(
        self, ca_name: str, replica, now: float, result: PullResult, action
    ):
        """``action()``, retried once when it fails a signature check and the
        CA's key-announcement chain enrolls a key the replica lacked.

        A CA that rotated its key since the replica last verified anything
        signs every later root under the new key, whichever object carries
        it: the head, a batch object or a sync response.  The
        chain is authenticated back to the genesis key, so a genuine forgery
        fails again and its :class:`SignatureError` propagates.
        """
        try:
            return action()
        except SignatureError:
            if not self._learn_rotation(ca_name, replica, now, result):
                raise
            return action()

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
            download = self._get(keys_path(issuer), now, result)
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
        advertised_size: int = 0,
        peer=None,
        prefetched=None,
    ) -> None:
        """The one catch-up walk: fetch the batches past the replica's size,
        apply them in one store transaction, or fall back to sync.

        A batch is one object addressed by its first serial number.  The
        walk reads one per missing batch — from the CDN, or from ``peer``'s
        archive — from the replica's ``size + 1``, advancing by each batch's
        serial count, until it reaches what the CA advertises
        (``advertised_size``: where the per-Δ object's batch ends, or the
        head's signed size) or the peer's replica size, and hands every
        batch to the replica at once (``RevocationAgent.apply_issuances``):
        one signature check per root, one merge and one suffix rehash
        however many batches queued up, rolled back unless the recomputed
        root is the signed one.  The path is unauthenticated, so a batch
        must carry the address it was fetched at.  An object that does not,
        or is missing or malformed, ends the walk, and a batch that fails
        the root check undoes it; either degrades to the CA's sync protocol
        — never silently.

        ``prefetched`` is the per-Δ object's batch, decoded, with its
        download: the walk takes it as the batch at its address instead of
        a GET.
        """
        installed = replica.signed_root
        goal = peer.replication_cursor(ca_name) if peer is not None else advertised_size
        have = replica.size
        pending: List[RevocationIssuance] = []
        relayable: Dict[int, bytes] = {}
        needs_resync = False
        while have < goal:
            number = have + 1
            batch = None
            if peer is not None:
                raw = peer.archived_batch(ca_name, number)
                if raw is not None:
                    size = len(raw)
                    result.bytes_downloaded += size
                    result.latency_seconds += size / self.location.bandwidth_to_edge() + max(
                        0.001, region_distance(self.location.region, peer.location.region)
                    )
            elif prefetched is not None and prefetched[0].first_number == number:
                batch, download = prefetched
                raw, size = download.content, download.bytes_on_wire
            else:
                try:
                    download = self._get(
                        issuance_path(ca_name, number), now, result, source=self.agent.name
                    )
                except CDNError:
                    raw = None  # purged, or not published: only sync can help
                else:
                    raw, size = download.content, download.bytes_on_wire
            if raw is None:
                needs_resync = True
                break
            result.batch_bytes_downloaded += size
            try:
                if batch is None:
                    batch = decode_segment(raw)
                # A batch is never empty, so its first serial number is its
                # address; an empty one would leave the walk where it stands.
                address = (batch.ca_name, batch.first_number)
                if address != (ca_name, number) or not batch.serials:
                    raise TLSError(
                        f"asked for the batch of {ca_name!r} at serial {number}, got "
                        f"{len(batch.serials)} serial(s) of {batch.ca_name!r} "
                        f"at {batch.first_number}"
                    )
            except TLSError as exc:
                result.batches_rejected += 1
                result.errors.append(f"{ca_name}: {exc}")
                needs_resync = True
                break
            pending.append(batch)
            have += len(batch.serials)
            relayable[number] = raw
        if pending:
            try:
                result.serials_applied += self._retry_after_rotation(
                    ca_name,
                    replica,
                    now,
                    result,
                    lambda: self.agent.apply_issuances(ca_name, pending),
                )
            except (DictionaryError, SignatureError) as exc:
                # Tampered batch content (update_many rolled the replica back
                # to its last verified state) or a forged root signature
                # (rejected before anything was staged): either way the sync
                # protocol can recover the honest suffix directly.
                result.batches_rejected += 1
                result.errors.append(f"{ca_name}: {exc}")
                needs_resync = True
            else:
                result.issuances_applied += len(pending)
                if peer is not None or self.segment_streaming:
                    # Only batches that passed the root check are offered onward.
                    self._feed(ca_name).batches.update(relayable)
                if peer is not None:
                    result.batches_from_peer += len(pending)
        if needs_resync:
            if peer is not None:
                # Never silent: the peer claimed more history than it could
                # prove, so fall back to the CA's sync protocol and say so.
                result.cold_sync_fallbacks += 1
            self._resync(ca_name, replica, now, result)
        if replica.signed_root is not installed:
            # Gossip's evidence: every root a replica installs is observed,
            # whichever object brought it.
            self.agent.consistency.observe_root(replica.signed_root)

    def _resync(self, ca_name: str, replica, now: float, result: PullResult) -> None:
        """Full-state recovery via the CA's sync endpoint; with no endpoint
        known, an error and nothing else."""
        server = self._feed(ca_name).sync_server
        if server is None:
            result.errors.append(f"{ca_name}: desynchronized and no sync server known")
            return
        # Resync replaces the replica's verified state wholesale: evict the
        # dictionary's cached proofs and root verdicts up front so the cache
        # only ever holds entries derived from the recovered state.
        self.agent.proof_cache.invalidate_dictionary(ca_name)
        self.agent.root_cache.invalidate_ca(ca_name)
        result.requests += 1
        response = server.serve(SyncRequest(replica.ca_name, have_count=replica.size))
        self._retry_after_rotation(
            ca_name, replica, now, result, lambda: apply_sync_response(replica, response)
        )
        result.bytes_downloaded += len(encode_sync_response(response))
        result.resyncs += 1
        result.serials_applied += len(response.batch.serials)


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
