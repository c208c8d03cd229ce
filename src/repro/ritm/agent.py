"""The Revocation Agent (RA): RITM's middlebox.

The RA sits on the client↔server path and implements §III of the paper:

1. it watches ClientHello messages for the RITM extension and creates
   per-connection state (Eq. 4);
2. when the matching ServerHello/Certificate flight passes by, it determines
   the issuing CA and serial number, builds a revocation status (Eq. 3) from
   its replica dictionary, and appends it to the packet towards the client;
3. once the connection is established it keeps piggybacking a fresh status on
   the first server→client packet after every Δ;
4. it stays completely transparent for non-TLS traffic and for clients that
   did not request RITM;
5. when another RA has already attached a status it only replaces it if its
   own dictionary view is more recent (§VIII, "Multiple RAs"), and it feeds
   every observed signed root to the consistency checker.

Dictionary replicas are updated out of band by the dissemination module
(:mod:`repro.ritm.dissemination`); the RA itself only reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.signing import CAKeyring, KeyPair, PublicKey
from repro.dictionary.authdict import ReplicaDictionary, RevocationIssuance
from repro.dictionary.proofs import RevocationStatus
from repro.dictionary.sharding import ShardKey, shard_name
from repro.dictionary.sync import apply_sync_response, held_state
from repro.errors import (
    DesynchronizedError,
    DictionaryError,
    ReproError,
    SignatureError,
    TLSError,
)
from repro.net.node import Middlebox
from repro.net.packet import Direction, FiveTuple, Packet
from repro.perf import LRUCache, ProofCache, ProofEntry, VerifiedRootCache
from repro.pki.serial import SerialNumber
from repro.ritm.config import RITMConfig
from repro.ritm.consistency import ConsistencyChecker
from repro.ritm.persistence import AgentCheckpoint, ReplicaCheckpoint
from repro.ritm.dpi import DPIEngine, InspectionResult
from repro.ritm.messages import (
    KeyAnnouncement,
    decode_key_announcements,
    decode_status_bundle,
    encode_freshness,
    encode_key_announcements,
    encode_status,
    frame_status_bundle,
)
from repro.ritm.state import ConnectionState, ConnectionTable, FlowKey, flow_key
from repro.tls.connection import HandshakeStage
from repro.tls.records import (
    ContentType,
    TLSRecord,
    encode_record,
    parse_records,
    serialize_records,
)

#: Modelled per-packet processing delay of an RA, in seconds.
PER_PACKET_PROCESSING_SECONDS = 3e-6

#: Sessions whose server certificate one RA remembers for abbreviated
#: handshakes (an LRU; every full handshake adds one).  An entry
#: is about 270 bytes (CPython 3.11, tracemalloc: key tuple, 32-byte session
#: id, ordered-dict slot, identity tuple), so the default costs ~0.3 MB per
#: RA.  It is a memory/horizon trade, not a correctness bound: a session
#: stays resumable through an RA that completes R full handshakes/s for
#: capacity / R seconds — ~0.2 s at this model's warm rate (~5k/s), ~20 ms
#: at the paper's 50k/s (§VII-D) — and a resumption after that gets no status
#: (``resumptions_unknown``; a RITM client rejects it as missing).  Sized for
#: a deployment it is R × the resumption window its servers honour
#: (OpenSSL's default session timeout is 300 s: 15 M entries, ~4 GB here, at
#: 50k/s).  Limits are part of the interface: the bound is fixed here, not a
#: :class:`RITMConfig` field.
RESUMPTION_CACHE_CAPACITY = 1024


@dataclass
class AgentStatistics:
    """Operational counters for one RA."""

    packets_seen: int = 0
    packets_forwarded_transparently: int = 0
    supported_connections: int = 0
    statuses_attached: int = 0
    statuses_replaced: int = 0
    statuses_deferred_to_peer: int = 0
    unknown_ca: int = 0
    resumptions_recovered: int = 0
    #: Abbreviated handshakes naming a session this RA has no certificate
    #: for (never seen, or evicted): no status is attached.
    resumptions_unknown: int = 0
    shard_replicas_pruned: int = 0


@dataclass
class Issuer:
    """What an RA knows about one CA besides its replicas' content."""

    name: str
    #: The one verifier (bare key or rotating keyring) every replica of this
    #: CA shares, so a rotation learned through any shard's head is known to
    #: every shard at once.
    verifier: object = None
    #: Expiry-shard width (``None``: one whole dictionary under the CA's own
    #: name); maps (CA, certificate expiry) → shard replica on the TLS path.
    shard_width: Optional[int] = None
    #: Explicit shard membership: shard index → replica name.  Kept as a
    #: registry (not derived by parsing replica names) so an unrelated CA
    #: whose name merely looks like a shard name can never be captured,
    #: prefix-skipped, or pruned.
    members: Dict[int, str] = field(default_factory=dict)
    #: The validated key-announcement chain (rotating keyrings only), kept so
    #: checkpoints can persist and rebuild the keyring.
    announcements: Tuple[KeyAnnouncement, ...] = ()


class RevocationAgent(Middlebox):
    """An on-path middlebox that serves revocation statuses to RITM clients."""

    def __init__(self, name: str, config: Optional[RITMConfig] = None) -> None:
        super().__init__(name)
        self.config = config if config is not None else RITMConfig()
        self.replicas: Dict[str, ReplicaDictionary] = {}
        self.connections = ConnectionTable()
        self.dpi = DPIEngine()
        #: Deterministic per-RA reporter key: every MisbehaviorReport this
        #: agent emits is countersigned so the evidence is attributable.
        self.reporter_keys = KeyPair.generate(
            rng_seed=f"ra-reporter:{name}".encode("utf-8")
        )
        self.consistency = ConsistencyChecker(
            owner=name, reporter_keys=self.reporter_keys
        )
        self.stats = AgentStatistics()
        #: (server ip, server port, session id) → (issuer, serial, not_after,
        #: chain — kept only with ``prove_full_chain``) of the certificate the
        #: session's full handshake presented: what an abbreviated (resumed)
        #: handshake, which carries no Certificate message, is about.
        self.resumption_cache = LRUCache(maxsize=RESUMPTION_CACHE_CAPACITY)
        #: The CA behind every name this RA knows: each CA's own name and
        #: each of its shard replicas' names map to the CA's one record.
        self.issuers: Dict[str, Issuer] = {}
        #: Per-entry storage released by :meth:`prune_shard_replicas`.
        self.reclaimed_storage_bytes = 0
        #: Revocation entries dropped with pruned shard replicas.
        self.pruned_revocations = 0
        #: Hot-path verification engine (docs/PERFORMANCE.md): Merkle proofs
        #: for repeat lookups (session resumption, flash crowds) and a memo
        #: of Ed25519-verified roots shared by every replica of this RA.
        self.proof_cache = ProofCache(maxsize=self.config.proof_cache_size)
        self.root_cache = VerifiedRootCache(maxsize=self.config.root_cache_size)

    # -- dictionary management -------------------------------------------------

    def register_ca(self, ca_name: str, public_key) -> ReplicaDictionary:
        """Create (or return) the replica dictionary for one CA.

        ``public_key`` may be a bare :class:`PublicKey` (immortal-key
        baseline) or a :class:`~repro.crypto.signing.CAKeyring` anchored at
        the CA's genesis key — the latter lets the replica follow CA key
        rotations learned via :meth:`learn_key_announcements`.  The replica
        uses the store engine the RA was configured with
        (``config.store_engine``), so a whole deployment can be switched
        between engines from one knob.
        """
        self.issuers.setdefault(ca_name, Issuer(ca_name, public_key))
        return self._open_replica(ca_name, public_key)

    def _open_replica(self, name: str, verifier) -> ReplicaDictionary:
        """Create (or return) the replica dictionary named ``name``."""
        if name not in self.replicas:
            replica = ReplicaDictionary(
                name,
                verifier,
                engine=self.config.store_engine,
            )
            replica.root_cache = self.root_cache
            self.replicas[name] = replica
        return self.replicas[name]

    def replica_for(self, ca_name: str) -> Optional[ReplicaDictionary]:
        """The replica registered under ``ca_name`` (None when unknown)."""
        return self.replicas.get(ca_name)

    def keyring_for(self, ca_name: str) -> Optional[CAKeyring]:
        """The rotating keyring ``ca_name``'s replica — or, for a sharded CA,
        every one of its shard replicas — verifies with (None for bare-key
        or unknown CAs)."""
        issuer = self.issuers.get(ca_name)
        verifier = issuer.verifier if issuer is not None else None
        return verifier if isinstance(verifier, CAKeyring) else None

    def issuer_of(self, replica_name: str) -> str:
        """The CA behind a replica: the owning CA of a registered shard
        replica, otherwise the replica's own name."""
        issuer = self.issuers.get(replica_name)
        return issuer.name if issuer is not None else replica_name

    def learn_key_announcements(
        self, ca_name: str, announcements: Sequence[KeyAnnouncement]
    ) -> int:
        """Validate a CA's key-announcement chain and enroll any new keys.

        The chain is trusted only through the genesis anchor: announcement 0
        must carry the exact key bytes the replica's keyring was registered
        with, epochs must be contiguous from 0, activation times must be
        non-decreasing, and every later announcement must be signed by its
        *predecessor's* key.  Enrollment is strictly additive (idempotent on
        replays), so a forged chain can never displace already-trusted keys
        — at worst it is rejected wholesale with :class:`SignatureError`.
        Returns the number of keys newly enrolled.
        """
        keyring = self.keyring_for(ca_name)
        if keyring is None:
            raise DictionaryError(
                f"RA {self.name!r} holds no rotating keyring for CA {ca_name!r} "
                f"(unknown CA, or pinned to a single key); it cannot learn rotations"
            )
        if not announcements:
            raise SignatureError(f"empty key-announcement chain for {ca_name!r}")
        genesis = announcements[0]
        if (
            genesis.ca_name != ca_name
            or genesis.key_epoch != 0
            or genesis.public_key_bytes != keyring.genesis.key_bytes
        ):
            raise SignatureError(
                f"key-announcement chain for {ca_name!r} is not anchored at "
                f"the trusted genesis key"
            )
        validated = [genesis]
        previous = PublicKey(genesis.public_key_bytes)
        for index, announcement in enumerate(announcements[1:], start=1):
            if announcement.ca_name != ca_name or announcement.key_epoch != index:
                raise SignatureError(
                    f"key-announcement chain for {ca_name!r} has "
                    f"non-contiguous or misattributed epochs"
                )
            if announcement.activated_at < validated[-1].activated_at:
                raise SignatureError(
                    f"key announcement {index} for {ca_name!r} activates a "
                    f"key before its predecessor"
                )
            if not previous.verify(announcement.payload(), announcement.signature):
                raise SignatureError(
                    f"key announcement {index} for {ca_name!r} is not signed "
                    f"by the epoch-{index - 1} key"
                )
            validated.append(announcement)
            previous = PublicKey(announcement.public_key_bytes)
        learned = 0
        for announcement in validated[len(keyring):]:
            keyring.add_key(
                PublicKey(announcement.public_key_bytes),
                activated_at=announcement.activated_at,
                overlap_seconds=announcement.overlap_seconds,
            )
            learned += 1
        self.issuers[ca_name].announcements = tuple(validated)
        return learned

    # -- sharded CAs (§VIII "Ever-growing dictionaries") -----------------------

    def register_sharded_ca(
        self, ca_name: str, width_seconds: int, public_key=None
    ) -> None:
        """Record that ``ca_name`` runs expiry-split dictionaries.

        The per-shard replicas are registered lazily (via
        :meth:`register_shard_replica`) as the dissemination layer
        discovers shards; this records the width, which maps a certificate
        expiry to its shard replica, and the verifier (``public_key``, as
        for :meth:`register_ca`) all of them share.  A verifier already
        registered is kept — it may have learned rotations.
        """
        if width_seconds <= 0:
            raise DictionaryError(
                f"shard width must be a positive number of seconds, got {width_seconds}"
            )
        issuer = self.issuers.setdefault(ca_name, Issuer(ca_name))
        issuer.shard_width = width_seconds
        if issuer.verifier is None:
            issuer.verifier = public_key

    def register_shard_replica(
        self, ca_name: str, shard_index: int, verifier=None
    ) -> ReplicaDictionary:
        """Create (or return) the replica of one expiry shard of ``ca_name``,
        recording its membership in the explicit shard registry — the one
        way a shard replica enters this RA, from discovery and from restore.

        ``ca_name`` must be a sharded CA this RA follows; ``verifier`` is
        adopted as the CA's only when none is registered yet (a restore into
        an agent that never attached).  A name collision with a replica
        registered under a *different* verifier (an unrelated CA whose name
        happens to look like this shard) is rejected rather than captured —
        capturing it would stop its own pulls and eventually prune a live
        CA's replica.
        """
        issuer = self.issuers.get(ca_name)
        if issuer is None or issuer.shard_width is None:
            raise DictionaryError(
                f"RA {self.name!r} follows no sharded CA {ca_name!r}"
            )
        if issuer.verifier is None:
            issuer.verifier = verifier
        name = shard_name(ca_name, shard_index)
        existing = self.replicas.get(name)
        if existing is not None and existing.ca_public_key is not issuer.verifier:
            raise DictionaryError(
                f"replica name {name!r} is already registered for a different "
                f"CA key; refusing to adopt it as a shard of {ca_name!r}"
            )
        issuer.members[shard_index] = name
        self.issuers[name] = issuer
        return self._open_replica(name, issuer.verifier)

    def _drop_shard_replica(self, issuer: Issuer, shard_index: int) -> None:
        """The one way a shard replica leaves this RA (pruned, or failed
        restore): registry entry, replica, issuer alias and cached proofs
        and root verdicts go together."""
        name = issuer.members.pop(shard_index)
        self.replicas.pop(name).close()  # release the store (durable engines)
        del self.issuers[name]
        self.proof_cache.invalidate_dictionary(name)
        self.root_cache.invalidate_ca(name)

    @property
    def shard_widths(self) -> Dict[str, int]:
        """Expiry-shard width of every sharded CA this RA follows."""
        return {
            issuer.name: issuer.shard_width
            for issuer in self.issuers.values()
            if issuer.shard_width is not None
        }

    def replicas_of(self, ca_name: str) -> List[ReplicaDictionary]:
        """Every replica holding ``ca_name``'s revocations: the one named
        after the CA, or each of its shard replicas."""
        own = self.replicas.get(ca_name)
        return [own] if own is not None else list(self.shard_replicas(ca_name).values())

    def replica_for_certificate(
        self, ca_name: str, expiry: Optional[int] = None
    ) -> Optional[ReplicaDictionary]:
        """The replica proving for one certificate of ``ca_name``.

        For unsharded CAs this is the per-CA replica; for sharded CAs the
        certificate's ``expiry`` selects the shard replica.
        """
        replica = self.replicas.get(ca_name)
        if replica is not None:
            return replica
        issuer = self.issuers.get(ca_name)
        if issuer is None or issuer.shard_width is None or expiry is None or expiry < 0:
            return None
        name = issuer.members.get(ShardKey.for_expiry(expiry, issuer.shard_width).index)
        return self.replicas.get(name) if name is not None else None

    def shard_replicas(self, ca_name: str) -> Dict[int, ReplicaDictionary]:
        """This RA's shard replicas of ``ca_name``, keyed by shard index."""
        issuer = self.issuers.get(ca_name)
        return {
            index: self.replicas[name]
            for index, name in (issuer.members.items() if issuer is not None else ())
            if name in self.replicas
        }

    def prune_shard_replicas(self, ca_name: str, now: float) -> Tuple[int, int]:
        """Drop shard replicas whose expiry window has passed.

        Returns ``(entries freed, bytes freed)`` and accumulates both in
        :attr:`pruned_revocations` / :attr:`reclaimed_storage_bytes` — the
        §VIII storage reclamation the sharded deployment mode is about.
        """
        issuer = self.issuers.get(ca_name)
        if issuer is None or issuer.shard_width is None:
            return (0, 0)
        entries = bytes_freed = 0
        for index, replica in list(self.shard_replicas(ca_name).items()):
            if ShardKey(index, issuer.shard_width).is_expired(now):
                entries += replica.size
                bytes_freed += replica.storage_size_bytes()
                self._drop_shard_replica(issuer, index)
                self.stats.shard_replicas_pruned += 1
        self.pruned_revocations += entries
        self.reclaimed_storage_bytes += bytes_freed
        return (entries, bytes_freed)

    # -- crash recovery (docs/STORAGE.md) --------------------------------------

    def checkpoint_state(self) -> AgentCheckpoint:
        """This RA's warm-start state as a value.

        Every replica that serves verified state goes in as the sync
        response to ``have_count = 0`` that describes it
        (:func:`~repro.dictionary.sync.held_state`), beside the shard widths
        and the explicit shard registry.  Replicas that have not completed a
        first sync are skipped — there is nothing verified to persist, and a
        restored RA simply cold-syncs them.  A rotating keyring is persisted
        as its validated key-announcement chain plus its clock; the key
        stored with each of its replicas stays the *genesis* key, the anchor
        the chain must re-validate against on restore.
        """
        checkpoint = AgentCheckpoint(
            agent_name=self.name,
            shard_widths=self.shard_widths,
            shard_members={
                issuer.name: dict(issuer.members)
                for issuer in self.issuers.values()
                if issuer.members
            },
        )
        for ca_name in sorted(self.replicas):
            replica = self.replicas[ca_name]
            if replica.signed_root is None or replica.latest_freshness is None:
                continue
            verifier = replica.ca_public_key
            key_bytes = verifier.key_bytes
            if isinstance(verifier, CAKeyring):
                key_bytes = verifier.genesis.key_bytes
                issuer = self.issuers[ca_name]
                if issuer.announcements:
                    checkpoint.keyrings[issuer.name] = (
                        encode_key_announcements(issuer.announcements),
                        verifier.clock,
                    )
            checkpoint.replicas.append(ReplicaCheckpoint(key_bytes, held_state(replica)))
        return checkpoint

    def restore_state(self, checkpoint: AgentCheckpoint) -> int:
        """Warm-start this RA from a checkpoint value.

        Every persisted replica is a sync response to ``have_count = 0`` and
        is applied as one (:func:`~repro.dictionary.sync.apply_sync_response`):
        the root signature, size, recomputed Merkle root and freshness link
        are checked exactly as for a response off the network.  A replica
        whose state fails is left to cold-sync on the next pull instead of
        aborting the whole restore; a shard replica is dropped entirely, and
        the next shard-index pull rediscovers it.  Shard widths are
        restored and every shard replica re-enters through
        :meth:`register_shard_replica`, so the TLS path maps certificate
        expiries to shard replicas immediately; an entry that registry
        refuses (a name registered under another CA's key, a CA with no
        shard width) is skipped — neither adopted nor warm-started.
        Returns the number of replicas warm-started.
        """
        for ca_name, width in checkpoint.shard_widths.items():
            self.register_sharded_ca(ca_name, width)
        shards = {
            shard_name(ca_name, index): (ca_name, index)
            for ca_name, members in checkpoint.shard_members.items()
            for index in members
        }
        restored = set()
        for entry in checkpoint.replicas:
            name = entry.state.batch.ca_name
            issuer, index = shards.get(name, (name, None))
            keyring_state = checkpoint.keyrings.get(issuer)
            verifier = PublicKey(entry.public_key_bytes)
            if keyring_state is not None:
                verifier = CAKeyring.single(verifier)
            if index is None:
                replica = self.register_ca(name, verifier)
            else:
                # Shard replicas share their CA's verifier (the one a prior
                # attach registered, else this checkpoint's).
                try:
                    replica = self.register_shard_replica(issuer, index, verifier)
                except DictionaryError:
                    continue
            if keyring_state is not None:
                # Rebuild the rotating keyring from the persisted chain,
                # re-validated against the genesis anchor.  A tampered or
                # undecodable chain leaves the keyring genesis-only, so the
                # root verification below rejects any state signed by a
                # rotated key and the replica degrades to cold sync — a
                # doctored checkpoint never smuggles in an untrusted key.
                chain_bytes, clock = keyring_state
                try:
                    self.learn_key_announcements(
                        issuer, decode_key_announcements(chain_bytes)
                    )
                    self.keyring_for(issuer).advance(clock)
                except ReproError:
                    pass
            try:
                apply_sync_response(replica, entry.state)
            except ReproError:
                # The replica serves only what update_many / install_root
                # verified: the checkpointed root (a freshness statement
                # that does not link costs only the freshness — the root's
                # own anchor stands), or nothing it did not hold before.
                pass
            if replica.signed_root == entry.state.batch.signed_root:
                restored.add(name)
            elif index is not None:
                self._drop_shard_replica(self.issuers[issuer], index)
        return len(restored)

    def close(self) -> None:
        """Close every replica's backing store (durable engines release I/O)."""
        for replica in self.replicas.values():
            replica.close()

    def apply_issuances(
        self, ca_name: str, issuances: Sequence[RevocationIssuance]
    ) -> int:
        """Apply consecutive issuance batches in one store transaction.

        This is the entry point the dissemination pull cycle uses: all the
        batches queued since the last pull are verified and merged at once
        (``ReplicaDictionary.update_many``), and every observed signed root
        is fed to the consistency checker.  Returns serials applied.
        """
        replica = self.replicas.get(ca_name)
        if replica is None:
            raise DictionaryError(
                f"RA {self.name!r} has no replica for CA {ca_name!r}"
            )
        applied = replica.update_many(list(issuances))
        if applied:
            # The replica now serves a new root; proofs cached under the old
            # one are unreachable (the root is part of the cache key), so
            # reclaim their space eagerly.
            self.proof_cache.invalidate_dictionary(ca_name)
        for issuance in issuances:
            self.consistency.observe_root(issuance.signed_root)
        return applied

    # -- middlebox interface ------------------------------------------------------

    def processing_delay(self, packet: Packet) -> float:
        """Simulated seconds this RA holds a packet: one fixed per-packet cost."""
        return PER_PACKET_PROCESSING_SECONDS

    def process_packet(self, packet: Packet, now: float) -> List[Packet]:
        """Inspect one on-path packet and return what to forward.

        Anything that is not well-formed TLS passes untouched.  A client's
        flight is recorded and forwarded as is.  On a connection that asked
        for RITM, a server's flight comes back with this RA's revocation
        status attached — on the handshake, and on an established
        connection once Δ has passed since the last one.
        """
        self.stats.packets_seen += 1
        inspection = self.dpi.inspect(packet.payload)
        if not inspection.is_tls or inspection.parse_error is not None:
            # Not TLS, or malformed TLS: forward untouched, never break the connection.
            self.stats.packets_forwarded_transparently += 1
            return [packet]

        key = flow_key(packet.flow)
        if packet.direction is Direction.CLIENT_TO_SERVER:
            self._handle_client_to_server(key, packet, inspection, now)
            return [packet]
        return [self._handle_server_to_client(key, packet, inspection, now)]

    # -- client → server ------------------------------------------------------------

    def _handle_client_to_server(
        self, key: FlowKey, packet: Packet, inspection: InspectionResult, now: float
    ) -> None:
        state = self.connections.get(key)
        if inspection.client_requests_ritm:
            if state is None:
                state = self.connections.create(packet.flow, now)
                self.stats.supported_connections += 1
            state.begin_handshake()
            state.last_activity = now
        elif state is not None:
            state.last_activity = now

    # -- server → client ------------------------------------------------------------

    def _handle_server_to_client(
        self, key: FlowKey, packet: Packet, inspection: InspectionResult, now: float
    ) -> Packet:
        state = self.connections.get(key)
        if state is None:
            # Not a supported connection: transparent forwarding.
            self.stats.packets_forwarded_transparently += 1
            return packet
        state.last_activity = now

        session_id = inspection.server_session_id
        if session_id is not None:
            state.stage = HandshakeStage.SERVER_HELLO
            state.session_id = session_id
        chain = inspection.certificate_chain
        resumed = False
        if chain is not None:
            state.adopt(chain)
            if state.session_id:
                flow = packet.flow
                self.resumption_cache.put(
                    (flow.src_ip, flow.src_port, state.session_id),
                    (
                        state.ca_name,
                        state.serial,
                        state.certificate_expiry,
                        chain if self.config.prove_full_chain else None,
                    ),
                )
        elif (
            inspection.finished_seen
            and state.serial is None
            and state.stage is HandshakeStage.SERVER_HELLO
        ):
            # The server's Finished after a ServerHello and no Certificate:
            # the flight of an abbreviated (resumed) handshake ends here.
            resumed = self._resume(packet.flow, state)

        # A status rides on the handshake flight, then on the first packet
        # of the established connection once Δ has passed (§III step 6).
        if session_id is not None or chain is not None or resumed or (
            state.stage is HandshakeStage.ESTABLISHED
            and (inspection.has_application_data or inspection.finished_seen)
            and state.needs_status(now, self.config.status_refresh_seconds)
        ):
            packet = self._maybe_attach_status(packet, state, inspection, now)

        if inspection.finished_seen:
            state.stage = HandshakeStage.ESTABLISHED
        return packet

    def _resume(self, server_to_client: FiveTuple, state: ConnectionState) -> bool:
        """Abbreviated handshake: recover the certificate of the session the
        ServerHello echoed, keyed by the server's address and that session
        id.  This model's server echoes, for a ticket too, the id of the
        session the ticket was minted for; an RFC 5077 §3.4 server echoes the
        client's own id instead, which this cache does not name."""
        entry = None
        if state.session_id:
            entry = self.resumption_cache.get(
                (server_to_client.src_ip, server_to_client.src_port, state.session_id)
            )
        if entry is None:
            self.stats.resumptions_unknown += 1
            return False
        state.ca_name, state.serial, state.certificate_expiry, state.chain = entry
        self.stats.resumptions_recovered += 1
        return True

    # -- status attachment -------------------------------------------------------------

    def _maybe_attach_status(
        self,
        packet: Packet,
        state: ConnectionState,
        inspection: InspectionResult,
        now: float,
    ) -> Packet:
        if not state.knows_certificate():
            return packet
        encoded = self._encoded_statuses(state)
        if encoded is None:
            return packet
        record = encode_record(ContentType.RITM_STATUS, frame_status_bundle(encoded))

        if inspection.has_ritm_status:
            return self._reconcile_with_existing_status(packet, state, record, now)

        state.mark_status_sent(now)
        self.stats.statuses_attached += 1
        return packet.with_payload(packet.payload + record)

    def build_status(
        self, ca_name: str, serial: SerialNumber, expiry: Optional[int] = None
    ) -> RevocationStatus:
        """Build one certificate's revocation status through the proof cache.

        Identical in content to ``replica.prove(serial)`` — differentially
        tested — but the Merkle audit path is served from
        :attr:`proof_cache` when the same ``(dictionary, root, serial)``
        lookup was answered before (session resumption, flash crowds), while
        the signed root and the freshness statement are always read live so
        a cached proof can never carry a stale epoch.

        Raises :class:`DictionaryError` when no replica covers the
        certificate and :class:`DesynchronizedError` when the replica has no
        verified root yet (mirroring ``prove``).
        """
        replica = self.replica_for_certificate(ca_name, expiry)
        if replica is None:
            raise DictionaryError(
                f"RA {self.name!r} has no replica covering CA {ca_name!r}"
            )
        return self._status_from(ca_name, replica, serial)

    def _proof_entry(self, ca_name: str, replica: ReplicaDictionary, serial: SerialNumber):
        """The proof-cache entry for ``serial`` under the replica's current
        root, with that signed root and the live freshness statement."""
        signed_root = replica.signed_root
        freshness = replica.latest_freshness
        if signed_root is None or freshness is None:
            raise DesynchronizedError(
                f"replica of {replica.ca_name!r} has no signed root / freshness statement yet"
            )
        shard = replica.ca_name if replica.ca_name != ca_name else ""
        entry = self.proof_cache.get(ca_name, shard, signed_root.root, serial.value)
        if entry is None:
            entry = ProofEntry(replica.prove_membership(serial))
            self.proof_cache.put(ca_name, shard, signed_root.root, serial.value, entry)
        return entry, signed_root, freshness

    def _status_from(
        self, ca_name: str, replica: ReplicaDictionary, serial: SerialNumber
    ) -> RevocationStatus:
        """Proof-cached status assembly from an already-resolved replica."""
        entry, signed_root, freshness = self._proof_entry(ca_name, replica, serial)
        return RevocationStatus(entry.proof, signed_root, freshness)

    def _encoded_status(
        self, ca_name: str, replica: ReplicaDictionary, serial: SerialNumber
    ) -> bytes:
        """``encode_status(self._status_from(...))``, encoded once per signed
        root: later calls append the live freshness value to the proof and
        root the proof-cache entry kept encoded from the first."""
        entry, signed_root, freshness = self._proof_entry(ca_name, replica, serial)
        if entry.signature == signed_root.signature:
            return entry.head + encode_freshness(freshness)
        wire = encode_status(RevocationStatus(entry.proof, signed_root, freshness))
        entry.head = wire[: len(wire) - len(freshness.value)]
        entry.signature = signed_root.signature
        return wire

    def _build_statuses(
        self, state: ConnectionState, now: float
    ) -> Optional[List[RevocationStatus]]:
        """The statuses this RA attaches for ``state`` (``None``: none)."""
        return self._covering(state, self._status_from)

    def _encoded_statuses(self, state: ConnectionState) -> Optional[List[bytes]]:
        """:meth:`_build_statuses`, encoded."""
        return self._covering(state, self._encoded_status)

    def _covering(self, state: ConnectionState, build) -> Optional[list]:
        """``build(ca, replica, serial)`` for the server certificate and, with
        ``prove_full_chain``, every issuer certificate a replica covers."""
        replica = self.replica_for_certificate(state.ca_name or "", state.certificate_expiry)
        if replica is None or replica.signed_root is None:
            self.stats.unknown_ca += 1
            return None
        try:
            built = [build(state.ca_name or "", replica, state.serial)]
        except DesynchronizedError:
            return None
        if self.config.prove_full_chain and state.chain is not None:
            for certificate in state.chain.certificates[1:]:
                issuer_replica = self.replica_for_certificate(
                    certificate.issuer, certificate.not_after
                )
                if issuer_replica is not None and issuer_replica.signed_root is not None:
                    built.append(build(certificate.issuer, issuer_replica, certificate.serial))
        return built

    def _reconcile_with_existing_status(
        self,
        packet: Packet,
        state: ConnectionState,
        our_record: bytes,
        now: float,
    ) -> Packet:
        """Multiple-RA handling (§VIII): keep the most recent status only."""
        try:
            records = parse_records(packet.payload)
        except TLSError:
            return packet
        existing: List[RevocationStatus] = []
        passthrough: List[TLSRecord] = []
        for record in records:
            if record.is_ritm_status():
                try:
                    existing.extend(decode_status_bundle(record.payload))
                except TLSError:
                    continue
            else:
                passthrough.append(record)

        for status in existing:
            self.consistency.observe_root(status.signed_root)

        ours = self.replica_for_certificate(state.ca_name, state.certificate_expiry).signed_root
        theirs = existing[0].signed_root if existing else None
        our_view_is_newer = theirs is None or (
            ours.size,
            ours.timestamp,
        ) > (theirs.size, theirs.timestamp)

        if not our_view_is_newer:
            self.stats.statuses_deferred_to_peer += 1
            state.mark_status_sent(now)
            return packet

        state.mark_status_sent(now)
        self.stats.statuses_replaced += 1
        return packet.with_payload(serialize_records(passthrough) + our_record)
