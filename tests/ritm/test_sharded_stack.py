"""The sharded deployment mode (§VIII) across ca_service → CDN → dissemination → agent.

These tests drive the same pipeline the ``sharded-longrun`` scenario uses,
but at unit scale: a sharded :class:`RITMCertificationAuthority` publishing
per-shard heads/issuances plus a shard index, an RA discovering shards
through the index, proving from shard replicas, and pruning them as their
expiry windows pass.
"""

from __future__ import annotations

import pytest

from repro.cdn.geography import GeoLocation, Region
from repro.cdn.network import CDNNetwork
from repro.crypto.signing import KeyPair
from repro.dictionary.sharding import MAX_CERTIFICATE_LIFETIME_SECONDS, shard_name
from repro.errors import DictionaryError, TLSError
from repro.pki.ca import CertificationAuthority
from repro.pki.serial import SerialNumber
from repro.ritm.agent import RevocationAgent
from repro.ritm.ca_service import (
    RITMCertificationAuthority,
    freshness_path,
    head_path,
    shard_index_path,
)
from repro.ritm.config import RITMConfig
from repro.ritm.dissemination import attach_agent_to_cas
from repro.ritm.messages import ShardIndex, decode_shard_index, encode_shard_index

EPOCH = 1_400_000_000
WEEK = 7 * 86_400


@pytest.fixture()
def sharded_world():
    """A sharded CA, a CDN, and one RA wired for shard discovery."""
    config = RITMConfig(
        delta_seconds=WEEK,
        chain_length=64,
        sharded=True,
        shard_width_seconds=4 * WEEK,
    )
    authority = CertificationAuthority("Sharded CA", key_seed=b"sharded-stack")
    cdn = CDNNetwork()
    ca = RITMCertificationAuthority(authority, config, cdn)
    ca.bootstrap(now=EPOCH)
    agent = RevocationAgent("shard-ra", config)
    client = attach_agent_to_cas(agent, [ca], cdn, GeoLocation(Region.EUROPE))
    return config, authority, cdn, ca, agent, client


class TestShardedCAService:
    def test_bootstrap_publishes_manifest_and_empty_index(self, sharded_world):
        _, _, cdn, ca, _, _ = sharded_world
        manifest_ok = ca.manifest()["sharded"] is True
        assert manifest_ok
        assert ca.manifest()["shard_index"] == shard_index_path(ca.name)
        index = decode_shard_index(
            cdn.download(shard_index_path(ca.name), GeoLocation(Region.EUROPE), EPOCH).content
        )
        assert index.live == ()
        assert index.width_seconds == 4 * WEEK

    def test_revoke_with_expiry_publishes_per_shard_objects(self, sharded_world):
        _, _, cdn, ca, _, _ = sharded_world
        now = EPOCH + WEEK
        issuances = ca.revoke_with_expiry(
            [(SerialNumber(1), now + WEEK), (SerialNumber(2), now + 6 * WEEK)],
            now=now,
        )
        assert len(issuances) == 2
        for key, _ in issuances:
            path = head_path(shard_name(ca.name, key.index))
            assert cdn.origin.exists(path)
        index = decode_shard_index(
            cdn.download(shard_index_path(ca.name), GeoLocation(Region.EUROPE), now).content
        )
        assert set(index.live) == {key.index for key, _ in issuances}

    def test_head_names_a_stream(self, sharded_world):
        """A sharded CA has no stream under its own name, only per-window
        ones; asking for either before it exists is the same error."""
        _, _, _, ca, _, _ = sharded_world
        with pytest.raises(DictionaryError, match="no published dictionary"):
            ca.head()
        with pytest.raises(DictionaryError, match="no published dictionary"):
            ca.head(shard_name(ca.name, 0))
        now = EPOCH + WEEK
        [(key, issuance)] = ca.revoke_with_expiry(
            [(SerialNumber(1), now + WEEK)], now=now
        )
        head = ca.head(shard_name(ca.name, key.index))
        assert head.signed_root.ca_name == issuance.ca_name and head.signed_root.size == 1

    def test_revoke_derives_expiry_from_issued_certificate(self, sharded_world):
        _, authority, _, ca, _, _ = sharded_world
        keys = KeyPair.generate(b"sharded-server")
        certificate = authority.issue("host.example", keys.public, now=EPOCH)
        issuance = ca.revoke([certificate.serial], now=EPOCH + 1)
        expected = shard_name(
            ca.name, certificate.not_after // ca.config.shard_width_seconds
        )
        assert issuance.ca_name == expected

    def test_revoke_unknown_serial_requires_explicit_expiry(self, sharded_world):
        _, _, _, ca, _, _ = sharded_world
        with pytest.raises(DictionaryError, match="revoke_with_expiry"):
            ca.revoke([SerialNumber(404)], now=EPOCH + 1)

    def test_empty_revocation_batch_rejected(self, sharded_world):
        _, _, _, ca, _, _ = sharded_world
        with pytest.raises(DictionaryError, match="at least one serial"):
            ca.revoke_with_expiry([], now=EPOCH + 1)
        with pytest.raises(DictionaryError, match="at least one serial"):
            ca.revoke([], now=EPOCH + 1)

    def test_duplicate_serial_leaves_batch_retryable(self, sharded_world):
        """A duplicate serial anywhere in the batch must fail before any
        other serial is recorded, so the corrected batch can be retried."""
        _, authority, _, ca, _, _ = sharded_world
        now = EPOCH + 1
        ca.revoke_with_expiry([(SerialNumber(1), now + WEEK)], now=now)
        with pytest.raises(DictionaryError, match="already revoked"):
            ca.revoke_with_expiry(
                [(SerialNumber(2), now + WEEK), (SerialNumber(1), now + WEEK)],
                now=now,
            )
        assert not authority.is_revoked(SerialNumber(2))
        with pytest.raises(DictionaryError, match="already revoked"):
            ca.revoke_with_expiry(
                [(SerialNumber(3), now + WEEK), (SerialNumber(3), now + 2 * WEEK)],
                now=now,
            )
        # corrected retries go through
        ca.revoke_with_expiry([(SerialNumber(2), now + WEEK)], now=now)
        assert authority.is_revoked(SerialNumber(2))

    def test_born_retired_expiry_rejected(self, sharded_world):
        """An expiry whose whole shard window already passed would create a
        shard no RA ever replicates; it must be rejected up front."""
        _, authority, _, ca, _, _ = sharded_world
        now = EPOCH + 20 * WEEK
        stale = now - 8 * WEEK  # two full 4-week windows in the past
        with pytest.raises(DictionaryError, match="whole window passed"):
            ca.revoke_with_expiry([(SerialNumber(6), stale)], now=now)
        assert len(ca.streams) == 0
        assert not authority.is_revoked(SerialNumber(6))

    def test_rejected_expiry_leaves_pki_retryable(self, sharded_world):
        """A bad expiry must fail before the issuance CA records anything."""
        _, authority, _, ca, _, _ = sharded_world
        now = EPOCH + 1
        bad = now + MAX_CERTIFICATE_LIFETIME_SECONDS + 1
        with pytest.raises(DictionaryError, match="maximum lifetime"):
            ca.revoke_with_expiry([(SerialNumber(8), bad)], now=now)
        assert not authority.is_revoked(SerialNumber(8))
        assert len(ca.streams) == 0
        # corrected retry succeeds (no duplicate-revocation error)
        ca.revoke_with_expiry([(SerialNumber(8), now + WEEK)], now=now)
        assert authority.is_revoked(SerialNumber(8))

    def test_refresh_retires_expired_shards_and_republishes_index(self, sharded_world):
        _, _, cdn, ca, _, _ = sharded_world
        now = EPOCH + WEEK
        ca.revoke_with_expiry([(SerialNumber(1), now + WEEK)], now=now)
        later = now + 10 * WEEK
        ca.refresh(now=later)
        assert len(ca.streams) == 0
        assert len(ca.retired_windows) == 1
        index = decode_shard_index(
            cdn.download(shard_index_path(ca.name), GeoLocation(Region.EUROPE), later).content
        )
        assert index.live == ()


class TestShardedDissemination:
    def test_pull_discovers_and_replicates_shards(self, sharded_world):
        _, _, _, ca, agent, client = sharded_world
        now = EPOCH + WEEK
        ca.revoke_with_expiry(
            [(SerialNumber(1), now + WEEK), (SerialNumber(2), now + 6 * WEEK)],
            now=now,
        )
        result = client.pull(now=now + 1)
        assert not result.errors
        assert result.shard_indexes_checked == 1
        assert result.heads_checked == 2
        assert result.serials_applied == 2
        replicas = agent.shard_replicas(ca.name)
        assert len(replicas) == 2
        assert sum(replica.size for replica in replicas.values()) == 2

    def test_shard_replica_proves_revoked_and_absent(self, sharded_world):
        _, _, _, ca, agent, client = sharded_world
        now = EPOCH + WEEK
        expiry = now + WEEK
        ca.revoke_with_expiry([(SerialNumber(5), expiry)], now=now)
        client.pull(now=now + 1)
        replica = agent.replica_for_certificate(ca.name, expiry)
        assert replica is not None
        assert replica.prove(SerialNumber(5)).is_revoked
        assert not replica.prove(SerialNumber(6)).is_revoked

    def test_pull_applies_queued_batches_per_shard(self, sharded_world):
        _, _, _, ca, agent, client = sharded_world
        now = EPOCH + WEEK
        expiry = now + 2 * WEEK
        ca.revoke_with_expiry([(SerialNumber(1), expiry)], now=now)
        ca.revoke_with_expiry([(SerialNumber(2), expiry)], now=now + 10)
        ca.revoke_with_expiry([(SerialNumber(3), expiry)], now=now + 20)
        result = client.pull(now=now + 30)
        assert not result.errors
        assert result.serials_applied == 3
        replicas = agent.shard_replicas(ca.name)
        assert sum(replica.size for replica in replicas.values()) == 3

    def test_pull_prunes_expired_replicas_and_reclaims_storage(self, sharded_world):
        _, _, _, ca, agent, client = sharded_world
        now = EPOCH + WEEK
        ca.revoke_with_expiry(
            [(SerialNumber(1), now + WEEK), (SerialNumber(2), now + 6 * WEEK)],
            now=now,
        )
        client.pull(now=now + 1)
        assert len(agent.shard_replicas(ca.name)) == 2
        later = now + 5 * WEEK
        ca.refresh(now=later)
        result = client.pull(now=later + 1)
        assert not result.errors
        assert result.shards_pruned == 1
        assert result.entries_pruned == 1
        assert result.bytes_reclaimed > 0
        assert agent.stats.shard_replicas_pruned == 1
        assert agent.reclaimed_storage_bytes == result.bytes_reclaimed
        replicas = agent.shard_replicas(ca.name)
        assert list(replicas) == [
            (now + 6 * WEEK) // ca.config.shard_width_seconds
        ]
        # Nothing outlives a pruned replica: no feed, no issuer alias.
        assert set(client.feeds) == set(agent.replicas)
        assert set(agent.issuers) == {ca.name} | set(agent.replicas)

    def test_stale_index_entries_are_not_rereplicated(self, sharded_world):
        """A cached index listing an already-expired shard must not make the
        RA re-download and re-prune it (double-counting reclaimed bytes)."""
        _, _, _, ca, agent, client = sharded_world
        now = EPOCH + WEEK
        ca.revoke_with_expiry([(SerialNumber(1), now + WEEK)], now=now)
        client.pull(now=now + 1)
        # The CA never refreshes, so the published index still lists the
        # shard as live long after its window has passed.
        later = now + 10 * WEEK
        first = client.pull(now=later)
        assert first.shards_pruned == 1
        reclaimed = agent.reclaimed_storage_bytes
        second = client.pull(now=later + 1)
        assert second.shards_pruned == 0
        assert second.serials_applied == 0
        assert agent.reclaimed_storage_bytes == reclaimed
        assert agent.shard_replicas(ca.name) == {}

    def test_a_replayed_index_only_omits_what_opened_since(self, sharded_world):
        """An index captured before a window opened, replayed once the RA
        holds that window: nothing orders one index against another, and
        nothing needs to.  The replay drops no replica (only the RA's clock
        prunes), re-registers no window that has since expired, and the next
        honest index changes nothing."""
        _, _, cdn, ca, agent, client = sharded_world
        now = EPOCH + WEEK
        width = ca.config.shard_width_seconds
        ca.revoke_with_expiry(
            [(SerialNumber(1), now + WEEK), (SerialNumber(2), now + 6 * WEEK)], now=now
        )
        client.pull(now=now + 1)
        captured = cdn.origin.fetch(shard_index_path(ca.name)).content
        ca.revoke_with_expiry([(SerialNumber(3), now + 10 * WEEK)], now=now + 10)
        client.pull(now=now + 11)
        expired, opened = (now + WEEK) // width, (now + 10 * WEEK) // width
        assert opened not in decode_shard_index(captured).live
        later = now + 5 * WEEK
        ca.refresh(now=later)
        assert client.pull(now=later + 1).shards_pruned == 1
        held = dict(agent.shard_replicas(ca.name))
        assert expired not in held and opened in held and len(held) == 2
        honest = cdn.origin.fetch(shard_index_path(ca.name)).content

        for index, at in ((captured, later + 2), (honest, later + 4)):
            cdn.publish(shard_index_path(ca.name), index, at)
            result = client.pull(now=at + 1)
            assert not result.errors
            assert (result.shards_pruned, result.serials_applied, result.resyncs) == (0, 0, 0)
            assert agent.shard_replicas(ca.name) == held
            assert set(client.feeds) == set(agent.replicas)

    def test_forged_zero_width_index_is_rejected(self, sharded_world):
        """A forged width must neither crash ShardKey math nor overwrite the
        agent's configured shard width (the index is unauthenticated)."""
        _, _, cdn, ca, agent, client = sharded_world
        now = EPOCH + WEEK
        ca.revoke_with_expiry([(SerialNumber(1), now + WEEK)], now=now)
        client.pull(now=now + 1)
        forged = encode_shard_index(ShardIndex(ca.name, 0, ()))
        cdn.publish(shard_index_path(ca.name), forged, now + 2)
        with pytest.raises(TLSError, match="shard index"):
            decode_shard_index(forged)
        result = client.pull(now=now + 3)
        assert any("shard index" in error for error in result.errors)
        # width survives, so the TLS-path lookup keeps working
        assert agent.shard_widths[ca.name] == ca.config.shard_width_seconds
        assert agent.replica_for_certificate(ca.name, now + WEEK) is not None

    def test_forged_width_index_cannot_remap_replicas(self, sharded_world):
        """A forged (but positive) width must not overwrite the configured
        width — which would mass-expire every held replica on the next prune."""
        _, _, cdn, ca, agent, client = sharded_world
        now = EPOCH + WEEK
        ca.revoke_with_expiry([(SerialNumber(1), now + WEEK)], now=now)
        client.pull(now=now + 1)
        held_before = dict(agent.shard_replicas(ca.name))
        forged = encode_shard_index(ShardIndex(ca.name, 1, ()))
        cdn.publish(shard_index_path(ca.name), forged, now + 2)
        result = client.pull(now=now + 3)
        assert any("advertises width" in error for error in result.errors)
        assert agent.shard_widths[ca.name] == ca.config.shard_width_seconds
        assert agent.shard_replicas(ca.name) == held_before
        assert result.shards_pruned == 0

    def test_duplicate_index_entries_cost_one_fetch(self, sharded_world):
        """A forged index repeating one live shard many times must not
        multiply the RA's per-pull head fetches."""
        _, _, cdn, ca, agent, client = sharded_world
        now = EPOCH + WEEK
        ca.revoke_with_expiry([(SerialNumber(1), now + WEEK)], now=now)
        live = (now + WEEK) // ca.config.shard_width_seconds
        forged = encode_shard_index(
            ShardIndex(ca.name, ca.config.shard_width_seconds, (live,) * 500)
        )
        cdn.publish(shard_index_path(ca.name), forged, now)
        result = client.pull(now=now + 1)
        assert not result.errors
        assert result.heads_checked == 1
        assert len(agent.shard_replicas(ca.name)) == 1

    def test_forged_far_future_index_does_not_register_replicas(self, sharded_world):
        """A forged index listing implausible far-future shards must not grow
        the agent's replica set (those windows never expire, so the replicas
        could never be pruned)."""
        _, _, cdn, ca, agent, client = sharded_world
        now = EPOCH + WEEK
        width = ca.config.shard_width_seconds
        far_future = (now + 3 * MAX_CERTIFICATE_LIFETIME_SECONDS) // width
        forged = encode_shard_index(ShardIndex(ca.name, width, (far_future, far_future + 1)))
        cdn.publish(shard_index_path(ca.name), forged, now)
        result = client.pull(now=now + 1)
        assert sum("implausible far-future" in error for error in result.errors) == 2
        assert agent.shard_replicas(ca.name) == {}
        assert len(agent.replicas) == 0

    def test_unrelated_ca_with_shard_like_name_is_not_captured(self):
        """A CA legitimately named '<ca>#expiry-<n>' must keep pulling and
        never be adopted or pruned as if it were a shard of the sharded CA —
        even once the sharded CA's index lists that very shard as live."""
        width = 2 * WEEK
        sharded_cfg = RITMConfig(
            delta_seconds=WEEK, chain_length=64, sharded=True,
            shard_width_seconds=width,
        )
        plain_cfg = RITMConfig(delta_seconds=WEEK, chain_length=64)
        cdn = CDNNetwork()
        sharded_ca = RITMCertificationAuthority(
            CertificationAuthority("Decoy CA", key_seed=b"decoy-base"), sharded_cfg, cdn
        )
        # Name the unrelated CA after a *current* window, so the sharded CA
        # can later publish that exact shard as live (the collision case).
        collision_index = (EPOCH + WEEK) // width
        weird_name = shard_name("Decoy CA", collision_index)
        weird_ca = RITMCertificationAuthority(
            CertificationAuthority(weird_name, key_seed=b"decoy-weird"), plain_cfg, cdn
        )
        sharded_ca.bootstrap(now=EPOCH)
        weird_ca.bootstrap(now=EPOCH)
        agent = RevocationAgent("decoy-ra", sharded_cfg)
        client = attach_agent_to_cas(
            agent, [sharded_ca, weird_ca], cdn, GeoLocation(Region.EUROPE)
        )
        weird_ca.revoke([SerialNumber(11)], now=EPOCH + 1)
        result = client.pull(now=EPOCH + 2)
        assert not result.errors
        assert agent.replica_for(weird_name).size == 1
        # The sharded CA now publishes the colliding shard as live: the
        # agent must refuse to adopt the unrelated CA's replica as a shard.
        sharded_ca.revoke_with_expiry(
            [(SerialNumber(5), EPOCH + WEEK)], now=EPOCH + 3
        )
        result = client.pull(now=EPOCH + 4)
        assert any("different" in error and "CA key" in error for error in result.errors)
        assert agent.shard_replicas("Decoy CA") == {}
        assert agent.replica_for(weird_name).size == 1
        # The unrelated CA keeps being pulled and is never pruned.
        weird_ca.revoke([SerialNumber(12)], now=EPOCH + 5)
        far = EPOCH + 50 * WEEK
        sharded_ca.refresh(now=far)
        result = client.pull(now=far + 1)
        assert agent.replica_for(weird_name) is not None
        assert agent.replica_for(weird_name).size == 2
        assert result.shards_pruned == 0


class TestShardStreams:
    """A shard is a stream like any other: key rotation, WAL segments, and
    the pull cycle's error boundary apply to it unchanged."""

    def test_rotation_resigns_every_live_shard_and_ras_follow(self, sharded_world):
        _, _, _, ca, agent, client = sharded_world
        now = EPOCH + WEEK
        ca.revoke_with_expiry(
            [(SerialNumber(1), now + WEEK), (SerialNumber(2), now + 6 * WEEK)], now=now
        )
        client.pull(now=now + 1)
        replicas = agent.shard_replicas(ca.name)
        assert len(replicas) == 2
        keyring = agent.keyring_for(ca.name)
        assert all(replica.ca_public_key is keyring for replica in replicas.values())

        roots = ca.rotate_keys(now + 10)
        assert sorted(roots) == sorted(replica.ca_name for replica in replicas.values())
        assert ca.key_epoch == 1
        ca.refresh(now=now + 10)  # republish the heads under the new key
        result = client.pull(now=now + 11)
        assert not result.errors
        # One announcement fetch taught the shared keyring; both shards
        # installed their re-signed roots.
        assert result.key_rotations_applied == 1
        assert keyring.key_epoch == 1
        for replica in replicas.values():
            assert replica.signed_root == ca.head(replica.ca_name).signed_root
            assert replica.signed_root.verify(ca.keyring.active)

        # A window opened after the rotation is signed by the new key, and
        # statuses keep proving across it.
        ca.revoke_with_expiry([(SerialNumber(3), now + 11 * WEEK)], now=now + 20)
        assert not client.pull(now=now + 21).errors
        assert len(agent.shard_replicas(ca.name)) == 3
        status = agent.build_status(ca.name, SerialNumber(3), expiry=now + 11 * WEEK)
        assert status.is_revoked and status.signed_root.verify(ca.keyring.active)

    def test_scheduled_rotation_fires_from_refresh(self):
        config = RITMConfig(
            delta_seconds=WEEK, chain_length=64, sharded=True,
            shard_width_seconds=4 * WEEK, key_rotation_periods=2, key_overlap_periods=1,
        )
        cdn = CDNNetwork()
        ca = RITMCertificationAuthority(
            CertificationAuthority("Rotating Sharded CA", key_seed=b"rot-shard"), config, cdn
        )
        ca.bootstrap(now=EPOCH)
        agent = RevocationAgent("rot-ra", config)
        client = attach_agent_to_cas(agent, [ca], cdn, GeoLocation(Region.EUROPE))
        now = EPOCH + WEEK
        ca.revoke_with_expiry([(SerialNumber(1), now + 2 * WEEK)], now=now)
        for period in range(1, 5):
            ca.refresh(now=now + period * WEEK // 2)
            assert not client.pull(now=now + period * WEEK // 2 + 1).errors
        assert ca.key_epoch == 2
        assert agent.keyring_for(ca.name).key_epoch == 2

    def test_batch_object_catch_up_of_a_shard_replica(self, sharded_world):
        """A shard replica reaches the CA's state from its batch objects, one
        GET each, and archives them for a peer."""
        _, _, cdn, ca, agent, client = sharded_world
        now = EPOCH + WEEK
        expiry = now + 2 * WEEK
        for offset in range(3):
            ca.revoke_with_expiry(
                [(SerialNumber(10 + offset), expiry)], now=now + 10 * offset
            )
        [stream] = ca.streams.values()
        assert stream.dictionary.size == 3  # three one-serial batches
        client.segment_streaming = True
        fetched = []
        download = cdn.download
        cdn.download = lambda path, *args, **kwargs: (
            fetched.append(path),
            download(path, *args, **kwargs),
        )[1]
        result = client.pull(now=now + 30)
        cdn.download = download
        assert not result.errors
        assert result.issuances_applied == 3 and result.serials_applied == 3
        assert client.replication_cursor(stream.name) == 3
        # the shard is new to the RA: its head, then a walk over all three
        assert sum("/issuance/" in path for path in fetched) == 3
        assert sorted(client.feeds[stream.name].batches) == [1, 2, 3]
        replica = agent.replica_for(stream.name)
        assert replica.root() == stream.dictionary.root()
        assert replica.latest_freshness == stream.dictionary.latest_freshness

        # ... and a second RA catches up peer-to-peer from the first.
        late = RevocationAgent("late-ra", ca.config)
        late_client = attach_agent_to_cas(late, [ca], cdn, GeoLocation(Region.EUROPE))
        relayed = late_client.sync_from_peer(client, now + 31)
        assert relayed.batches_from_peer == 3 and relayed.cold_sync_fallbacks == 0
        assert late.replica_for(stream.name).root() == stream.dictionary.root()

    @pytest.mark.parametrize(
        "polled, damage",
        [
            ("freshness", "empty"),
            ("head", "truncated"),
            ("head", "invalid-utf8-name"),
        ],
    )
    def test_bad_polled_object_of_one_shard_does_not_abort_the_cycle(
        self, sharded_world, polled, damage
    ):
        """``freshness``: a synced shard's every-Δ object is empty, which no
        value is, so the RA records it and reads that shard's head, whose
        statement it takes (a value of another width is a statement that
        links nowhere, which sends the RA to the head too; one over 32 bytes
        is a batch object).  ``head``: the shards are new to the RA, so it
        reads their heads — one of them damaged."""
        _, _, cdn, ca, agent, client = sharded_world
        now = EPOCH + WEEK
        ca.revoke_with_expiry(
            [(SerialNumber(1), now + WEEK), (SerialNumber(2), now + 6 * WEEK)], now=now
        )
        if polled == "freshness":
            client.pull(now=now + 1)
        ca.refresh(now=now + 10)
        broken, healthy = list(ca.streams.values())
        path = (freshness_path if polled == "freshness" else head_path)(broken.name)
        honest = cdn.origin.fetch(path).content
        bad = {
            "empty": b"",
            "truncated": honest[: len(honest) // 2],
            "invalid-utf8-name": honest[:2] + b"\xff" + honest[3:],
        }[damage]
        cdn.publish(path, bad, now + 10)
        result = client.pull(now=now + 11)
        assert len(result.errors) == 1 and result.errors[0].startswith(broken.name)
        assert result.heads_checked == (1 if polled == "freshness" else 2)
        assert result.freshness_applied == (2 if polled == "freshness" else 1)
        assert (
            agent.replica_for(healthy.name).latest_freshness
            == healthy.dictionary.latest_freshness
        )
        if polled == "freshness":
            assert (
                agent.replica_for(broken.name).latest_freshness
                == broken.dictionary.latest_freshness
            )

    @pytest.mark.parametrize("synced", [False, True], ids=["first-contact", "already-synced"])
    def test_another_shards_head_served_at_this_shards_path_is_refused(
        self, sharded_world, synced
    ):
        """Every shard of a CA verifies under one keyring and two empty
        shards have the same root hash, so neither the signature nor the
        content can tell shard B's root from shard A's: the name must.
        Whoever controls a CDN path serves B's object at A's path — B's head
        to an RA that has never read A (it reads A's head): A installs
        nothing and says why.  B's freshness object to one that has read A:
        it links to no anchor A holds, so the RA reads A's head, which
        leaves A as it was.  A recovers on the next honest pull; B is
        unaffected."""
        config, _, cdn, ca, agent, client = sharded_world
        now = EPOCH + WEEK
        expiry_a, expiry_b = now + WEEK, now + WEEK + config.shard_width_seconds
        assert ca.cover([expiry_a], now=now) == 1
        if synced:
            client.pull(now=now)
        assert ca.cover([expiry_b], now=now + 1) == 1  # B's root is the newer one
        a, b = sorted(ca.streams)
        before = agent.replica_for(a).signed_root if synced else None
        path = freshness_path if synced else head_path
        honest = cdn.origin.fetch(path(a)).content
        cdn.publish(path(a), cdn.origin.fetch(path(b)).content, now + 1)

        swapped = client.pull(now=now + 2)
        replica_a, replica_b = agent.replica_for(a), agent.replica_for(b)
        assert replica_a.signed_root == before
        if synced:
            # A's head, after B's statement; B's own, the RA's first of B.
            assert not swapped.errors and swapped.heads_checked == 2
            assert replica_a.latest_freshness == ca.streams[a].dictionary.latest_freshness
        else:
            assert replica_a.latest_freshness is None
            assert len(swapped.errors) == 1
            assert swapped.errors[0].startswith(f"{a}: signed root for {b!r}")
        assert replica_b.signed_root == ca.streams[b].dictionary.signed_root

        cdn.publish(path(a), honest, now + 3)
        recovered = client.pull(now=now + 4)
        assert not recovered.errors and recovered.replays_rejected == 0
        assert replica_a.signed_root == ca.streams[a].dictionary.signed_root
        status = agent.build_status(ca.name, SerialNumber(77), expiry_a)
        assert status.signed_root.ca_name == status.ca_name == a
        status.verify(ca.keyring.active, now=now + 4, delta=config.delta_seconds)


class TestAgentShardLookup:
    def test_replica_for_certificate_unsharded_passthrough(self):
        config = RITMConfig(delta_seconds=10, chain_length=64)
        agent = RevocationAgent("plain-ra", config)
        keys = KeyPair.generate(b"plain")
        replica = agent.register_ca("Plain CA", keys.public)
        assert agent.replica_for_certificate("Plain CA", expiry=123) is replica

    def test_replica_for_certificate_requires_known_width(self):
        config = RITMConfig(delta_seconds=10, chain_length=64)
        agent = RevocationAgent("plain-ra", config)
        assert agent.replica_for_certificate("Unknown CA", expiry=123) is None

    def test_sharded_lookup_maps_expiry_to_shard(self, sharded_world):
        _, _, _, ca, agent, client = sharded_world
        now = EPOCH + WEEK
        expiry = now + 6 * WEEK
        ca.revoke_with_expiry([(SerialNumber(9), expiry)], now=now)
        client.pull(now=now + 1)
        replica = agent.replica_for_certificate(ca.name, expiry)
        index = expiry // ca.config.shard_width_seconds
        assert replica is agent.replicas[shard_name(ca.name, index)]
        # An expiry in a window the RA holds no replica for answers None.
        assert agent.replica_for_certificate(ca.name, expiry + 20 * WEEK) is None
