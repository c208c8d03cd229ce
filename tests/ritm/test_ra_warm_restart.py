"""RA crash recovery: checkpoint/restore through the dissemination stack.

A restarted RA that warm-starts from a checkpoint must (a) serve exactly
the verified state it checkpointed, (b) fetch only the delta since its last
applied epoch on the next pull, and (c) end byte-identical to a cold-synced
agent.  Tampered checkpoints must be rejected and degrade to a cold sync,
never into serving unsigned state.
"""

import json
import struct
import zlib

import pytest

from repro.cdn import CDNNetwork, GeoLocation
from repro.cdn.geography import Region
from repro.errors import StorageError
from repro.pki import CertificationAuthority, SerialNumber
from repro.ritm import (
    RITMCertificationAuthority,
    RITMConfig,
    RevocationAgent,
    attach_agent_to_cas,
)
from repro.ritm.persistence import (
    MANIFEST_FILENAME,
    REPLICA_MAGIC,
    load_checkpoint,
)


def build_stack(engine="incremental", sharded=False, tmp=None):
    """A bootstrapped CA + CDN + one attached, synced agent."""
    kwargs = {"sharded": True, "shard_width_seconds": 600} if sharded else {}
    config = RITMConfig(
        delta_seconds=10, chain_length=64, store_engine=engine, **kwargs
    )
    authority = CertificationAuthority("Warm CA", key_seed=b"warm-restart")
    cdn = CDNNetwork()
    ca = RITMCertificationAuthority(authority, config, cdn)
    ca.bootstrap(now=100)
    agent = RevocationAgent("ra-under-test", config)
    client = attach_agent_to_cas(agent, [ca], cdn, GeoLocation(Region.EUROPE))
    client.pull(now=101)
    return config, ca, cdn, agent, client


def issue_and_pull(ca, client, start, periods, per_period=4, base=1000):
    """Revoke ``per_period`` serials per period and pull after each."""
    for period in range(periods):
        now = start + period * 10
        serials = [
            SerialNumber(base + period * per_period + offset)
            for offset in range(per_period)
        ]
        ca.revoke(serials, now=now)
        client.pull(now=now + 5)


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("engine", ["incremental", "durable"])
    def test_restore_reproduces_checkpointed_state(self, engine, tmp_path):
        config, ca, cdn, agent, client = build_stack(engine)
        issue_and_pull(ca, client, 120, periods=5)
        replica = agent.replica_for(ca.name)
        persisted = client.checkpoint(tmp_path)
        assert persisted == 1

        restored_agent = RevocationAgent("ra-under-test", config)
        restored_client = attach_agent_to_cas(
            restored_agent, [ca], cdn, GeoLocation(Region.EUROPE)
        )
        assert restored_client.restore(tmp_path) == 1
        restored = restored_agent.replica_for(ca.name)
        assert restored.root() == replica.root()
        assert restored.size == replica.size
        assert restored.signed_root == replica.signed_root
        assert restored.latest_freshness == replica.latest_freshness
        # proofs and revocation numbers are byte-identical
        serial = SerialNumber(1000)
        assert restored.prove(serial) == replica.prove(serial)
        assert restored.revocation_number(serial) == replica.revocation_number(serial)
        for a in (agent, restored_agent):
            a.close()
        ca.close()

    def test_skips_replicas_without_verified_state(self, tmp_path):
        config, ca, cdn, agent, client = build_stack()
        issue_and_pull(ca, client, 120, periods=2)
        from repro.crypto.signing import KeyPair

        agent.register_ca("Never Synced CA", KeyPair.generate(b"x").public)
        assert client.checkpoint(tmp_path) == 1  # only the synced replica

    def test_load_checkpoint_requires_manifest(self, tmp_path):
        with pytest.raises(StorageError):
            load_checkpoint(tmp_path)


class TestWarmRestartDelta:
    def test_warm_pull_fetches_only_the_delta(self, tmp_path):
        config, ca, cdn, agent, client = build_stack("durable")
        issue_and_pull(ca, client, 120, periods=6)
        client.checkpoint(tmp_path)
        batches_before = ca.issuance_count()

        # the CA keeps revoking while the RA is down
        for period in range(3):
            ca.revoke([SerialNumber(5000 + period)], now=300 + period * 10)

        cold_agent = RevocationAgent("ra-cold", config)
        cold_client = attach_agent_to_cas(
            cold_agent, [ca], cdn, GeoLocation(Region.EUROPE)
        )
        cold_result = cold_client.pull(now=400)

        warm_agent = RevocationAgent("ra-under-test", config)
        warm_client = attach_agent_to_cas(
            warm_agent, [ca], cdn, GeoLocation(Region.EUROPE)
        )
        warm_client.restore(tmp_path)
        warm_result = warm_client.pull(now=400)

        # the warm agent applied exactly the outage delta; the cold one
        # re-applied the whole history
        assert warm_result.serials_applied == 3
        assert warm_result.issuances_applied == ca.issuance_count() - batches_before
        assert cold_result.serials_applied == 6 * 4 + 3
        assert warm_result.bytes_downloaded < cold_result.bytes_downloaded
        assert warm_result.resyncs == 0

        # both converge to byte-identical replicas
        warm_replica = warm_agent.replica_for(ca.name)
        cold_replica = cold_agent.replica_for(ca.name)
        assert warm_replica.root() == cold_replica.root()
        assert warm_replica.size == cold_replica.size
        status_warm = warm_agent.build_status(ca.name, SerialNumber(5000))
        status_cold = cold_agent.build_status(ca.name, SerialNumber(5000))
        assert status_warm.proof == status_cold.proof
        assert status_warm.signed_root == status_cold.signed_root
        for a in (agent, cold_agent, warm_agent):
            a.close()
        ca.close()


class TestTamperedCheckpoints:
    def _checkpointed_stack(self, tmp_path):
        config, ca, cdn, agent, client = build_stack()
        issue_and_pull(ca, client, 120, periods=3)
        client.checkpoint(tmp_path)
        return config, ca, cdn

    def _restore_into_fresh_agent(self, config, ca, cdn, tmp_path):
        agent = RevocationAgent("ra-under-test", config)
        client = attach_agent_to_cas(agent, [ca], cdn, GeoLocation(Region.EUROPE))
        return agent, client.restore(tmp_path)

    def test_flipped_leaf_is_rejected_and_degrades_to_cold_sync(self, tmp_path):
        config, ca, cdn = self._checkpointed_stack(tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_FILENAME).read_text())
        replica_file = tmp_path / manifest["replicas"][0]["file"]
        data = bytearray(replica_file.read_bytes())
        # flip a byte in the leaf region, then fix the CRC so the structural
        # check passes and rejection happens at Merkle-root verification
        import struct
        import zlib

        data[-20] ^= 0xFF
        struct.pack_into(">I", data, len(data) - 4, zlib.crc32(bytes(data[:-4])))
        replica_file.write_bytes(bytes(data))
        agent, restored = self._restore_into_fresh_agent(config, ca, cdn, tmp_path)
        assert restored == 0
        replica = agent.replica_for(ca.name)
        assert replica is not None and replica.size == 0  # empty → cold sync

    def test_corrupt_replica_file_fails_structurally(self, tmp_path):
        config, ca, cdn = self._checkpointed_stack(tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_FILENAME).read_text())
        replica_file = tmp_path / manifest["replicas"][0]["file"]
        data = bytearray(replica_file.read_bytes())
        data[10] ^= 0xFF  # CRC now fails
        replica_file.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            self._restore_into_fresh_agent(config, ca, cdn, tmp_path)


class TestRotationAndReplayCursorCheckpoint:
    """Adversarial control-plane state through a restart (docs/THREATS.md).

    A checkpoint taken mid-rotation must bring back the learned keyring and
    the replay cursors exactly — the restarted RA neither re-learns the
    announcement chain nor rejects the CA's next honest head as a replay.
    A tampered cursor block must degrade to *cold replay state* (cursors
    re-learned from the next pull) without ever touching the warm replica.
    """

    @staticmethod
    def _head_cursors(client):
        """The replay cursors a client holds, by dictionary name (0 = cold)."""
        return {name: feed.head.cursor for name, feed in client.feeds.items()}

    def _restored(self, config, ca, cdn, tmp_path):
        agent = RevocationAgent("ra-under-test", config)
        client = attach_agent_to_cas(agent, [ca], cdn, GeoLocation(Region.EUROPE))
        client.restore(tmp_path)
        return agent, client

    def test_mid_rotation_checkpoint_restores_keyring_and_cursors(self, tmp_path):
        config, ca, cdn, agent, client = build_stack()
        issue_and_pull(ca, client, 120, periods=3)
        ca.rotate_keys(now=160)
        ca.refresh(now=160)  # republish the head under the new key
        mid = client.pull(now=165)
        assert mid.key_rotations_applied == 1
        assert not mid.errors
        keyring = agent.keyring_for(ca.name)
        assert keyring is not None and keyring.key_epoch == ca.key_epoch
        head_cursors = self._head_cursors(client)
        assert head_cursors[ca.name] > 0
        client.checkpoint(tmp_path)

        restored_agent, restored_client = self._restored(config, ca, cdn, tmp_path)
        restored_keyring = restored_agent.keyring_for(ca.name)
        assert restored_keyring is not None
        assert restored_keyring.key_epoch == keyring.key_epoch
        assert [
            record.public_key.key_bytes for record in restored_keyring.records
        ] == [record.public_key.key_bytes for record in keyring.records]
        assert self._head_cursors(restored_client) == head_cursors

        # The CA revokes once more while the RA was down; the warm restart
        # applies exactly that delta — no resync, no re-learned rotation,
        # and crucially no replay rejection of the CA's next honest head.
        ca.revoke([SerialNumber(9000)], now=300)
        warm = restored_client.pull(now=305)
        assert warm.serials_applied == 1
        assert warm.resyncs == 0
        assert warm.replays_rejected == 0
        assert warm.key_rotations_applied == 0
        assert not warm.errors
        assert restored_agent.replica_for(ca.name).contains(SerialNumber(9000))
        for a in (agent, restored_agent):
            a.close()
        ca.close()

    def test_tampered_cursor_block_degrades_to_cold_replay_state(self, tmp_path):
        config, ca, cdn, agent, client = build_stack()
        issue_and_pull(ca, client, 120, periods=3)
        client.checkpoint(tmp_path)
        state_file = tmp_path / client.STATE_FILENAME
        state = json.loads(state_file.read_text())
        assert state["head_cursors"][ca.name] > 0
        # Forge the cursor far into the future — the attack that would brick
        # the pull loop if restore trusted it.  The CRC no longer matches.
        state["head_cursors"][ca.name] += 1_000_000
        state_file.write_text(json.dumps(state))

        restored_agent, restored_client = self._restored(config, ca, cdn, tmp_path)
        # Cursors were dropped wholesale (cold replay state)...
        assert not any(self._head_cursors(restored_client).values())
        # ...but the replica and the applied-batch cursor stayed warm.
        assert restored_agent.replica_for(ca.name).size == agent.replica_for(ca.name).size

        ca.revoke([SerialNumber(9100)], now=300)
        warm = restored_client.pull(now=305)
        assert warm.serials_applied == 1  # still a delta fetch, not a cold sync
        assert warm.replays_rejected == 0
        assert not warm.errors
        # The cursor is re-learned from the first post-restart pull.
        assert self._head_cursors(restored_client)[ca.name] > 0
        for a in (agent, restored_agent):
            a.close()
        ca.close()

    def test_pre_replay_window_checkpoint_restores_without_cursors(self, tmp_path):
        """An honest old checkpoint (written before replay windows existed)
        must warm-start normally — missing cursors are not tampering."""
        config, ca, cdn, agent, client = build_stack()
        issue_and_pull(ca, client, 120, periods=2)
        client.checkpoint(tmp_path)
        state_file = tmp_path / client.STATE_FILENAME
        state = json.loads(state_file.read_text())
        for legacy_absent in ("head_cursors", "index_cursors", "cursor_checksum"):
            state.pop(legacy_absent, None)
        state_file.write_text(json.dumps(state))

        restored_agent, restored_client = self._restored(config, ca, cdn, tmp_path)
        assert not any(self._head_cursors(restored_client).values())
        ca.revoke([SerialNumber(9200)], now=300)
        warm = restored_client.pull(now=305)
        assert warm.serials_applied == 1
        assert warm.resyncs == 0 and not warm.errors
        for a in (agent, restored_agent):
            a.close()
        ca.close()


class TestShardedCheckpoint:
    def test_shard_registry_and_replicas_survive_restart(self, tmp_path):
        config, ca, cdn, agent, client = build_stack("incremental", sharded=True)
        pairs = [(SerialNumber(7000 + n), 150 + 300 * n) for n in range(4)]
        ca.revoke_with_expiry(pairs, now=110)
        client.pull(now=120)
        assert agent.shard_replicas(ca.name)
        client.checkpoint(tmp_path)

        restored_agent = RevocationAgent("ra-under-test", config)
        restored_client = attach_agent_to_cas(
            restored_agent, [ca], cdn, GeoLocation(Region.EUROPE)
        )
        restored = restored_client.restore(tmp_path)
        assert restored == len(agent.shard_replicas(ca.name))
        assert restored_agent.shard_widths == agent.shard_widths
        originals = agent.shard_replicas(ca.name)
        recovered = restored_agent.shard_replicas(ca.name)
        assert recovered.keys() == originals.keys()
        for index, original in originals.items():
            assert recovered[index].root() == original.root()
        # the TLS path maps expiries to shard replicas immediately
        serial, expiry = pairs[0]
        replica = restored_agent.replica_for_certificate(ca.name, expiry)
        assert replica is not None and replica.contains(serial)

    @pytest.mark.parametrize("attached", [True, False])
    def test_rotated_shard_replicas_restore_under_one_shared_keyring(
        self, tmp_path, attached
    ):
        """A mid-rotation checkpoint of a sharded CA's replicas warm-starts
        them all under one keyring rebuilt from the persisted chain — whether
        or not the restoring process attached to the CA first."""
        config, ca, cdn, agent, client = build_stack("incremental", sharded=True)
        pairs = [(SerialNumber(7200 + n), 150 + 600 * n) for n in range(3)]
        ca.revoke_with_expiry(pairs, now=110)
        client.pull(now=115)
        ca.rotate_keys(now=120)
        ca.refresh(now=120)  # republish the heads under the new key
        assert client.pull(now=125).key_rotations_applied == 1
        assert client.checkpoint(tmp_path) == 3

        restored_agent = RevocationAgent("ra-under-test", config)
        if attached:
            attach_agent_to_cas(
                restored_agent, [ca], cdn, GeoLocation(Region.EUROPE)
            ).restore(tmp_path)
        else:
            assert restored_agent.restore(tmp_path) == 3
        keyring = restored_agent.keyring_for(ca.name)
        assert keyring is not None and keyring.key_epoch == 1
        replicas = restored_agent.shard_replicas(ca.name)
        assert len(replicas) == 3
        for index, replica in replicas.items():
            assert replica.ca_public_key is keyring
            assert replica.root() == agent.shard_replicas(ca.name)[index].root()
            assert replica.signed_root.verify(ca.signing_public_key)

    def test_corrupt_shard_replica_is_dropped_not_registered_empty(self, tmp_path):
        """A shard checkpoint that fails verification must vanish entirely:
        no registry entry mapping its expiry window, no stray base-CA
        replica for the pull loop — rediscovery via the shard index
        cold-syncs it instead."""
        import struct
        import zlib

        config, ca, cdn, agent, client = build_stack("incremental", sharded=True)
        pairs = [(SerialNumber(7100 + n), 150 + 300 * n) for n in range(3)]
        ca.revoke_with_expiry(pairs, now=110)
        client.pull(now=120)
        client.checkpoint(tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_FILENAME).read_text())
        target = manifest["replicas"][0]
        replica_file = tmp_path / target["file"]
        data = bytearray(replica_file.read_bytes())
        data[-20] ^= 0xFF  # flip a leaf byte, keep the CRC valid
        struct.pack_into(">I", data, len(data) - 4, zlib.crc32(bytes(data[:-4])))
        replica_file.write_bytes(bytes(data))

        restored_agent = RevocationAgent("ra-under-test", config)
        restored_client = attach_agent_to_cas(
            restored_agent, [ca], cdn, GeoLocation(Region.EUROPE)
        )
        restored_client.restore(tmp_path)
        assert target["ca_name"] not in restored_agent.replicas
        assert not any(
            replica.ca_name == target["ca_name"]
            for replica in restored_agent.shard_replicas(ca.name).values()
        )
        # the next pull rediscovers the dropped shard and cold-syncs it
        restored_client.pull(now=130)
        serial, expiry = pairs[0]
        replica = restored_agent.replica_for_certificate(ca.name, expiry)
        assert replica is not None and replica.contains(serial)


class TestCheckpointFormatEvolution:
    """The replica-file format version gate (docs/STORAGE.md).

    Format 1 is the pre-extension layout still found in old checkpoints: it
    must keep warm-starting byte-for-byte.  Format 2 adds skip-unknown typed
    extension blocks between the leaf dump and the CRC, so a checkpoint
    written by a *newer* build still restores here.  Anything else — unknown
    versions, blocks in a format-1 file, truncated blocks — must fail
    structurally, not half-restore.
    """

    def _checkpointed_stack(self, tmp_path):
        config, ca, cdn, agent, client = build_stack()
        issue_and_pull(ca, client, 120, periods=3)
        client.checkpoint(tmp_path)
        return config, ca, cdn, agent

    def _replica_file(self, tmp_path):
        manifest = json.loads((tmp_path / MANIFEST_FILENAME).read_text())
        return tmp_path / manifest["replicas"][0]["file"]

    @staticmethod
    def _reseal(body: bytes) -> bytes:
        """``body`` (sans CRC) with a freshly computed trailing CRC32."""
        return body + struct.pack(">I", zlib.crc32(body))

    def _rewrite_version(self, data: bytes, version: int) -> bytes:
        body = bytearray(data[:-4])
        struct.pack_into(">H", body, len(REPLICA_MAGIC), version)
        return self._reseal(bytes(body))

    def _restore_into_fresh_agent(self, config, ca, cdn, tmp_path):
        agent = RevocationAgent("ra-under-test", config)
        client = attach_agent_to_cas(agent, [ca], cdn, GeoLocation(Region.EUROPE))
        return agent, client, client.restore(tmp_path)

    def test_legacy_format1_checkpoint_warm_restores(self, tmp_path):
        """A checkpoint downgraded to the exact pre-extension format-1 layout
        (version field + manifest, no trailing blocks) restores warm."""
        config, ca, cdn, agent = self._checkpointed_stack(tmp_path)
        replica_file = self._replica_file(tmp_path)
        replica_file.write_bytes(
            self._rewrite_version(replica_file.read_bytes(), 1)
        )
        manifest_path = tmp_path / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = 1
        manifest_path.write_text(json.dumps(manifest))

        legacy = load_checkpoint(tmp_path)
        assert legacy.replicas[0].extensions == {}
        restored_agent, restored_client, restored = self._restore_into_fresh_agent(
            config, ca, cdn, tmp_path
        )
        assert restored == 1
        original = agent.replica_for(ca.name)
        warm = restored_agent.replica_for(ca.name)
        assert warm.root() == original.root()
        assert warm.size == original.size
        assert warm.signed_root == original.signed_root

        # the warm restart still delta-fetches, exactly like a format-2 one
        ca.revoke([SerialNumber(9300)], now=300)
        result = restored_client.pull(now=305)
        assert result.serials_applied == 1
        assert result.resyncs == 0 and not result.errors
        for a in (agent, restored_agent):
            a.close()
        ca.close()

    def test_unknown_extension_block_is_skipped_not_fatal(self, tmp_path):
        """A format-2 file carrying a block type this build has never heard
        of (a future field) loads, preserves the block, and restores warm."""
        config, ca, cdn, agent = self._checkpointed_stack(tmp_path)
        replica_file = self._replica_file(tmp_path)
        body = bytearray(replica_file.read_bytes()[:-4])
        future_block = b"from-a-newer-build"
        body += struct.pack(">BI", 0xEE, len(future_block)) + future_block
        replica_file.write_bytes(self._reseal(bytes(body)))

        loaded = load_checkpoint(tmp_path)
        assert loaded.replicas[0].extensions == {0xEE: future_block}
        restored_agent, _, restored = self._restore_into_fresh_agent(
            config, ca, cdn, tmp_path
        )
        assert restored == 1
        assert (
            restored_agent.replica_for(ca.name).root()
            == agent.replica_for(ca.name).root()
        )
        for a in (agent, restored_agent):
            a.close()
        ca.close()

    def test_format1_file_rejects_trailing_extension_bytes(self, tmp_path):
        """Format 1 predates extension blocks: trailing bytes are corruption
        there, never silently skipped."""
        config, ca, cdn, agent = self._checkpointed_stack(tmp_path)
        replica_file = self._replica_file(tmp_path)
        body = bytearray(self._rewrite_version(replica_file.read_bytes(), 1)[:-4])
        body += struct.pack(">BI", 0xEE, 4) + b"ext!"
        replica_file.write_bytes(self._reseal(bytes(body)))
        with pytest.raises(StorageError, match="trailing bytes"):
            load_checkpoint(tmp_path)
        agent.close()
        ca.close()

    def test_unsupported_replica_version_is_rejected(self, tmp_path):
        config, ca, cdn, agent = self._checkpointed_stack(tmp_path)
        replica_file = self._replica_file(tmp_path)
        replica_file.write_bytes(
            self._rewrite_version(replica_file.read_bytes(), 3)
        )
        with pytest.raises(StorageError, match="format 3"):
            load_checkpoint(tmp_path)
        agent.close()
        ca.close()

    def test_truncated_extension_block_is_rejected(self, tmp_path):
        """A block header whose declared length runs past the CRC must fail
        structurally rather than swallow the checksum as block body."""
        config, ca, cdn, agent = self._checkpointed_stack(tmp_path)
        replica_file = self._replica_file(tmp_path)
        body = bytearray(replica_file.read_bytes()[:-4])
        body += struct.pack(">BI", 0xEE, 1000) + b"short"
        replica_file.write_bytes(self._reseal(bytes(body)))
        with pytest.raises(StorageError, match="truncated"):
            load_checkpoint(tmp_path)
        agent.close()
        ca.close()
