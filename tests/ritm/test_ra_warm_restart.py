"""RA crash recovery: checkpoint/restore through the dissemination stack.

A restarted RA that warm-starts from a checkpoint must (a) serve exactly
the verified state it checkpointed, (b) fetch only the delta since its last
applied epoch on the next pull, and (c) end byte-identical to a cold-synced
agent.  Tampered checkpoints must be rejected and degrade to a cold sync,
never into serving unsigned state.  The checkpoint is one file replaced
atomically, so a crash at any instant of a re-checkpoint leaves the previous
one or the new one.
"""

import os
import shutil
import struct
import zlib

import pytest

from repro.cdn import CDNNetwork, GeoLocation
from repro.cdn.geography import Region
from repro.dictionary.sharding import shard_name
from repro.errors import StorageError
from repro.pki import CertificationAuthority, SerialNumber
from repro.ritm import (
    RITMCertificationAuthority,
    RITMConfig,
    RevocationAgent,
    attach_agent_to_cas,
)
from repro.ritm.persistence import (
    CHECKPOINT_FILENAME,
    CHECKPOINT_MAGIC,
    load_checkpoint,
    write_checkpoint,
)

from tests.ritm.conftest import oversized_key_chain


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


def reseal(body: bytes) -> bytes:
    """``body`` (a checkpoint file sans CRC) with a freshly computed CRC32."""
    return body + struct.pack(">I", zlib.crc32(body))


def tamper(directory, old: bytes, new: bytes) -> None:
    """Swap the one occurrence of ``old`` in the checkpoint file for ``new``
    and fix the file's CRC, so only what the bytes *say* can be refused."""
    path = directory / CHECKPOINT_FILENAME
    body = path.read_bytes()[:-4]
    assert body.count(old) == 1
    path.write_bytes(reseal(body.replace(old, new)))


def framed_serial(value: int) -> bytes:
    """A 3-byte serial as a batch object frames it: one length byte."""
    return b"\x03" + value.to_bytes(3, "big")


def restored_stack(config, ca, cdn, directory):
    """A fresh agent + client attached to ``ca`` and restored from ``directory``."""
    agent = RevocationAgent("ra-under-test", config)
    client = attach_agent_to_cas(agent, [ca], cdn, GeoLocation(Region.EUROPE))
    return agent, client, client.restore(directory)


class TestCheckpointRoundTrip:
    def test_sync_response_and_checkpoint_bytes_are_pinned(self, tmp_path, monkeypatch):
        """A batch object on the CDN no longer ends with the statement served
        after its batch (its root's anchor), but a sync response still ends
        with the replica's statement, and a checkpoint stores one per
        replica: for this replica — two batches, then a period-1 statement —
        both are byte for byte what they were when every batch object ended
        with that statement, under ``CHECKPOINT_FORMAT`` 6.  The hash
        chains' seeds are made deterministic for the pin."""
        import hashlib
        import itertools

        from repro.dictionary.sync import SyncRequest, held_state
        from repro.ritm.messages import encode_sync_response
        from repro.ritm.persistence import CHECKPOINT_FORMAT
        from tests.ritm.conftest import build_stack as build_publishing_stack

        seeds = itertools.count()
        monkeypatch.setattr(
            os, "urandom", lambda n: hashlib.sha256(b"pinned-%d" % next(seeds)).digest()[:n]
        )
        _, ca, _, attach = build_publishing_stack()
        agent, client = attach("pinned-ra")
        client.pull(now=101)
        for number, now in ((1, 110), (2, 120)):
            ca.revoke([SerialNumber(0x0A0B00 + 4 * number + k) for k in range(3)], now=now)
            client.pull(now=now + 1)
        ca.refresh(now=135)
        client.pull(now=136)
        sync = encode_sync_response(held_state(agent.replica_for(ca.name)))
        assert sync == encode_sync_response(ca.sync_server.serve(SyncRequest(ca.name, 0)))
        client.checkpoint(tmp_path)
        checkpoint = (tmp_path / CHECKPOINT_FILENAME).read_bytes()

        assert CHECKPOINT_FORMAT == 6
        assert (len(sync), hashlib.sha256(sync).hexdigest()) == (
            192,
            "946cd60760a2b7d2ed761bb9e6403f0fb68d7c74c07247d0a8a162f20a5a223b",
        )
        assert (len(checkpoint), hashlib.sha256(checkpoint).hexdigest()) == (
            271,
            "3cb700c9730f9f4a0127c3d97fee1ec3d2344f67ff536c946fc3c681ec9e22ec",
        )

    @pytest.mark.parametrize("engine", ["incremental", "durable"])
    def test_restore_reproduces_checkpointed_state(self, engine, tmp_path):
        config, ca, cdn, agent, client = build_stack(engine)
        issue_and_pull(ca, client, 120, periods=5)
        replica = agent.replica_for(ca.name)
        persisted = client.checkpoint(tmp_path)
        assert persisted == 1
        assert os.listdir(tmp_path) == [CHECKPOINT_FILENAME]

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

    def test_load_checkpoint_requires_the_file(self, tmp_path):
        with pytest.raises(StorageError):
            load_checkpoint(tmp_path)

    def test_directory_holds_one_file_after_any_number_of_checkpoints(self, tmp_path):
        config, ca, cdn, agent, client = build_stack()
        for round_ in range(4):
            issue_and_pull(ca, client, 120 + 20 * round_, periods=2, base=1000 + 100 * round_)
            client.checkpoint(tmp_path)
            assert os.listdir(tmp_path) == [CHECKPOINT_FILENAME]
        checkpoint = load_checkpoint(tmp_path)
        assert len(checkpoint.replicas[0].state.batch.serials) == agent.replica_for(ca.name).size


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
        # change one serial and fix the CRC, so the structural check passes
        # and rejection happens at Merkle-root verification
        tamper(tmp_path, framed_serial(1005), framed_serial(1999))
        agent, restored = self._restore_into_fresh_agent(config, ca, cdn, tmp_path)
        assert restored == 0
        replica = agent.replica_for(ca.name)
        assert replica is not None and replica.size == 0  # empty → cold sync
        assert replica.signed_root is None

    def test_reordered_history_is_rejected(self, tmp_path):
        """The serials are the revocation *order*: the same set numbered
        differently is a different dictionary."""
        config, ca, cdn = self._checkpointed_stack(tmp_path)
        pair = framed_serial(1000) + framed_serial(1001)
        tamper(tmp_path, pair, framed_serial(1001) + framed_serial(1000))
        agent, restored = self._restore_into_fresh_agent(config, ca, cdn, tmp_path)
        assert restored == 0 and agent.replica_for(ca.name).size == 0

    def test_forged_root_signature_is_rejected(self, tmp_path):
        config, ca, cdn = self._checkpointed_stack(tmp_path)
        signature = load_checkpoint(tmp_path).replicas[0].state.batch.signed_root.signature
        tamper(tmp_path, signature, bytes(len(signature)))
        agent, restored = self._restore_into_fresh_agent(config, ca, cdn, tmp_path)
        assert restored == 0 and agent.replica_for(ca.name).signed_root is None

    def test_freshness_that_does_not_link_costs_only_the_freshness(self, tmp_path):
        config, ca, cdn, agent, client = build_stack()
        issue_and_pull(ca, client, 120, periods=3)
        ca.refresh(now=165)  # a period later: the statement is past the anchor
        client.pull(now=166)
        client.checkpoint(tmp_path)
        state = load_checkpoint(tmp_path).replicas[0].state
        assert state.freshness.value != state.batch.signed_root.anchor
        tamper(tmp_path, state.freshness.value, bytes(20))
        agent, restored = self._restore_into_fresh_agent(config, ca, cdn, tmp_path)
        assert restored == 1
        replica = agent.replica_for(ca.name)
        assert replica.signed_root == state.batch.signed_root
        assert replica.latest_freshness.value == state.batch.signed_root.anchor

    def test_corrupt_file_fails_structurally(self, tmp_path):
        config, ca, cdn = self._checkpointed_stack(tmp_path)
        path = tmp_path / CHECKPOINT_FILENAME
        data = bytearray(path.read_bytes())
        data[10] ^= 0xFF  # CRC now fails
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            self._restore_into_fresh_agent(config, ca, cdn, tmp_path)

    def test_a_flipped_byte_anywhere_fails_the_one_crc(self, tmp_path):
        """Shard registry, keyrings and replica state sit under one
        checksum: there is no block whose corruption goes unnoticed."""
        self._checkpointed_stack(tmp_path)
        path = tmp_path / CHECKPOINT_FILENAME
        data = path.read_bytes()
        for at in range(len(data)):
            path.write_bytes(data[:at] + bytes([data[at] ^ 0x40]) + data[at + 1 :])
            with pytest.raises(StorageError):
                load_checkpoint(tmp_path)

    def test_the_file_is_format_6_and_a_format_5_file_is_refused(self, tmp_path):
        """Format 5 carried each replica's sync response as issuance-object
        chunks; no decoder for it is kept."""
        self._checkpointed_stack(tmp_path)
        path = tmp_path / CHECKPOINT_FILENAME
        body = path.read_bytes()[:-4]
        at = len(CHECKPOINT_MAGIC)
        assert body[at : at + 2] == b"\x00\x06"
        path.write_bytes(reseal(body[:at] + b"\x00\x05" + body[at + 2 :]))
        with pytest.raises(StorageError, match="has format 5; this build reads format 6"):
            load_checkpoint(tmp_path)

    def test_framing_errors_under_a_valid_crc_are_storage_errors(self, tmp_path):
        self._checkpointed_stack(tmp_path)
        path = tmp_path / CHECKPOINT_FILENAME
        body = path.read_bytes()[:-4]
        at = len(CHECKPOINT_MAGIC)
        for doctored, message in [
            # Format 1 carried a per-CA shard-index pull count: an old file
            # is a clear format mismatch, not a framing error.
            (body[:at] + b"\x00\x01" + body[at + 2 :], "has format 1; this build reads format 6"),
            (body + b"\x00", "trailing bytes"),
            (body[:-1], "malformed|truncated"),
            (body[: len(body) // 2], "truncated"),
            (b"RITMRACP" + body[at:], "not an RA checkpoint"),
        ]:
            path.write_bytes(reseal(doctored))
            with pytest.raises(StorageError, match=message):
                load_checkpoint(tmp_path)


class TestRotationCheckpoint:
    """Adversarial control-plane state through a restart (docs/THREATS.md).

    A checkpoint taken mid-rotation must bring back the learned keyring and
    the replicas exactly — the restarted RA neither re-learns the
    announcement chain nor rejects the CA's next honest publication.
    """

    @staticmethod
    def _cursors(client):
        """How far each replica a client holds reaches, by dictionary name."""
        return {name: client.replication_cursor(name) for name in client.agent.replicas}

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
        cursors = self._cursors(client)
        assert cursors[ca.name] == 12  # three batches of four serials
        client.checkpoint(tmp_path)

        restored_agent, restored_client, _ = restored_stack(config, ca, cdn, tmp_path)
        restored_keyring = restored_agent.keyring_for(ca.name)
        assert restored_keyring is not None
        assert restored_keyring.key_epoch == keyring.key_epoch
        assert [
            record.public_key.key_bytes for record in restored_keyring.records
        ] == [record.public_key.key_bytes for record in keyring.records]
        assert self._cursors(restored_client) == cursors

        # The CA revokes once more while the RA was down; the warm restart
        # applies exactly that delta — no resync, no re-learned rotation,
        # and no replay rejection of the CA's next honest publication.
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

    def test_oversized_field_in_a_checkpointed_key_chain_leaves_genesis_only(self):
        """A checkpointed key chain whose rotation link holds a value its
        signed payload cannot encode is refused like any tampered chain: the
        keyring stays genesis-only and the replica still warm-starts."""
        config, ca, cdn, agent, client = build_stack()
        issue_and_pull(ca, client, 120, periods=2)
        checkpoint = agent.checkpoint_state()
        checkpoint.keyrings[ca.name] = (oversized_key_chain(ca), 150)

        restored_agent = RevocationAgent("ra-under-test", config)
        assert restored_agent.restore_state(checkpoint) == 1
        assert restored_agent.keyring_for(ca.name).key_epoch == 0
        assert restored_agent.replica_for(ca.name).root() == agent.replica_for(ca.name).root()
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
            assert restored_agent.restore_state(load_checkpoint(tmp_path)) == 3
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
        config, ca, cdn, agent, client = build_stack("incremental", sharded=True)
        pairs = [(SerialNumber(7100 + n), 150 + 300 * n) for n in range(3)]
        ca.revoke_with_expiry(pairs, now=110)
        client.pull(now=120)
        assert client.checkpoint(tmp_path) == 2
        target = agent.replica_for_certificate(ca.name, pairs[0][1]).ca_name
        # change the shard's one serial, keep the CRC valid
        tamper(tmp_path, framed_serial(7100), framed_serial(7999))

        restored_agent = RevocationAgent("ra-under-test", config)
        restored_client = attach_agent_to_cas(
            restored_agent, [ca], cdn, GeoLocation(Region.EUROPE)
        )
        restored_client.restore(tmp_path)
        assert target not in restored_agent.replicas
        assert len(restored_agent.replicas) == 1  # the other shard warm-started
        assert not any(
            replica.ca_name == target
            for replica in restored_agent.shard_replicas(ca.name).values()
        )
        # the next pull rediscovers the dropped shard and cold-syncs it
        restored_client.pull(now=130)
        serial, expiry = pairs[0]
        replica = restored_agent.replica_for_certificate(ca.name, expiry)
        assert replica is not None and replica.contains(serial)

    @staticmethod
    def _decoy_checkpoint(tmp_path):
        """A sharded ``Decoy CA`` beside an unrelated unsharded CA named like
        its shard 1157, checkpointed by an RA following both — then one
        ``shard_members`` entry claiming the unrelated replica as that shard,
        under a valid CRC."""
        week, epoch = 7 * 86_400, 1_400_000_000
        sharded_cfg = RITMConfig(
            delta_seconds=week, chain_length=64, sharded=True,
            shard_width_seconds=2 * week,
        )
        cdn = CDNNetwork()
        sharded_ca = RITMCertificationAuthority(
            CertificationAuthority("Decoy CA", key_seed=b"decoy-base"), sharded_cfg, cdn
        )
        collision = (epoch + week) // sharded_cfg.shard_width_seconds
        weird_ca = RITMCertificationAuthority(
            CertificationAuthority(shard_name("Decoy CA", collision), key_seed=b"decoy-weird"),
            RITMConfig(delta_seconds=week, chain_length=64),
            cdn,
        )
        sharded_ca.bootstrap(now=epoch)
        weird_ca.bootstrap(now=epoch)

        def attached():
            agent = RevocationAgent("decoy-ra", sharded_cfg)
            cas = [sharded_ca, weird_ca]
            return agent, attach_agent_to_cas(agent, cas, cdn, GeoLocation(Region.EUROPE))

        agent, client = attached()
        weird_ca.revoke([SerialNumber(11)], now=epoch + 1)
        sharded_ca.revoke_with_expiry(  # windows 1158 and 1159
            [(SerialNumber(20), epoch + 3 * week), (SerialNumber(21), epoch + 5 * week)],
            now=epoch + 2,
        )
        assert not client.pull(now=epoch + 3).errors
        assert sorted(agent.shard_replicas("Decoy CA")) == [collision + 1, collision + 2]
        client.checkpoint(tmp_path)
        checkpoint = load_checkpoint(tmp_path)
        checkpoint.shard_members["Decoy CA"][collision] = weird_ca.name
        write_checkpoint(checkpoint, tmp_path)
        return agent, attached, weird_ca, collision, epoch

    def test_a_checkpoint_entry_cannot_capture_an_unrelated_ca(self, tmp_path):
        """Restore admits shard replicas through the same registry as
        discovery, so it refuses the capture discovery refuses: the entry is
        skipped, the unrelated replica keeps its issuer and is never pruned,
        and the sharded CA's real shards still warm-start."""
        agent, attached, weird_ca, collision, epoch = self._decoy_checkpoint(tmp_path)
        weird = weird_ca.name
        restored_agent, restored_client = attached()
        assert restored_client.restore(tmp_path) == 2  # the two real shards
        assert restored_agent.issuers[weird].name == weird
        assert restored_agent.replica_for(weird).size == 0  # not warm-started
        recovered = restored_agent.shard_replicas("Decoy CA")
        assert sorted(recovered) == [collision + 1, collision + 2]
        for index, replica in recovered.items():
            assert replica.root() == agent.shard_replicas("Decoy CA")[index].root()

        assert not restored_client.pull(now=epoch + 4).errors
        assert restored_agent.replica_for(weird).size == weird_ca.dictionary.size == 1
        past_window = (collision + 1) * restored_agent.shard_widths["Decoy CA"]
        restored_agent.prune_shard_replicas("Decoy CA", now=past_window)
        assert restored_agent.replica_for(weird).size == 1
        assert restored_agent.issuer_of(weird) == weird
        assert sorted(restored_agent.shard_replicas("Decoy CA")) == [collision + 1, collision + 2]

    def test_shard_entries_of_a_ca_without_a_width_are_skipped(self, tmp_path):
        """An agent that never attached learns shard widths only from the
        checkpoint: a CA the checkpoint gives none has no shard replicas to
        restore (nothing could map an expiry to them or ever prune them)."""
        _, _, weird_ca, _, _ = self._decoy_checkpoint(tmp_path)
        checkpoint = load_checkpoint(tmp_path)
        del checkpoint.shard_members["Decoy CA"][min(checkpoint.shard_members["Decoy CA"])]
        checkpoint.shard_widths.clear()
        restored_agent = RevocationAgent("decoy-ra")
        assert restored_agent.restore_state(checkpoint) == 1  # the unrelated CA alone
        assert restored_agent.shard_replicas("Decoy CA") == {}
        assert set(restored_agent.replicas) == {weird_ca.name}


class TestCrashDuringRecheckpoint:
    """"Recovery is not impacted by the exact time of the failure": whenever
    the process dies while replacing a checkpoint, the directory restores to
    the previous generation or the new one — never an error, never a mix."""

    def test_crash_at_every_write_boundary_restores_old_or_new(self, tmp_path, monkeypatch):
        config, ca, cdn, agent, client = build_stack()
        live = tmp_path / "live"
        issue_and_pull(ca, client, 120, periods=3)
        client.checkpoint(live)
        old_bytes = (live / CHECKPOINT_FILENAME).read_bytes()
        old = load_checkpoint(live)
        issue_and_pull(ca, client, 200, periods=3, base=2000)
        client.checkpoint(tmp_path / "new")
        new_bytes = (tmp_path / "new" / CHECKPOINT_FILENAME).read_bytes()
        new = load_checkpoint(tmp_path / "new")
        assert old != new and len(new.replicas[0].state.batch.serials) == 24

        # What a never-crashed RA holds after the next pull.
        ca.revoke([SerialNumber(9400)], now=300)
        client.pull(now=305)
        reference = agent.replica_for(ca.name)

        def assert_recovers(directory, generation):
            assert load_checkpoint(directory) == generation
            restored_agent, restored_client, restored = restored_stack(config, ca, cdn, directory)
            assert restored == 1
            result = restored_client.pull(now=305)
            assert result.resyncs == 0 and not result.errors
            replica = restored_agent.replica_for(ca.name)
            assert replica.leaf_items() == reference.leaf_items()
            assert replica.signed_root == reference.signed_root
            assert replica.latest_freshness == reference.latest_freshness
            assert restored_client.replication_cursor(ca.name) == client.replication_cursor(ca.name)
            restored_agent.close()

        # Died while the temporary file was being written: any prefix of the
        # new generation lies beside the old file, which nothing has touched.
        cuts = sorted({0, 1, 8, 10, len(new_bytes) // 3, len(new_bytes) // 2,
                       len(old_bytes), len(new_bytes) - 4, len(new_bytes) - 1, len(new_bytes)})
        for cut in cuts:
            crashed = tmp_path / f"cut-{cut}"
            shutil.copytree(live, crashed)
            (crashed / (CHECKPOINT_FILENAME + ".tmp-crash")).write_bytes(new_bytes[:cut])
            assert_recovers(crashed, old)

        # The rename itself failed: the error surfaces, the old generation stands.
        def failing_replace(source, target):
            raise OSError("disk detached")

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", failing_replace)
            with pytest.raises(OSError, match="disk detached"):
                client.checkpoint(live)
        assert os.listdir(live) == [CHECKPOINT_FILENAME]
        assert (live / CHECKPOINT_FILENAME).read_bytes() == old_bytes
        assert_recovers(live, old)

        # The rename happened: the new generation, whole.
        shutil.copytree(tmp_path / "new", tmp_path / "renamed")
        assert_recovers(tmp_path / "renamed", new)
        agent.close()
        ca.close()


#: One scripted stream, a step per Δ: a batch of two serials, an idle Δ (a
#: refresh), a key rotation, or the purge of the second batch's issuance
#: object at the origin.  The RA pulls after every step.
CRASH_SCHEDULE = ("batch", "idle", "batch", "rotate", "batch", "purge", "idle", "batch", "idle")


class TestRecoveryDoesNotDependOnTheCrashStep:
    """"Recovery is not impacted by the exact time of the failure": an RA
    checkpointed after any step ``k`` of :data:`CRASH_SCHEDULE`, restored at
    the end and pulled once, holds the CA's root, having fetched exactly the
    batches published since step ``k`` — or, when one it needed was purged,
    those up to that one and a single resync.  When there are any, the head
    comes first: the schedule ends idle, so the per-Δ object is a statement
    of a root the restored replica has not seen.  A replica's size is where
    it resumes, so there is no cursor that could lag or lead its content."""

    @pytest.mark.parametrize(
        "k",
        range(len(CRASH_SCHEDULE) + 1),
        ids=["k0-start"] + [f"k{k}-after-{step}" for k, step in enumerate(CRASH_SCHEDULE, 1)],
    )
    def test_a_checkpoint_after_step_k_restores_to_the_cas_root(self, k, tmp_path, monkeypatch):
        from repro.ritm.ca_service import freshness_path, head_path, issuance_path, keys_path

        config, ca, cdn, agent, client = build_stack()
        published = []  # (step, address) of every batch
        purged = None
        if k == 0:
            client.checkpoint(tmp_path)
        for step, action in enumerate(CRASH_SCHEDULE):
            now = 110 + 10 * step
            if action == "batch":
                serials = [SerialNumber(7000 + 2 * step), SerialNumber(7001 + 2 * step)]
                published.append((step, ca.revoke(serials, now=now).first_number))
            elif action == "idle":
                ca.refresh(now=now)
            elif action == "rotate":
                ca.rotate_keys(now=now)
                ca.refresh(now=now)
            else:
                purged = published[1][1]
                del cdn.origin._objects[issuance_path(ca.name, purged)]
            assert not client.pull(now=now + 5).errors
            if step + 1 == k:
                client.checkpoint(tmp_path)

        since = [address for step, address in published if step >= k]
        needed = since[: since.index(purged) + 1] if purged in since else since
        learns_rotation = k <= CRASH_SCHEDULE.index("rotate")
        restored_agent, restored_client, restored = restored_stack(config, ca, cdn, tmp_path)
        assert restored == 1
        fetched = []
        download = cdn.download

        def logged(path, *args, **kwargs):
            fetched.append(path)
            return download(path, *args, **kwargs)

        monkeypatch.setattr(cdn, "download", logged)
        result = restored_client.pull(now=115 + 10 * len(CRASH_SCHEDULE))

        assert CRASH_SCHEDULE[-1] == "idle"
        assert fetched == (
            [freshness_path(ca.name)]
            + ([head_path(ca.name)] if since else [])
            + [issuance_path(ca.name, address) for address in needed]
            + ([keys_path(ca.name)] if learns_rotation else [])
        )
        assert result.resyncs == (1 if needed != since else 0)
        assert result.key_rotations_applied == (1 if learns_rotation else 0)
        assert not result.errors
        replica = restored_agent.replica_for(ca.name)
        assert replica.signed_root == ca.dictionary.signed_root
        assert replica.root() == ca.dictionary.root()
        assert replica.latest_freshness == ca.dictionary.latest_freshness
        for a in (agent, restored_agent):
            a.close()
        ca.close()
