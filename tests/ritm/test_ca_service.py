"""Tests for the RITM-enabled CA: bootstrap, revocation, refresh, publication."""

import json

import pytest

from repro.dictionary.signed_root import SignedRoot
from repro.errors import DictionaryError
from repro.ritm.ca_service import RITMCertificationAuthority, head_path, issuance_path, manifest_path
from repro.ritm.messages import decode_head
from repro.ritm.replication import decode_segment

from tests.ritm.conftest import EPOCH


class TestBootstrap:
    def test_bootstrap_publishes_head_and_manifest(self, world):
        ca = world.cas[0]
        assert world.cdn.origin.exists(head_path(ca.name))
        assert world.cdn.origin.exists(manifest_path(ca.name))

    def test_bootstrap_signs_empty_dictionary(self, world):
        ca = world.cas[0]
        head = ca.head()
        assert head.signed_root.size == 0
        assert head.signed_root.verify(ca.public_key)

    def test_head_before_bootstrap_rejected(self, world):
        from repro.pki.ca import CertificationAuthority

        bare = RITMCertificationAuthority(
            CertificationAuthority("Unbootstrapped", key_seed=b"u"), world.config, world.cdn
        )
        with pytest.raises(DictionaryError):
            bare.head()

    def test_manifest_contents(self, world):
        ca = world.cas[0]
        manifest = json.loads(world.cdn.origin.fetch(manifest_path(ca.name)).content)
        assert manifest["ca"] == ca.name
        assert manifest["delta_seconds"] == world.config.delta_seconds
        assert manifest["head"] == head_path(ca.name)


class TestRevocation:
    def test_revoke_updates_dictionary_and_authority(self, world):
        ca = world.cas[0]
        chain = world.corpus.chains_by_ca.get(ca.name)
        serial = world.corpus.chains[0].leaf.serial
        issuing = world.ca_by_name(world.corpus.chains[0].leaf.issuer)
        issuance = issuing.revoke([serial], now=EPOCH + 20)
        assert issuing.dictionary.contains(serial)
        assert issuing.authority.is_revoked(serial)
        assert issuance.signed_root.size == 1

    def test_revoke_publishes_issuance_and_head(self, world):
        issuing = world.ca_by_name(world.corpus.chains[0].leaf.issuer)
        serial = world.corpus.chains[0].leaf.serial
        issuing.revoke([serial], now=EPOCH + 20)
        assert world.cdn.origin.exists(issuance_path(issuing.name, 1))
        head = decode_head(world.cdn.origin.fetch(head_path(issuing.name)).content)
        assert head.signed_root.size == 1

    def test_published_issuance_decodes_and_verifies(self, world):
        issuing = world.ca_by_name(world.corpus.chains[0].leaf.issuer)
        serial = world.corpus.chains[0].leaf.serial
        issuing.revoke([serial], now=EPOCH + 20)
        issuance = decode_segment(world.cdn.origin.fetch(issuance_path(issuing.name, 1)).content)
        assert issuance.serials == (serial,)
        assert issuance.signed_root.verify(issuing.public_key)

    def test_issuance_counter_increments(self, world):
        issuing = world.ca_by_name(world.corpus.chains[0].leaf.issuer)
        serials = [chain.leaf.serial for chain in world.corpus.chains_by_ca[issuing.name]]
        issuing.revoke([serials[0]], now=EPOCH + 20)
        issuing.revoke([serials[1]], now=EPOCH + 30)
        assert issuing.issuance_count() == 2
        assert world.cdn.origin.exists(issuance_path(issuing.name, 2))

    def test_publication_stats_track_uploads(self, world):
        issuing = world.ca_by_name(world.corpus.chains[0].leaf.issuer)
        issuance = issuing.revoke([world.corpus.chains[0].leaf.serial], now=EPOCH + 20)
        batch = world.cdn.origin.fetch(issuance_path(issuing.name, issuance.first_number))
        assert issuing.publication_stats.batches_published == 1
        assert issuing.publication_stats.batch_bytes_published == len(batch.content)

    def test_rejected_batch_records_nothing_and_can_be_retried(self, world):
        """A repeat inside the batch fails before the issuance CA records
        anything, so the corrected batch still publishes."""
        issuing = world.ca_by_name(world.corpus.chains[0].leaf.issuer)
        first, second = [
            chain.leaf.serial for chain in world.corpus.chains_by_ca[issuing.name]
        ][:2]
        with pytest.raises(DictionaryError, match="already revoked"):
            issuing.revoke([first, second, first], now=EPOCH + 20)
        assert not issuing.authority.is_revoked(first)
        assert not issuing.authority.is_revoked(second)
        assert issuing.dictionary.size == 0

        issuing.revoke([first, second], now=EPOCH + 20)
        assert issuing.issuance_count() == 1
        world.pull(now=EPOCH + 21)
        replica = world.agent.replica_for(issuing.name)
        assert replica.contains(first) and replica.contains(second)
        with pytest.raises(DictionaryError, match="already revoked"):
            issuing.revoke([first], now=EPOCH + 30)


class TestRefresh:
    def test_refresh_publishes_new_head(self, world):
        ca = world.cas[0]
        version_before = world.cdn.origin.fetch(head_path(ca.name)).version
        ca.refresh(now=EPOCH + 30)
        version_after = world.cdn.origin.fetch(head_path(ca.name)).version
        assert version_after > version_before

    def test_refresh_returns_freshness_statement_normally(self, world):
        ca = world.cas[0]
        result = ca.refresh(now=EPOCH + 30)
        assert list(result) == [ca.name]
        assert not isinstance(result[ca.name], SignedRoot)

    def test_a_stream_publishes_at_most_once_per_instant(self):
        """A batch touches one of two expiry windows, then the same instant's
        refresh runs: the touched stream keeps its one head and its per-Δ
        object stays the batch's object; only the other stream refreshes."""
        from repro.cdn.network import CDNNetwork
        from repro.pki.ca import CertificationAuthority
        from repro.pki.serial import SerialNumber
        from repro.ritm.ca_service import freshness_path
        from repro.ritm.config import RITMConfig

        week = 7 * 86_400
        config = RITMConfig(
            delta_seconds=10, chain_length=32, sharded=True, shard_width_seconds=week
        )
        authority = CertificationAuthority("Instant CA", key_seed=b"instant")
        ca = RITMCertificationAuthority(authority, config, CDNNetwork())
        ca.bootstrap(now=100)
        opened = ca.revoke_with_expiry(
            [(SerialNumber(1), week + 5), (SerialNumber(2), 2 * week + 5)], now=100
        )
        touched, other = (issuance.ca_name for _, issuance in opened)
        ca.refresh(now=110)
        ca.revoke_with_expiry([(SerialNumber(3), week + 6)], now=120)
        origin = ca.cdn.origin
        versions = {name: origin.fetch(head_path(name)).version for name in (touched, other)}

        assert list(ca.refresh(now=120)) == [other]
        assert origin.fetch(head_path(touched)).version == versions[touched]
        assert origin.fetch(head_path(other)).version > versions[other]
        batch = origin.fetch(issuance_path(touched, 2)).content  # serial 3's batch
        assert origin.fetch(freshness_path(touched)).content == batch

    def test_refresh_resigns_after_chain_exhaustion(self, world):
        ca = world.cas[0]
        horizon = EPOCH + 5 + world.config.chain_length * world.config.delta_seconds + 10
        result = ca.refresh(now=horizon)
        assert isinstance(result[ca.name], SignedRoot)

