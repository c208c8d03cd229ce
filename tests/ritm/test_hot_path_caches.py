"""The hot-path verification engine across agent → dissemination → client.

The engine's contract is that caching is *invisible* except in latency:
every status built through :meth:`RevocationAgent.build_status` must be
byte-identical to the uncached ``replica.prove`` path, across every event
that changes a dictionary's state — revocation batches, Δ-epoch root
rotation (hash-chain exhaustion), tampered-batch rollback + resync, and
shard retirement.  These tests enforce that differentially, plus the
explicit invalidation rules documented in docs/PERFORMANCE.md.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cdn.geography import GeoLocation, Region
from repro.cdn.network import CDNNetwork
from repro.crypto.signing import CAKeyring, KeyPair
from repro.dictionary.authdict import CADictionary
from repro.dictionary.signed_root import SignedRoot
from repro.errors import DictionaryError
from repro.net.clock import SimulatedClock
from repro.perf import VerifiedRootCache
from repro.pki.ca import CertificationAuthority
from repro.pki.serial import SerialNumber
from repro.ritm.agent import RevocationAgent
from repro.ritm.ca_service import RITMCertificationAuthority
from repro.ritm.config import RITMConfig
from repro.ritm.deployment import build_close_to_client_deployment
from repro.ritm.dissemination import attach_agent_to_cas

from tests.ritm.conftest import EPOCH, build_world, tamper_batch


class TestProofCachedStatuses:
    def test_build_status_matches_uncached_prove(self, world):
        issuing = world.ca_by_name(world.corpus.chains[0].leaf.issuer)
        revoked = world.corpus.chains[0].leaf.serial
        issuing.revoke([revoked], now=EPOCH + 20)
        world.pull(now=EPOCH + 30)
        replica = world.agent.replica_for(issuing.name)
        for serial in (revoked, SerialNumber(0xABCDEF)):
            cached_cold = world.agent.build_status(issuing.name, serial)
            cached_warm = world.agent.build_status(issuing.name, serial)
            assert cached_cold == replica.prove(serial)
            assert cached_warm == replica.prove(serial)
        assert world.agent.proof_cache.stats.hits >= 2
        assert world.agent.proof_cache.stats.misses >= 2

    def test_revocation_status_correctness_through_cache(self, world):
        issuing = world.ca_by_name(world.corpus.chains[0].leaf.issuer)
        revoked = world.corpus.chains[0].leaf.serial
        issuing.revoke([revoked], now=EPOCH + 20)
        world.pull(now=EPOCH + 30)
        for _ in range(2):  # second round served from the proof cache
            assert world.agent.build_status(issuing.name, revoked).is_revoked
            assert not world.agent.build_status(
                issuing.name, SerialNumber(0x0FF5E7)
            ).is_revoked

    def test_new_root_is_never_served_a_stale_proof(self, world):
        """Every revocation changes the root, so the old entries miss."""
        issuing = world.ca_by_name(world.corpus.chains[0].leaf.issuer)
        probe = SerialNumber(0x00AB01)
        serials = [
            chain.leaf.serial for chain in world.corpus.chains_by_ca[issuing.name]
        ]
        replica = world.agent.replica_for(issuing.name)
        for index, serial in enumerate(serials):
            issuing.revoke([serial], now=EPOCH + 20 + index)
            world.pull(now=EPOCH + 21 + index)
            status = world.agent.build_status(issuing.name, probe)
            assert status == replica.prove(probe)
            assert status.signed_root == replica.signed_root

    def test_unknown_ca_raises(self, world):
        with pytest.raises(DictionaryError):
            world.agent.build_status("No Such CA", SerialNumber(1))

    def test_disabled_proof_cache_still_correct(self):
        world = build_world(
            RITMConfig(delta_seconds=10, chain_length=64, proof_cache_size=0)
        )
        issuing = world.ca_by_name(world.corpus.chains[0].leaf.issuer)
        serial = world.corpus.chains[0].leaf.serial
        issuing.revoke([serial], now=EPOCH + 20)
        world.pull(now=EPOCH + 30)
        replica = world.agent.replica_for(issuing.name)
        assert world.agent.build_status(issuing.name, serial) == replica.prove(serial)
        assert len(world.agent.proof_cache) == 0


class TestRootRotationAcrossDelta:
    """Hash-chain exhaustion: a re-signed root over unchanged content."""

    def _rotated_world(self):
        world = build_world(RITMConfig(delta_seconds=10, chain_length=1))
        issuing = world.ca_by_name(world.corpus.chains[0].leaf.issuer)
        serial = world.corpus.chains[0].leaf.serial
        issuing.revoke([serial], now=EPOCH + 20)
        world.pull(now=EPOCH + 21)
        return world, issuing, serial

    def test_rotation_invalidates_root_verdicts_but_keeps_proofs(self):
        world, issuing, serial = self._rotated_world()
        replica = world.agent.replica_for(issuing.name)
        world.agent.build_status(issuing.name, serial)  # prime the proof cache
        old_root = replica.signed_root

        issuing.refresh(now=EPOCH + 40)  # chain exhausted: re-sign
        result = world.pull(now=EPOCH + 41)
        new_root = replica.signed_root
        assert new_root.timestamp > old_root.timestamp
        assert new_root.root == old_root.root  # content unchanged
        # The refresh evicted the old epoch's verdict and verified the new
        # root (a cache miss counted in the pull's metrics).
        assert world.agent.root_cache.stats.invalidations >= 1
        assert result.root_signatures_verified >= 1

        proof_hits_before = world.agent.proof_cache.stats.hits
        status = world.agent.build_status(issuing.name, serial)
        assert status == replica.prove(serial)
        assert status.signed_root == new_root  # never the stale epoch
        assert world.agent.proof_cache.stats.hits == proof_hits_before + 1

    def test_client_accepts_statuses_across_rotation(self):
        world, issuing, serial = self._rotated_world()
        client_cache = VerifiedRootCache()
        status = world.agent.build_status(issuing.name, SerialNumber(0x77AA01))
        assert status.is_acceptable(
            issuing.public_key, EPOCH + 25, 10, root_cache=client_cache
        )
        issuing.refresh(now=EPOCH + 40)
        world.pull(now=EPOCH + 41)
        rotated = world.agent.build_status(issuing.name, SerialNumber(0x77AA01))
        assert rotated.is_acceptable(
            issuing.public_key, EPOCH + 45, 10, root_cache=client_cache
        )
        # Two distinct epochs → two full verifications, no false hits.
        assert client_cache.stats.misses == 2


class TestTamperedBatchRollback:
    def test_rollback_and_resync_evict_and_stay_differential(self, world):
        issuing = world.ca_by_name(world.corpus.chains[0].leaf.issuer)
        serial = world.corpus.chains[0].leaf.serial
        probe = SerialNumber(0x00CD02)
        world.agent.build_status(issuing.name, probe)  # prime the proof cache

        issuance = issuing.revoke([serial], now=EPOCH + 20)
        tamper_batch(
            world.cdn,
            issuing.name,
            issuance.first_number,
            lambda forged: replace(forged, serials=(SerialNumber(0xEEEEEE),)),
        )

        invalidations = world.agent.proof_cache.stats.invalidations
        result = world.pull(now=EPOCH + 40)
        assert result.resyncs >= 1
        # The resync evicted the dictionary's cached proofs.
        assert world.agent.proof_cache.stats.invalidations > invalidations
        replica = world.agent.replica_for(issuing.name)
        assert world.agent.build_status(issuing.name, serial) == replica.prove(serial)
        assert world.agent.build_status(issuing.name, serial).is_revoked
        assert not world.agent.build_status(issuing.name, probe).is_revoked
        assert replica.root() == issuing.dictionary.root()

    def test_rolled_back_replica_keeps_serving_old_root_correctly(self, world):
        """No sync server: the tampered batch rolls back and the cached
        proofs for the old (still current) root remain valid."""
        from repro.ritm.dissemination import RADisseminationClient

        issuing = world.ca_by_name(world.corpus.chains[0].leaf.issuer)
        serial = world.corpus.chains[0].leaf.serial
        lonely = RevocationAgent("lonely-ra", world.config)
        lonely.register_ca(issuing.name, issuing.public_key)
        client = RADisseminationClient(
            lonely, world.cdn, GeoLocation(Region.EUROPE)
        )
        client.pull(now=EPOCH + 10)
        probe = SerialNumber(0x00EF03)
        primed = lonely.build_status(issuing.name, probe)

        issuance = issuing.revoke([serial], now=EPOCH + 20)
        tamper_batch(
            world.cdn,
            issuing.name,
            issuance.first_number,
            lambda tampered: replace(tampered, serials=(SerialNumber(0xEEEEEE),)),
        )
        bad_pull = client.pull(now=EPOCH + 40)
        assert any("root does not match" in error for error in bad_pull.errors)
        replica = lonely.replica_for(issuing.name)
        assert replica.size == 0  # rolled back
        after = lonely.build_status(issuing.name, probe)
        assert after == replica.prove(probe)
        assert after == primed  # same verified state as before the attack


class TestShardRetirementEviction:
    WEEK = 7 * 86_400

    def _sharded_world(self):
        config = RITMConfig(
            delta_seconds=self.WEEK,
            chain_length=64,
            sharded=True,
            shard_width_seconds=4 * self.WEEK,
        )
        authority = CertificationAuthority("Sharded CA", key_seed=b"hot-path-shards")
        cdn = CDNNetwork()
        ca = RITMCertificationAuthority(authority, config, cdn)
        ca.bootstrap(now=EPOCH)
        agent = RevocationAgent("shard-ra", config)
        client = attach_agent_to_cas(agent, [ca], cdn, GeoLocation(Region.EUROPE))
        return config, ca, agent, client

    def test_shard_retirement_evicts_cached_proofs(self):
        config, ca, agent, client = self._sharded_world()
        serial = SerialNumber(0x0A0B0C)
        expiry = EPOCH + 2 * self.WEEK  # falls in the first shard window
        ca.revoke_with_expiry([(serial, expiry)], now=EPOCH + 1)
        client.pull(now=EPOCH + 10)

        replica = agent.replica_for_certificate(ca.name, expiry)
        status = agent.build_status(ca.name, serial, expiry)
        assert status == replica.prove(serial)
        assert status.is_revoked
        assert len(agent.proof_cache) == 1

        # Jump past the shard's window: the CA retires it, the RA prunes it,
        # and the proof cache entry goes with the replica.
        later = EPOCH + 6 * self.WEEK
        ca.refresh(now=later)
        client.pull(now=later + 10)
        assert agent.shard_replicas_pruned >= 1
        assert len(agent.proof_cache) == 0
        assert agent.proof_cache.stats.invalidations >= 1
        assert agent.replica_for_certificate(ca.name, expiry) is None
        with pytest.raises(DictionaryError):
            agent.build_status(ca.name, serial, expiry)


class TestClientSideCaches:
    def test_client_verifies_each_root_once_per_epoch(self, world):
        issuing = world.ca_by_name(world.corpus.chains[0].leaf.issuer)
        shared = VerifiedRootCache()
        for attempt in range(3):
            deployment = build_close_to_client_deployment(
                server_chain=world.corpus.chains[0],
                trust_store=world.trust_store,
                ca_public_keys=world.ca_public_keys(),
                config=world.config,
                agent=world.agent,
                clock=SimulatedClock(EPOCH + 8 + attempt),
                root_cache=shared,
            )
            assert deployment.run_handshake()
        # One epoch, three handshakes: exactly one full verification.
        assert shared.stats.misses == 1
        assert shared.stats.hits == 2

    def test_handshake_without_shared_caches_still_accepts(self, world):
        deployment = build_close_to_client_deployment(
            server_chain=world.corpus.chains[0],
            trust_store=world.trust_store,
            ca_public_keys=world.ca_public_keys(),
            config=world.config,
            agent=world.agent,
            clock=SimulatedClock(EPOCH + 8),
        )
        assert deployment.run_handshake()
        # The client still memoizes within its own connection lifetime.
        assert deployment.client.root_cache.stats.misses >= 1


class TestDifferentialProperty:
    """Random CA histories: cached and uncached reads always agree."""

    @settings(max_examples=8, deadline=None)
    @given(
        operations=st.lists(
            st.one_of(
                st.tuples(st.just("revoke"), st.integers(1, 3)),
                st.tuples(st.just("refresh"), st.just(0)),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_cached_statuses_equal_uncached_across_histories(self, operations):
        keys = KeyPair.generate(b"hot-path-property")
        ca = CADictionary(
            "Property CA", keys, delta=10, chain_length=2
        )  # short chain: refreshes rotate the root quickly
        config = RITMConfig(delta_seconds=10, chain_length=2)
        agent = RevocationAgent("property-ra", config)
        replica = agent.register_ca("Property CA", keys.public)
        replica.install_root(ca.refresh(EPOCH))

        now = EPOCH
        next_serial = 1
        revoked = []
        for kind, count in operations:
            now += 10
            if kind == "revoke":
                serials = [SerialNumber(next_serial + offset) for offset in range(count)]
                next_serial += count
                revoked.extend(serials)
                agent.apply_issuances("Property CA", [ca.insert(serials, int(now))])
            else:
                result = ca.refresh(int(now))
                if isinstance(result, SignedRoot):
                    replica.install_root(result)
                else:
                    replica.apply_freshness(result)
            probes = revoked[-2:] + [SerialNumber(0xF00000 + next_serial)]
            for probe in probes:
                cached = agent.build_status("Property CA", probe)
                assert cached == replica.prove(probe)
                assert cached.is_revoked == ca.contains(probe)


class TestRotationAwareRootCache:
    """The verified-root cache must not outlive a CA key rotation.

    A memoized verdict is keyed to the specific key that verified it, so a
    root signed by a retired key keeps verifying — cached or not — exactly
    until the overlap window closes, and not one second longer.
    """

    @staticmethod
    def _signed(size: int, keys: KeyPair, timestamp: int) -> SignedRoot:
        return SignedRoot(
            ca_name="Rotating CA",
            root=bytes([size % 251]) * 8,
            size=size,
            anchor=b"\x01" * 8,
            timestamp=timestamp,
            chain_length=8,
        ).sign(keys.private)

    def test_retired_root_verifies_only_inside_overlap_window(self):
        old, new = KeyPair.generate(b"rotate-old"), KeyPair.generate(b"rotate-new")
        root = self._signed(3, old, EPOCH)
        keyring = CAKeyring.single(old.public)
        cache = VerifiedRootCache()
        assert cache.verify(root, keyring)  # memoized under the epoch-0 key

        keyring.add_key(new.public, activated_at=EPOCH + 100, overlap_seconds=50)
        keyring.advance(EPOCH + 150)  # the last instant of the overlap window
        assert cache.verify(root, keyring)
        assert any(
            key.verify(root.payload(), root.signature)
            for key in keyring.acceptable_keys()
        )

        keyring.advance(EPOCH + 151)  # window closed: the memo must die with it
        assert not cache.verify(root, keyring)
        assert not any(
            key.verify(root.payload(), root.signature)
            for key in keyring.acceptable_keys()
        )
        # The new epoch is unaffected, warm or cold.
        fresh = self._signed(4, new, EPOCH + 200)
        assert cache.verify(fresh, keyring)
        assert cache.verify(fresh, keyring)

    @settings(max_examples=30, deadline=None)
    @given(
        gaps=st.lists(st.integers(min_value=10, max_value=120), min_size=1, max_size=5),
        probe_offset=st.integers(min_value=0, max_value=500),
    )
    def test_cached_matches_uncached_for_any_rotation_schedule(
        self, gaps, probe_offset
    ):
        """Differential property: for any rotation schedule, overlap widths,
        and probe time, a warm cache, a cold cache, and direct keyring
        verification agree on every historical root."""
        epoch_keys = [KeyPair.generate(b"sched-epoch-0")]
        keyring = CAKeyring.single(epoch_keys[0].public)
        warm = VerifiedRootCache()
        now = EPOCH
        roots = [self._signed(1, epoch_keys[0], now)]
        warm.verify(roots[0], keyring)
        for index, gap in enumerate(gaps, start=1):
            now += gap
            keys = KeyPair.generate(b"sched-epoch-%d" % index)
            epoch_keys.append(keys)
            keyring.add_key(keys.public, activated_at=now, overlap_seconds=gap // 2)
            keyring.advance(now)
            roots.append(self._signed(index + 1, keys, now))
            for root in roots:
                warm.verify(root, keyring)  # keep every verdict memoized

        keyring.advance(now + probe_offset)
        for root in roots:
            direct = any(
                key.verify(root.payload(), root.signature)
                for key in keyring.acceptable_keys()
            )
            assert warm.verify(root, keyring) == direct
            assert VerifiedRootCache().verify(root, keyring) == direct

    def test_chain_validation_cache_unaffected_by_dictionary_key_rotation(
        self, world
    ):
        """Rotation retires the CA's *dictionary-signing* key, never its
        certificate-issuing key: chain-validation verdicts — warm, cached,
        or cold — must be byte-identical across a rotation, and the cached
        entry must survive it (the trust store did not change)."""
        from repro.pki.validation import validate_chain
        from repro.tls.connection import ChainValidationCache

        chain = world.corpus.chains[0]
        ca = world.ca_by_name(chain.leaf.issuer)
        cache = ChainValidationCache()
        before = cache.validate(
            chain, world.trust_store, now=EPOCH + 20,
            expected_subject=chain.leaf.subject,
        )
        assert before.valid

        ca.rotate_keys(now=EPOCH + 30)

        after = cache.validate(
            chain, world.trust_store, now=EPOCH + 40,
            expected_subject=chain.leaf.subject,
        )
        assert after is before  # same trust store → the memo survives
        assert cache.stats.hits == 1
        direct = validate_chain(
            chain, world.trust_store, now=EPOCH + 40,
            expected_subject=chain.leaf.subject,
        )
        assert direct.valid and direct.checks == after.checks
        # ...while the dictionary-signing side really did rotate.
        assert ca.key_epoch == 1
