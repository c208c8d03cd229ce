"""Tests for expiry-split dictionaries (§VIII 'Ever-growing dictionaries')."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.signing import KeyPair
from repro.dictionary.authdict import CADictionary
from repro.dictionary.sharding import (
    DEFAULT_SHARD_SECONDS,
    MAX_CERTIFICATE_LIFETIME_SECONDS,
    ShardKey,
    ShardedCADictionary,
    shard_name,
    shard_prefix,
)
from repro.errors import DictionaryError, RevokedCertificateError
from repro.pki.serial import SerialNumber
from repro.ritm.agent import RevocationAgent
from repro.ritm.config import RITMConfig

QUARTER = DEFAULT_SHARD_SECONDS


def sharded_agent(keys, ca_name="Shard-CA", engine="incremental"):
    """An RA following ``ca_name``'s expiry shards (the RA side of §VIII)."""
    agent = RevocationAgent("shard-ra", config=RITMConfig(store_engine=engine))
    agent.register_sharded_ca(ca_name, QUARTER, keys.public)
    return agent


def apply_issuances(agent, ca_name, issuances):
    """Apply per-shard issuances to the agent's matching shard replicas."""
    for key, issuance in issuances:
        agent.register_shard_replica(ca_name, key.index).update(issuance)


def held_bytes(agent, ca_name):
    """Per-entry storage across the agent's shard replicas of ``ca_name``."""
    return sum(
        replica.storage_size_bytes()
        for replica in agent.shard_replicas(ca_name).values()
    )


@pytest.fixture()
def keys():
    return KeyPair.generate(b"sharding-tests")


@pytest.fixture()
def sharded(keys):
    return ShardedCADictionary("Shard-CA", keys, delta=10, chain_length=32)


class TestShardKey:
    def test_expiry_maps_to_window(self):
        key = ShardKey.for_expiry(QUARTER + 5)
        assert key.index == 1
        assert key.window_start == QUARTER
        assert key.window_end == 2 * QUARTER

    def test_is_expired(self):
        key = ShardKey.for_expiry(QUARTER // 2)
        assert not key.is_expired(QUARTER - 1)
        assert key.is_expired(QUARTER)

    def test_negative_expiry_rejected(self):
        with pytest.raises(DictionaryError):
            ShardKey.for_expiry(-1)

    def test_shard_name_is_unique_per_index(self):
        assert shard_name("CA", 1) != shard_name("CA", 2)


class TestShardedCADictionary:
    def test_revocations_route_to_expiry_shards(self, sharded):
        issuances = sharded.revoke(
            [
                (SerialNumber(1), QUARTER // 2),          # shard 0
                (SerialNumber(2), QUARTER + 10),          # shard 1
                (SerialNumber(3), QUARTER + 20),          # shard 1
            ],
            now=100,
        )
        assert sharded.shard_count == 2
        assert {key.index for key, _ in issuances} == {0, 1}
        sizes = {key.index: issuance.signed_root.size for key, issuance in issuances}
        assert sizes == {0: 1, 1: 2}
        assert sharded.total_revocations() == 3

    def test_same_serial_may_appear_in_different_shards(self, sharded):
        # Serial spaces are per-CA, but shards are independent dictionaries, so
        # routing is purely by expiry; the same value in two shards must not clash.
        sharded.revoke([(SerialNumber(7), 10)], now=100)
        sharded.revoke([(SerialNumber(7), QUARTER + 10)], now=110)
        assert sharded.total_revocations() == 2

    def test_prove_uses_the_right_shard(self, sharded, keys):
        sharded.revoke([(SerialNumber(5), QUARTER + 10)], now=100)
        revoked_status = sharded.prove(SerialNumber(5), expiry=QUARTER + 10, now=105)
        clean_status = sharded.prove(SerialNumber(5), expiry=10, now=105)
        assert revoked_status.is_revoked
        assert not clean_status.is_revoked
        with pytest.raises(RevokedCertificateError):
            revoked_status.verify(keys.public, now=106, delta=10)
        clean_status.verify(keys.public, now=106, delta=10)

    def test_refresh_all_touches_only_live_shards(self, sharded):
        sharded.revoke([(SerialNumber(1), 10), (SerialNumber(2), QUARTER + 10)], now=100)
        refreshed = sharded.refresh_all(now=QUARTER + 50)
        # Shard 0's window has passed; only shard 1 is refreshed.
        assert list(refreshed) == [1]

    def test_retire_expired_drops_old_shards(self, sharded):
        sharded.revoke([(SerialNumber(1), 10), (SerialNumber(2), QUARTER + 10)], now=100)
        before = sharded.storage_size_bytes()
        retired = sharded.retire_expired(now=QUARTER + 1)
        assert [key.index for key in retired] == [0]
        assert sharded.shard_count == 1
        assert sharded.storage_size_bytes() < before

    def test_live_shards(self, sharded):
        sharded.revoke([(SerialNumber(1), 10), (SerialNumber(2), QUARTER + 10)], now=100)
        live = sharded.live_shards(now=QUARTER + 1)
        assert [key.index for key, _ in live] == [1]


class TestAgentShardRegistry:
    def test_replica_tracks_shards_and_proves(self, sharded, keys):
        agent = sharded_agent(keys)
        issuances = sharded.revoke(
            [(SerialNumber(1), 10), (SerialNumber(2), QUARTER + 10)], now=100
        )
        apply_issuances(agent, "Shard-CA", issuances)
        replicas = agent.shard_replicas("Shard-CA")
        assert len(replicas) == 2
        assert sum(replica.size for replica in replicas.values()) == 2
        replica = agent.replica_for_certificate("Shard-CA", QUARTER + 10)
        assert replica.prove(SerialNumber(2)).is_revoked

    def test_unknown_shard_has_no_replica(self, keys):
        agent = sharded_agent(keys)
        assert agent.replica_for_certificate("Shard-CA", 10) is None

    def test_prune_expired_reclaims_storage(self, sharded, keys):
        agent = sharded_agent(keys)
        issuances = sharded.revoke(
            [(SerialNumber(i), 10) for i in range(1, 51)]
            + [(SerialNumber(100 + i), QUARTER + 10) for i in range(1, 11)],
            now=100,
        )
        apply_issuances(agent, "Shard-CA", issuances)
        before = held_bytes(agent, "Shard-CA")
        freed, _ = agent.prune_shard_replicas("Shard-CA", now=QUARTER + 1)
        assert freed == 50
        assert len(agent.shard_replicas("Shard-CA")) == 1
        assert held_bytes(agent, "Shard-CA") < before

    def test_freshness_applies_per_shard(self, sharded, keys):
        agent = sharded_agent(keys)
        issuances = sharded.revoke([(SerialNumber(1), QUARTER + 10)], now=100)
        apply_issuances(agent, "Shard-CA", issuances)
        refreshed = sharded.refresh_all(now=120)
        replica = agent.replica_for_certificate("Shard-CA", QUARTER + 10)
        replica.apply_freshness(refreshed[1])
        status = replica.prove(SerialNumber(9))
        status.verify(keys.public, now=125, delta=10)


class TestReadPathPurity:
    """Regression: prove() used to create and retain shards on the read path."""

    def test_prove_unknown_window_does_not_create_a_shard(self, sharded):
        sharded.revoke([(SerialNumber(1), 10)], now=100)
        before_count = sharded.shard_count
        before_storage = sharded.storage_size_bytes()
        status = sharded.prove(SerialNumber(2), expiry=5 * QUARTER + 3, now=150)
        assert not status.is_revoked
        assert sharded.shard_count == before_count
        assert sharded.storage_size_bytes() == before_storage
        assert [key.index for key in sharded.shard_keys()] == [0]

    def test_prove_unknown_window_does_not_inflate_refresh_all(self, sharded):
        sharded.revoke([(SerialNumber(1), 10)], now=100)
        sharded.prove(SerialNumber(2), expiry=5 * QUARTER + 3, now=150)
        # refresh_all must still touch only the shard revocations created.
        assert list(sharded.refresh_all(now=200)) == [0]

    def test_unknown_window_absence_status_verifies(self, sharded, keys):
        status = sharded.prove(SerialNumber(7), expiry=2 * QUARTER + 1, now=500)
        status.verify(keys.public, now=505, delta=10)

    def test_repeated_unknown_window_queries_stay_pure(self, sharded):
        for query in range(5):
            sharded.prove(SerialNumber(query + 1), expiry=QUARTER * 3 + query, now=100)
        assert sharded.shard_count == 0


class TestProveTimestamps:
    """Regression: prove() used to fall back to refresh(0) when now was omitted."""

    def test_prove_without_now_on_unsigned_shard_raises(self, sharded):
        with pytest.raises(DictionaryError, match="real timestamp"):
            sharded.prove(SerialNumber(1), expiry=10)

    def test_prove_with_now_mints_a_fresh_root(self, sharded, keys):
        now = 86_400 * 1000
        status = sharded.prove(SerialNumber(1), expiry=now + 10, now=now)
        assert status.signed_root.timestamp == now
        # A root minted at epoch 0 would fail this freshness check.
        status.verify(keys.public, now=now + 5, delta=10)

    def test_prove_without_now_on_signed_shard_is_fine(self, sharded):
        sharded.revoke([(SerialNumber(1), 10)], now=100)
        status = sharded.prove(SerialNumber(1), expiry=10)
        assert status.is_revoked


class TestValidation:
    """Regression: the lifetime cap was exported but never enforced; zero
    shard widths raised a bare ZeroDivisionError."""

    def test_revoke_rejects_expiry_beyond_maximum_lifetime(self, sharded):
        now = 1_000_000
        too_far = now + MAX_CERTIFICATE_LIFETIME_SECONDS + 1
        with pytest.raises(DictionaryError, match="maximum lifetime"):
            sharded.revoke([(SerialNumber(1), too_far)], now=now)
        assert sharded.shard_count == 0

    def test_revoke_accepts_expiry_at_the_cap(self, sharded):
        now = 1_000_000
        at_cap = now + MAX_CERTIFICATE_LIFETIME_SECONDS
        issuances = sharded.revoke([(SerialNumber(1), at_cap)], now=now)
        assert len(issuances) == 1

    def test_rejected_batch_creates_no_shards(self, sharded):
        """A batch with one bad expiry must not leave empty shards behind."""
        now = 1_000_000
        with pytest.raises(DictionaryError, match="maximum lifetime"):
            sharded.revoke(
                [
                    (SerialNumber(1), now + 10),
                    (SerialNumber(2), now + MAX_CERTIFICATE_LIFETIME_SECONDS + 1),
                ],
                now=now,
            )
        assert sharded.shard_count == 0
        assert sharded.total_revocations() == 0
        # a corrected retry goes through
        issuances = sharded.revoke(
            [(SerialNumber(1), now + 10), (SerialNumber(2), now + 20)], now=now
        )
        assert sum(len(issuance.serials) for _, issuance in issuances) == 2

    @pytest.mark.parametrize("width", [0, -90])
    def test_zero_or_negative_shard_width_rejected(self, width):
        with pytest.raises(DictionaryError, match="positive"):
            ShardKey.for_expiry(100, width_seconds=width)

    @pytest.mark.parametrize("width", [0, -1])
    def test_sharded_dictionary_rejects_bad_width(self, keys, width):
        with pytest.raises(DictionaryError, match="positive"):
            ShardedCADictionary("Shard-CA", keys, delta=10, shard_seconds=width)

    @pytest.mark.parametrize("width", [0, -1])
    def test_agent_registry_rejects_bad_width(self, keys, width):
        with pytest.raises(DictionaryError, match="positive"):
            RevocationAgent("shard-ra").register_sharded_ca(
                "Shard-CA", width, keys.public
            )

    def test_shard_prefix_matches_shard_name(self):
        assert shard_name("CA", 3).startswith(shard_prefix("CA"))


class TestAccounting:
    """Reclaimed-storage counters feed the §VIII cost/overhead analyses."""

    def test_ca_reclaimed_bytes_accumulate(self, sharded):
        sharded.revoke(
            [(SerialNumber(1), 10), (SerialNumber(2), QUARTER + 10)], now=100
        )
        before = sharded.storage_size_bytes()
        sharded.retire_expired(now=QUARTER + 1)
        assert sharded.reclaimed_storage_bytes > 0
        assert sharded.reclaimed_storage_bytes + sharded.storage_size_bytes() == before
        assert sharded.retired_revocations == 1
        assert sharded.retired_indices() == [0]

    def test_replica_reclaimed_bytes_accumulate(self, sharded, keys):
        agent = sharded_agent(keys)
        apply_issuances(
            agent,
            "Shard-CA",
            sharded.revoke(
                [(SerialNumber(1), 10), (SerialNumber(2), QUARTER + 10)], now=100
            ),
        )
        before = held_bytes(agent, "Shard-CA")
        freed, bytes_freed = agent.prune_shard_replicas("Shard-CA", now=QUARTER + 1)
        assert freed == 1
        assert agent.pruned_revocations == 1
        assert agent.reclaimed_storage_bytes == bytes_freed
        assert bytes_freed + held_bytes(agent, "Shard-CA") == before


class TestDifferentialOracle:
    """Sharded and unsharded dictionaries must agree on every verdict."""

    @pytest.mark.parametrize("engine", ["naive", "incremental"])
    def test_same_revocations_same_verdicts(self, keys, engine):
        sharded = ShardedCADictionary(
            "Shard-CA", keys, delta=10, chain_length=32, engine=engine
        )
        agent = sharded_agent(keys, engine=engine)
        oracle = CADictionary(
            "Oracle-CA", keys, delta=10, chain_length=32, engine=engine
        )
        now = 1_000_000
        pairs = [
            (SerialNumber(value), now + (value % 7 + 1) * QUARTER // 3)
            for value in range(1, 41)
        ]
        apply_issuances(agent, "Shard-CA", sharded.revoke(pairs, now=now))
        oracle.insert([serial for serial, _ in pairs], now=now)
        oracle_proofs_absent = SerialNumber(999)

        for serial, expiry in pairs:
            ca_status = sharded.prove(serial, expiry, now=now)
            ra_status = agent.replica_for_certificate("Shard-CA", expiry).prove(serial)
            assert ca_status.is_revoked == ra_status.is_revoked == oracle.contains(serial)
        for _, expiry in pairs[:5]:
            assert not sharded.prove(oracle_proofs_absent, expiry, now=now).is_revoked
            replica = agent.replica_for_certificate("Shard-CA", expiry)
            assert not replica.prove(oracle_proofs_absent).is_revoked
            assert not oracle.contains(oracle_proofs_absent)


@settings(max_examples=25, deadline=None)
@given(
    expiry_offsets=st.lists(
        st.integers(min_value=1, max_value=6 * QUARTER), min_size=1, max_size=24
    ),
    retire_after=st.integers(min_value=0, max_value=8 * QUARTER),
    engine=st.sampled_from(["naive", "incremental"]),
)
def test_prune_retire_round_trip_property(expiry_offsets, retire_after, engine):
    """Property: retiring/pruning at any time keeps CA and RA in lockstep.

    After retirement at an arbitrary time, (a) CA and RA hold the same live
    shard indices with the same sizes and roots, (b) both freed the same
    number of bytes, and (c) later revocations into future windows still
    flow and prove correctly.
    """
    keys = KeyPair.generate(b"prune-retire-property")
    now = 1_000_000
    sharded = ShardedCADictionary(
        "Prop-CA", keys, delta=10, chain_length=32, engine=engine
    )
    agent = sharded_agent(keys, "Prop-CA", engine=engine)
    pairs = [
        (SerialNumber(index + 1), now + offset)
        for index, offset in enumerate(expiry_offsets)
    ]
    apply_issuances(agent, "Prop-CA", sharded.revoke(pairs, now=now))

    cutoff = now + retire_after
    retired = sharded.retire_expired(cutoff)
    agent.prune_shard_replicas("Prop-CA", cutoff)

    held = agent.shard_replicas("Prop-CA")
    live_ca = {key.index for key in sharded.shard_keys()}
    assert live_ca == set(held)
    assert all(not key.is_expired(cutoff) for key in sharded.shard_keys())
    assert {key.index for key in retired}.isdisjoint(live_ca)
    assert sharded.reclaimed_storage_bytes == agent.reclaimed_storage_bytes
    for index in live_ca:
        assert sharded.shard_at(index).root() == held[index].root()
        assert sharded.shard_at(index).size == held[index].size

    # The stream keeps flowing into future windows after retirement.
    future_expiry = cutoff + QUARTER
    serial = SerialNumber(10_000)
    apply_issuances(agent, "Prop-CA", sharded.revoke([(serial, future_expiry)], now=cutoff))
    replica = agent.replica_for_certificate("Prop-CA", future_expiry)
    assert replica.prove(serial).is_revoked
    assert sharded.prove(serial, future_expiry, now=cutoff).is_revoked
