"""Tests for expiry-split dictionaries (§VIII 'Ever-growing dictionaries').

The CA side is a sharded :class:`RITMCertificationAuthority` with no CDN:
one stream per expiry window in ``ca.streams``.  The RA side is the agent's
shard registry.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.signing import KeyPair
from repro.dictionary.authdict import CADictionary
from repro.dictionary.sharding import (
    DEFAULT_SHARD_SECONDS,
    MAX_CERTIFICATE_LIFETIME_SECONDS,
    ShardKey,
    shard_name,
    shard_prefix,
)
from repro.errors import DictionaryError, RevokedCertificateError
from repro.pki.ca import CertificationAuthority
from repro.pki.serial import SerialNumber
from repro.ritm.agent import RevocationAgent
from repro.ritm.ca_service import RITMCertificationAuthority
from repro.ritm.config import RITMConfig
from repro.ritm.messages import encode_shard_index
from repro.store import ENGINES

QUARTER = DEFAULT_SHARD_SECONDS


def sharded_ca(ca_name="Shard-CA", engine="incremental"):
    """A sharded CA service without a CDN: routing, refresh and retirement
    only, nothing published."""
    config = RITMConfig(
        delta_seconds=10,
        chain_length=32,
        store_engine=engine,
        sharded=True,
        shard_width_seconds=QUARTER,
    )
    authority = CertificationAuthority(ca_name, key_seed=b"sharding-tests")
    return RITMCertificationAuthority(authority, config, cdn=None)


def sharded_agent(ca, engine="incremental"):
    """An RA following ``ca``'s expiry shards (the RA side of §VIII)."""
    agent = RevocationAgent("shard-ra", config=RITMConfig(store_engine=engine))
    agent.register_sharded_ca(ca.name, QUARTER, ca.public_key)
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


def windows(ca):
    """The window index of every stream ``ca`` holds, in creation order."""
    return [stream.window.index for stream in ca.streams.values()]


def dictionary_at(ca, index):
    """The master dictionary of ``ca``'s stream for window ``index``."""
    return ca.streams[shard_name(ca.name, index)].dictionary


@pytest.fixture()
def ca():
    return sharded_ca()


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


class TestShardRouting:
    def test_revocations_route_to_expiry_shards(self, ca):
        issuances = ca.revoke_with_expiry(
            [
                (SerialNumber(1), QUARTER // 2),          # shard 0
                (SerialNumber(2), QUARTER + 10),          # shard 1
                (SerialNumber(3), QUARTER + 20),          # shard 1
            ],
            now=100,
        )
        assert len(ca.streams) == 2
        assert {key.index for key, _ in issuances} == {0, 1}
        sizes = {key.index: issuance.signed_root.size for key, issuance in issuances}
        assert sizes == {0: 1, 1: 2}
        assert ca.total_revocations() == 3

    def test_prove_uses_the_right_shard(self, ca):
        ca.revoke_with_expiry([(SerialNumber(5), QUARTER + 10)], now=100)
        revoked_status = ca.prove_status(SerialNumber(5), expiry=QUARTER + 10, now=105)
        clean_status = ca.prove_status(SerialNumber(5), expiry=10, now=105)
        assert revoked_status.is_revoked
        assert not clean_status.is_revoked
        with pytest.raises(RevokedCertificateError):
            revoked_status.verify(ca.public_key, now=106, delta=10)
        clean_status.verify(ca.public_key, now=106, delta=10)

    def test_refresh_touches_only_live_shards(self, ca):
        ca.revoke_with_expiry(
            [(SerialNumber(1), 10), (SerialNumber(2), QUARTER + 10)], now=100
        )
        refreshed = ca.refresh(now=QUARTER + 50)
        # Shard 0's window has passed; only shard 1 is refreshed.
        assert list(refreshed) == [shard_name(ca.name, 1)]

    def test_retire_expired_drops_old_shards(self, ca):
        ca.revoke_with_expiry(
            [(SerialNumber(1), 10), (SerialNumber(2), QUARTER + 10)], now=100
        )
        before = ca.storage_size_bytes()
        retired = ca.retire_expired(now=QUARTER + 1)
        assert [key.index for key in retired] == [0]
        assert len(ca.streams) == 1
        assert ca.storage_size_bytes() < before

    def test_retirement_walks_windows_oldest_first(self, ca):
        """Streams are kept in creation order; retirement (and the retired
        list it feeds) goes by window."""
        ca.cover([2 * QUARTER + 5], now=100)
        ca.revoke_with_expiry([(SerialNumber(1), 10)], now=100)
        assert windows(ca) == [2, 0]
        retired = ca.retire_expired(now=3 * QUARTER)
        assert [key.index for key in retired] == [0, 2]
        assert ca.retired_windows == [0, 2]

    def test_live_shards(self, ca):
        ca.revoke_with_expiry(
            [(SerialNumber(1), 10), (SerialNumber(2), QUARTER + 10)], now=100
        )
        live = ca.live_streams(now=QUARTER + 1)
        assert [stream.window.index for stream in live] == [1]

    def test_shard_index_lists_live_windows_in_ascending_order(self, ca):
        """A later window opened first, then an earlier one: the published
        index still lists ``live`` by window, byte for byte."""
        assert ca.cover([3 * QUARTER + 5], now=100) == 1
        ca.revoke_with_expiry([(SerialNumber(1), QUARTER + 5)], now=100)
        assert windows(ca) == [3, 1]
        assert encode_shard_index(ca.shard_index(100)) == (
            b'{"ca": "Shard-CA", "live": [1, 3], "retired": [], "sequence": 0, '
            b'"width_seconds": 7776000}'
        )


class TestAgentShardRegistry:
    def test_replica_tracks_shards_and_proves(self, ca):
        agent = sharded_agent(ca)
        issuances = ca.revoke_with_expiry(
            [(SerialNumber(1), 10), (SerialNumber(2), QUARTER + 10)], now=100
        )
        apply_issuances(agent, ca.name, issuances)
        replicas = agent.shard_replicas(ca.name)
        assert len(replicas) == 2
        assert sum(replica.size for replica in replicas.values()) == 2
        replica = agent.replica_for_certificate(ca.name, QUARTER + 10)
        assert replica.prove(SerialNumber(2)).is_revoked

    def test_unknown_shard_has_no_replica(self, ca):
        agent = sharded_agent(ca)
        assert agent.replica_for_certificate(ca.name, 10) is None

    def test_prune_expired_reclaims_storage(self, ca):
        agent = sharded_agent(ca)
        issuances = ca.revoke_with_expiry(
            [(SerialNumber(i), 10) for i in range(1, 51)]
            + [(SerialNumber(100 + i), QUARTER + 10) for i in range(1, 11)],
            now=100,
        )
        apply_issuances(agent, ca.name, issuances)
        before = held_bytes(agent, ca.name)
        freed, _ = agent.prune_shard_replicas(ca.name, now=QUARTER + 1)
        assert freed == 50
        assert len(agent.shard_replicas(ca.name)) == 1
        assert held_bytes(agent, ca.name) < before

    def test_freshness_applies_per_shard(self, ca):
        agent = sharded_agent(ca)
        issuances = ca.revoke_with_expiry([(SerialNumber(1), QUARTER + 10)], now=100)
        apply_issuances(agent, ca.name, issuances)
        refreshed = ca.refresh(now=120)
        replica = agent.replica_for_certificate(ca.name, QUARTER + 10)
        replica.apply_freshness(refreshed[shard_name(ca.name, 1)])
        status = replica.prove(SerialNumber(9))
        status.verify(ca.public_key, now=125, delta=10)

    def test_registry_refuses_a_ca_that_is_not_sharded(self, ca):
        agent = RevocationAgent("shard-ra")
        with pytest.raises(DictionaryError, match="no sharded CA"):
            agent.register_shard_replica(ca.name, 0)
        agent.register_ca("Plain-CA", ca.public_key)
        with pytest.raises(DictionaryError, match="no sharded CA"):
            agent.register_shard_replica("Plain-CA", 0)
        assert set(agent.replicas) == {"Plain-CA"}


class TestReadPathPurity:
    """Regression: proving used to create and retain shards on the read path."""

    def test_prove_unknown_window_does_not_create_a_shard(self, ca):
        ca.revoke_with_expiry([(SerialNumber(1), 10)], now=100)
        before_count = len(ca.streams)
        before_storage = ca.storage_size_bytes()
        status = ca.prove_status(SerialNumber(2), expiry=5 * QUARTER + 3, now=150)
        assert not status.is_revoked
        assert len(ca.streams) == before_count
        assert ca.storage_size_bytes() == before_storage
        assert windows(ca) == [0]

    def test_prove_unknown_window_does_not_inflate_refresh(self, ca):
        ca.revoke_with_expiry([(SerialNumber(1), 10)], now=100)
        ca.prove_status(SerialNumber(2), expiry=5 * QUARTER + 3, now=150)
        # refresh must still touch only the shard revocations created.
        assert list(ca.refresh(now=200)) == [shard_name(ca.name, 0)]

    def test_unknown_window_absence_status_verifies(self, ca):
        status = ca.prove_status(SerialNumber(7), expiry=2 * QUARTER + 1, now=500)
        status.verify(ca.public_key, now=505, delta=10)

    def test_repeated_unknown_window_queries_stay_pure(self, ca):
        for query in range(5):
            ca.prove_status(SerialNumber(query + 1), expiry=QUARTER * 3 + query, now=100)
        assert len(ca.streams) == 0


class TestProveTimestamps:
    """Regression: proving used to fall back to refresh(0) when now was omitted."""

    def test_prove_without_now_on_unsigned_shard_raises(self, ca):
        with pytest.raises(DictionaryError, match="real timestamp"):
            ca.prove_status(SerialNumber(1), expiry=10)

    def test_prove_with_now_mints_a_fresh_root(self, ca):
        now = 86_400 * 1000
        status = ca.prove_status(SerialNumber(1), expiry=now + 10, now=now)
        assert status.signed_root.timestamp == now
        # A root minted at epoch 0 would fail this freshness check.
        status.verify(ca.public_key, now=now + 5, delta=10)

    def test_prove_without_now_on_signed_shard_is_fine(self, ca):
        ca.revoke_with_expiry([(SerialNumber(1), 10)], now=100)
        status = ca.prove_status(SerialNumber(1), expiry=10)
        assert status.is_revoked


class TestValidation:
    """Regression: the lifetime cap was exported but never enforced; zero
    shard widths raised a bare ZeroDivisionError."""

    def test_revoke_rejects_expiry_beyond_maximum_lifetime(self, ca):
        now = 1_000_000
        too_far = now + MAX_CERTIFICATE_LIFETIME_SECONDS + 1
        with pytest.raises(DictionaryError, match="maximum lifetime"):
            ca.revoke_with_expiry([(SerialNumber(1), too_far)], now=now)
        assert len(ca.streams) == 0

    def test_revoke_accepts_expiry_at_the_cap(self, ca):
        now = 1_000_000
        at_cap = now + MAX_CERTIFICATE_LIFETIME_SECONDS
        issuances = ca.revoke_with_expiry([(SerialNumber(1), at_cap)], now=now)
        assert len(issuances) == 1

    def test_rejected_batch_creates_no_shards(self, ca):
        """A batch with one bad expiry must not leave empty shards behind."""
        now = 1_000_000
        with pytest.raises(DictionaryError, match="maximum lifetime"):
            ca.revoke_with_expiry(
                [
                    (SerialNumber(1), now + 10),
                    (SerialNumber(2), now + MAX_CERTIFICATE_LIFETIME_SECONDS + 1),
                ],
                now=now,
            )
        assert len(ca.streams) == 0
        assert ca.total_revocations() == 0
        # a corrected retry goes through
        issuances = ca.revoke_with_expiry(
            [(SerialNumber(1), now + 10), (SerialNumber(2), now + 20)], now=now
        )
        assert sum(len(issuance.serials) for _, issuance in issuances) == 2

    def test_cover_with_one_bad_expiry_opens_no_window(self, ca):
        now = 3 * QUARTER
        with pytest.raises(DictionaryError, match="maximum lifetime"):
            ca.cover([now + 10, now + MAX_CERTIFICATE_LIFETIME_SECONDS + 1], now=now)
        assert len(ca.streams) == 0
        assert ca.cover([now + 10, now - 2 * QUARTER], now=now) == 1  # passed: skipped

    @pytest.mark.parametrize("width", [0, -90])
    def test_zero_or_negative_shard_width_rejected(self, width):
        with pytest.raises(DictionaryError, match="positive"):
            ShardKey.for_expiry(100, width_seconds=width)

    @pytest.mark.parametrize("width", [0, -1])
    def test_agent_registry_rejects_bad_width(self, ca, width):
        with pytest.raises(DictionaryError, match="positive"):
            RevocationAgent("shard-ra").register_sharded_ca(
                ca.name, width, ca.public_key
            )

    def test_shard_prefix_matches_shard_name(self):
        assert shard_name("CA", 3).startswith(shard_prefix("CA"))


class TestAccounting:
    """Reclaimed-storage counters feed the §VIII cost/overhead analyses."""

    def test_ca_reclaimed_bytes_accumulate(self, ca):
        ca.revoke_with_expiry(
            [(SerialNumber(1), 10), (SerialNumber(2), QUARTER + 10)], now=100
        )
        before = ca.storage_size_bytes()
        ca.retire_expired(now=QUARTER + 1)
        assert ca.reclaimed_storage_bytes > 0
        assert ca.reclaimed_storage_bytes + ca.storage_size_bytes() == before
        assert ca.retired_windows == [0]

    def test_replica_reclaimed_bytes_accumulate(self, ca):
        agent = sharded_agent(ca)
        apply_issuances(
            agent,
            ca.name,
            ca.revoke_with_expiry(
                [(SerialNumber(1), 10), (SerialNumber(2), QUARTER + 10)], now=100
            ),
        )
        before = held_bytes(agent, ca.name)
        freed, bytes_freed = agent.prune_shard_replicas(ca.name, now=QUARTER + 1)
        assert freed == 1
        assert agent.pruned_revocations == 1
        assert agent.reclaimed_storage_bytes == bytes_freed
        assert bytes_freed + held_bytes(agent, ca.name) == before


class TestDifferentialOracle:
    """Sharded and unsharded dictionaries must agree on every verdict."""

    @pytest.mark.parametrize("engine", ["naive", "incremental"])
    def test_same_revocations_same_verdicts(self, engine):
        ca = sharded_ca(engine=engine)
        agent = sharded_agent(ca, engine=engine)
        oracle = CADictionary(
            "Oracle-CA", KeyPair.generate(b"oracle"), delta=10, chain_length=32,
            engine=engine,
        )
        now = 1_000_000
        pairs = [
            (SerialNumber(value), now + (value % 7 + 1) * QUARTER // 3)
            for value in range(1, 41)
        ]
        apply_issuances(agent, ca.name, ca.revoke_with_expiry(pairs, now=now))
        oracle.insert([serial for serial, _ in pairs], now=now)
        oracle_proofs_absent = SerialNumber(999)

        for serial, expiry in pairs:
            ca_status = ca.prove_status(serial, expiry, now=now)
            ra_status = agent.replica_for_certificate(ca.name, expiry).prove(serial)
            assert ca_status.is_revoked == ra_status.is_revoked == oracle.contains(serial)
        for _, expiry in pairs[:5]:
            assert not ca.prove_status(oracle_proofs_absent, expiry, now=now).is_revoked
            replica = agent.replica_for_certificate(ca.name, expiry)
            assert not replica.prove(oracle_proofs_absent).is_revoked
            assert not oracle.contains(oracle_proofs_absent)


@settings(max_examples=25, deadline=None)
@given(
    expiry_offsets=st.lists(
        st.integers(min_value=1, max_value=6 * QUARTER), min_size=1, max_size=24
    ),
    retire_after=st.integers(min_value=0, max_value=8 * QUARTER),
    engine=st.sampled_from(sorted(ENGINES)),
)
def test_prune_retire_round_trip_property(expiry_offsets, retire_after, engine):
    """Property: retiring/pruning at any time keeps CA and RA in lockstep.

    After retirement at an arbitrary time, (a) CA and RA hold the same live
    shard indices with the same sizes and roots, (b) both freed the same
    number of bytes, and (c) later revocations into future windows still
    flow and prove correctly.
    """
    now = 1_000_000
    ca = sharded_ca("Prop-CA", engine=engine)
    agent = sharded_agent(ca, engine=engine)
    pairs = [
        (SerialNumber(index + 1), now + offset)
        for index, offset in enumerate(expiry_offsets)
    ]
    apply_issuances(agent, ca.name, ca.revoke_with_expiry(pairs, now=now))

    cutoff = now + retire_after
    retired = ca.retire_expired(cutoff)
    agent.prune_shard_replicas(ca.name, cutoff)

    held = agent.shard_replicas(ca.name)
    live_ca = set(windows(ca))
    assert live_ca == set(held)
    assert all(stream.covers(cutoff) for stream in ca.streams.values())
    assert {key.index for key in retired}.isdisjoint(live_ca)
    assert ca.reclaimed_storage_bytes == agent.reclaimed_storage_bytes
    for index in live_ca:
        assert dictionary_at(ca, index).root() == held[index].root()
        assert dictionary_at(ca, index).size == held[index].size

    # The stream keeps flowing into future windows after retirement.
    future_expiry = cutoff + QUARTER
    serial = SerialNumber(10_000)
    apply_issuances(
        agent, ca.name, ca.revoke_with_expiry([(serial, future_expiry)], now=cutoff)
    )
    replica = agent.replica_for_certificate(ca.name, future_expiry)
    assert replica.prove(serial).is_revoked
    assert ca.prove_status(serial, future_expiry, now=cutoff).is_revoked
    ca.close()
    agent.close()
