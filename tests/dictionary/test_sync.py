"""Tests for the replica synchronization protocol."""

from dataclasses import replace

import pytest

from repro.crypto.signing import KeyPair
from repro.dictionary.authdict import CADictionary, ReplicaDictionary
from repro.dictionary.freshness import FreshnessStatement
from repro.dictionary.sync import (
    SyncRequest,
    SyncServer,
    apply_sync_response,
    held_state,
    resynchronize,
)
from repro.errors import DesynchronizedError, DictionaryError, SignatureError
from repro.pki.serial import SerialNumber
from repro.ritm.messages import decode_sync_response, encode_sync_response

from tests.conftest import make_serials


@pytest.fixture()
def keys():
    return KeyPair.generate(b"sync-tests")


@pytest.fixture()
def world(keys):
    master = CADictionary("CA-S", keys, delta=10, chain_length=16)
    server = SyncServer(master)
    replica = ReplicaDictionary("CA-S", keys.public)
    return master, server, replica


class TestSyncServer:
    def test_history_tracks_issuances(self, world):
        master, server, _ = world
        issuance = master.insert(make_serials(3), now=100)
        server.record_issuance(issuance)
        assert server.history_length() == 3

    def test_out_of_order_history_rejected(self, world):
        master, server, _ = world
        master.insert(make_serials(2), now=100)
        second = master.insert(make_serials(2, start=10), now=110)
        with pytest.raises(DesynchronizedError):
            server.record_issuance(second)

    def test_serve_returns_missing_suffix(self, world):
        master, server, _ = world
        server.record_issuance(master.insert(make_serials(3), now=100))
        server.record_issuance(master.insert(make_serials(2, start=10), now=110))
        batch = server.serve(SyncRequest(ca_name="CA-S", have_count=3)).batch
        assert batch.first_number == 4
        assert len(batch.serials) == 2
        assert batch.signed_root == master.signed_root

    def test_serve_rejects_wrong_ca(self, world):
        master, server, _ = world
        server.record_issuance(master.insert(make_serials(1), now=100))
        with pytest.raises(DesynchronizedError):
            server.serve(SyncRequest(ca_name="CA-T", have_count=0))

    @pytest.mark.parametrize("have_count", [5, -2])
    def test_serve_rejects_impossible_have_count(self, world, have_count):
        master, server, _ = world
        server.record_issuance(master.insert(make_serials(4), now=100))
        with pytest.raises(DesynchronizedError):
            server.serve(SyncRequest(ca_name="CA-S", have_count=have_count))

    def test_serve_before_any_root(self, world):
        _, server, _ = world
        with pytest.raises(DesynchronizedError):
            server.serve(SyncRequest(ca_name="CA-S", have_count=0))


class TestResynchronize:
    def test_cold_replica_catches_up_completely(self, world, keys):
        master, server, replica = world
        server.record_issuance(master.insert(make_serials(4), now=100))
        server.record_issuance(master.insert(make_serials(3, start=20), now=110))
        applied = len(resynchronize(replica, server).batch.serials)
        assert applied == 7
        assert replica.size == master.size
        assert replica.root() == master.root()
        # And the replica can immediately serve verifiable statuses.
        from repro.pki.serial import SerialNumber

        replica.prove(SerialNumber(999)).verify(keys.public, now=112, delta=10)

    def test_partial_replica_fetches_only_missing(self, world):
        master, server, replica = world
        first = master.insert(make_serials(4), now=100)
        server.record_issuance(first)
        replica.update(first)
        server.record_issuance(master.insert(make_serials(3, start=20), now=110))
        applied = len(resynchronize(replica, server).batch.serials)
        assert applied == 3
        assert replica.size == 7

    def test_current_replica_applies_nothing_but_refreshes_root(self, world):
        master, server, replica = world
        issuance = master.insert(make_serials(2), now=100)
        server.record_issuance(issuance)
        replica.update(issuance)
        applied = len(resynchronize(replica, server).batch.serials)
        assert applied == 0
        assert replica.signed_root == master.signed_root

    def test_sync_response_encoded_size_grows_with_missing_entries(self, world):
        master, server, _ = world
        server.record_issuance(master.insert(make_serials(10), now=100))
        small = server.serve(SyncRequest(ca_name="CA-S", have_count=9))
        large = server.serve(SyncRequest(ca_name="CA-S", have_count=0))
        assert len(encode_sync_response(large)) > len(encode_sync_response(small))


class TestHeldStateRestoresThroughTheSyncApply:
    """A replica's own answer to ``have_count = 0`` (what a checkpoint
    stores) rebuilds it through the one apply path — and is refused by that
    path's checks when it says anything the CA did not sign."""

    @pytest.fixture()
    def held(self, world):
        master, server, replica = world
        server.record_issuance(master.insert([SerialNumber(n) for n in (40, 7, 23)], now=100))
        server.record_issuance(master.insert(make_serials(4, start=100), now=110))
        resynchronize(replica, server)
        replica.apply_freshness(master.refresh(now=125))
        return master, server, replica

    def test_held_state_is_what_the_server_would_serve(self, held):
        master, server, replica = held
        state = held_state(replica)
        assert state == server.serve(SyncRequest("CA-S", 0))
        assert state.batch.serials[:3] == tuple(SerialNumber(n) for n in (40, 7, 23))
        assert state.freshness is replica.latest_freshness is not None

    def test_applying_it_to_an_empty_replica_reproduces_the_replica(self, held, keys):
        master, _, replica = held
        restored = ReplicaDictionary("CA-S", keys.public)
        apply_sync_response(restored, decode_sync_response(encode_sync_response(held_state(replica))))
        assert restored.leaf_items() == replica.leaf_items()
        assert restored.signed_root == replica.signed_root
        assert restored.latest_freshness == replica.latest_freshness
        assert restored.prove(SerialNumber(23)) == replica.prove(SerialNumber(23))
        # freshness keeps moving forward from the restored period
        restored.apply_freshness(master.refresh(now=135))

    def test_tampered_serial_is_rejected_and_rolled_back(self, held, keys):
        _, _, replica = held
        state = held_state(replica)
        restored = ReplicaDictionary("CA-S", keys.public)
        batch = state.batch
        forged = replace(state, batch=replace(batch, serials=(SerialNumber(41),) + batch.serials[1:]))
        with pytest.raises(DesynchronizedError, match="recomputed root"):
            apply_sync_response(restored, forged)
        assert restored.size == 0 and restored.signed_root is None
        assert restored.revocation_number(SerialNumber(7)) is None
        apply_sync_response(restored, state)  # the honest state still applies
        assert restored.root() == replica.root()

    def test_wrong_ca_is_rejected(self, held, keys):
        _, _, replica = held
        other = ReplicaDictionary("CA-T", keys.public)
        with pytest.raises(DictionaryError, match="CA-S"):
            apply_sync_response(other, held_state(replica))
        # Renaming the response is not enough: the root names its dictionary.
        with pytest.raises(DictionaryError, match="signed root for 'CA-S'"):
            state = held_state(replica)
            apply_sync_response(other, replace(state, batch=replace(state.batch, ca_name="CA-T")))
        assert other.size == 0 and other.signed_root is None

    def test_wrong_key_is_rejected(self, held):
        _, _, replica = held
        stranger = ReplicaDictionary("CA-S", KeyPair.generate(b"someone-else").public)
        with pytest.raises(SignatureError):
            apply_sync_response(stranger, held_state(replica))
        assert stranger.size == 0 and stranger.signed_root is None

    def test_non_empty_replica_is_rejected(self, held, keys):
        master, _, replica = held
        occupied = ReplicaDictionary("CA-S", keys.public)
        apply_sync_response(occupied, held_state(replica))
        root = occupied.root()
        with pytest.raises(DesynchronizedError, match="not consecutive"):
            apply_sync_response(occupied, held_state(replica))
        assert occupied.root() == root and occupied.size == replica.size

    def test_freshness_that_does_not_link_leaves_the_root_on_its_anchor(self, held, keys):
        _, _, replica = held
        state = held_state(replica)
        restored = ReplicaDictionary("CA-S", keys.public)
        unlinked = FreshnessStatement(bytes(20))
        with pytest.raises(DictionaryError, match="does not link"):
            apply_sync_response(restored, replace(state, freshness=unlinked))
        assert restored.signed_root == state.batch.signed_root
        assert restored.latest_freshness.value == state.batch.signed_root.anchor
        restored.prove(SerialNumber(999)).verify(keys.public, now=112, delta=10)
