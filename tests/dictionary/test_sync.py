"""Tests for the replica synchronization protocol."""

import pytest

from repro.crypto.signing import KeyPair
from repro.dictionary.authdict import CADictionary, ReplicaDictionary
from repro.dictionary.sync import SyncRequest, SyncServer, resynchronize
from repro.errors import DesynchronizedError
from repro.ritm.messages import encode_sync_response

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
        response = server.serve(SyncRequest(ca_name="CA-S", have_count=3))
        assert response.first_number == 4
        assert len(response.serials) == 2
        assert response.signed_root == master.signed_root

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
        applied = len(resynchronize(replica, server).serials)
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
        applied = len(resynchronize(replica, server).serials)
        assert applied == 3
        assert replica.size == 7

    def test_current_replica_applies_nothing_but_refreshes_root(self, world):
        master, server, replica = world
        issuance = master.insert(make_serials(2), now=100)
        server.record_issuance(issuance)
        replica.update(issuance)
        applied = len(resynchronize(replica, server).serials)
        assert applied == 0
        assert replica.signed_root == master.signed_root

    def test_sync_response_encoded_size_grows_with_missing_entries(self, world):
        master, server, _ = world
        server.record_issuance(master.insert(make_serials(10), now=100))
        small = server.serve(SyncRequest(ca_name="CA-S", have_count=9))
        large = server.serve(SyncRequest(ca_name="CA-S", have_count=0))
        assert len(encode_sync_response(large)) > len(encode_sync_response(small))
