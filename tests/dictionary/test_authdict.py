"""Tests for the CA master dictionary and RA replicas (Fig. 2 interface)."""

import gc
import random
import tracemalloc
from dataclasses import replace

import pytest

from repro.crypto.signing import CAKeyring, KeyPair
from repro.dictionary.authdict import CADictionary, ReplicaDictionary, RevocationIssuance
from repro.dictionary.freshness import FreshnessStatement
from repro.dictionary.signed_root import SignedRoot
from repro.dictionary.sync import apply_sync_response, held_state
from repro.errors import DesynchronizedError, DictionaryError, SignatureError
from repro.pki.serial import SerialNumber
from repro.ritm.messages import encode_status
from repro.store import ENGINES, create_store

from tests.conftest import make_serials, sized_attributes


@pytest.fixture()
def keys():
    return KeyPair.generate(b"authdict-tests")


@pytest.fixture()
def master(keys):
    return CADictionary("CA-X", keys, delta=10, chain_length=16)


@pytest.fixture()
def replica(keys):
    return ReplicaDictionary("CA-X", keys.public)


class TestInsert:
    def test_insert_numbers_revocations_consecutively(self, master):
        issuance = master.insert(make_serials(3), now=100)
        assert issuance.first_number == 1
        assert [number for number, _ in issuance.numbered_serials()] == [1, 2, 3]
        second = master.insert(make_serials(2, start=10), now=110)
        assert second.first_number == 4

    def test_insert_updates_size_and_root(self, master):
        issuance = master.insert(make_serials(5), now=100)
        assert master.size == 5
        assert issuance.signed_root.size == 5
        assert issuance.signed_root.root == master.root()

    def test_signed_root_verifies(self, master, keys):
        issuance = master.insert(make_serials(1), now=100)
        assert issuance.signed_root.verify(keys.public)

    def test_empty_insert_rejected(self, master):
        with pytest.raises(DictionaryError):
            master.insert([], now=100)

    def test_duplicate_serial_rejected(self, master):
        master.insert(make_serials(3), now=100)
        with pytest.raises(DictionaryError):
            master.insert([SerialNumber(2)], now=110)

    def test_contains_and_revocation_number(self, master):
        master.insert([SerialNumber(7), SerialNumber(3)], now=100)
        assert master.contains(SerialNumber(7))
        assert not master.contains(SerialNumber(8))
        assert master.revocation_number(SerialNumber(7)) == 1
        assert master.revocation_number(SerialNumber(3)) == 2


class TestRefresh:
    def test_bootstrap_refresh_signs_empty_dictionary(self, master, keys):
        result = master.refresh(now=50)
        assert isinstance(result, SignedRoot)
        assert result.size == 0
        assert result.verify(keys.public)

    def test_refresh_returns_freshness_statement_within_chain(self, master):
        master.insert(make_serials(2), now=100)
        statement = master.refresh(now=125)
        assert isinstance(statement, FreshnessStatement)
        assert statement.dictionary_size == 2

    def test_refresh_resigns_root_when_chain_exhausted(self, master):
        master.insert(make_serials(1), now=100)
        old_root = master.signed_root
        # chain_length=16, delta=10: 160 seconds later the chain is exhausted.
        result = master.refresh(now=100 + 16 * 10)
        assert isinstance(result, SignedRoot)
        assert result.timestamp > old_root.timestamp
        assert result.root == old_root.root  # content unchanged

    def test_successive_statements_link_to_anchor(self, master, keys):
        from repro.dictionary.freshness import statement_is_fresh

        master.insert(make_serials(1), now=100)
        for period in range(1, 5):
            statement = master.refresh(now=100 + period * 10)
            assert statement_is_fresh(master.signed_root, statement, now=100 + period * 10, delta=10)


class TestProve:
    def test_prove_requires_signed_root(self, keys):
        fresh = CADictionary("CA-Y", keys, delta=10, chain_length=8)
        with pytest.raises(DictionaryError):
            fresh.prove(SerialNumber(1))

    def test_prove_absent_and_present(self, master):
        master.insert(make_serials(4), now=100)
        absent = master.prove(SerialNumber(99))
        present = master.prove(SerialNumber(2))
        assert not absent.is_revoked
        assert present.is_revoked

    def test_status_sizes_are_compact(self, master):
        master.insert(make_serials(100), now=100)
        status = master.prove(SerialNumber(2000))
        assert len(encode_status(status)) < 1500


class TestReplicaUpdate:
    def test_update_applies_issuance(self, master, replica):
        issuance = master.insert(make_serials(5), now=100)
        replica.update(issuance)
        assert replica.size == 5
        assert replica.root() == master.root()
        assert replica.signed_root == issuance.signed_root

    def test_update_rejects_wrong_ca(self, master, keys):
        other = ReplicaDictionary("CA-Z", keys.public)
        issuance = master.insert(make_serials(1), now=100)
        with pytest.raises(DictionaryError):
            other.update(issuance)

    def test_update_rejects_bad_signature(self, master, replica):
        from dataclasses import replace

        issuance = master.insert(make_serials(1), now=100)
        forged_root = replace(issuance.signed_root, signature=b"\x00" * 64)
        forged = replace(issuance, signed_root=forged_root)
        with pytest.raises(SignatureError):
            replica.update(forged)

    def test_update_rejects_gap_in_numbering(self, master, replica):
        first = master.insert(make_serials(2), now=100)
        second = master.insert(make_serials(2, start=10), now=110)
        with pytest.raises(DesynchronizedError):
            replica.update(second)  # first batch never applied

    def test_update_rejects_tampered_serials(self, master, replica):
        from dataclasses import replace

        issuance = master.insert(make_serials(3), now=100)
        tampered = replace(issuance, serials=(SerialNumber(100), SerialNumber(101), SerialNumber(102)))
        with pytest.raises(DictionaryError):
            replica.update(tampered)

    def test_sequential_updates_track_master(self, master, replica):
        for batch in range(3):
            issuance = master.insert(make_serials(4, start=1 + batch * 10), now=100 + batch)
            replica.update(issuance)
        assert replica.size == master.size == 12
        assert replica.root() == master.root()


class TestReplicaFreshnessAndRoots:
    def test_apply_freshness(self, master, replica):
        issuance = master.insert(make_serials(2), now=100)
        replica.update(issuance)
        statement = master.refresh(now=120)
        replica.apply_freshness(statement)
        assert replica.latest_freshness == statement

    def test_apply_freshness_requires_root(self, replica, master):
        master.insert(make_serials(1), now=100)
        statement = master.refresh(now=110)
        with pytest.raises(DesynchronizedError):
            replica.apply_freshness(statement)

    def test_apply_freshness_rejects_unlinked_value(self, master, replica):
        issuance = master.insert(make_serials(1), now=100)
        replica.update(issuance)
        bogus = FreshnessStatement(ca_name="CA-X", value=b"\x01" * 20, dictionary_size=1)
        with pytest.raises(DictionaryError):
            replica.apply_freshness(bogus)

    def test_freshness_with_larger_size_flags_desync(self, master, replica):
        issuance = master.insert(make_serials(1), now=100)
        replica.update(issuance)
        master.insert(make_serials(1, start=50), now=105)
        statement = master.refresh(now=115)
        with pytest.raises(DesynchronizedError):
            replica.apply_freshness(statement)

    def test_install_root_requires_matching_content(self, master, replica):
        issuance = master.insert(make_serials(2), now=100)
        replica.update(issuance)
        master.insert(make_serials(1, start=70), now=110)
        with pytest.raises(DesynchronizedError):
            replica.install_root(master.signed_root)

    def test_is_desynchronized(self, master, replica):
        issuance = master.insert(make_serials(2), now=100)
        replica.update(issuance)
        assert not replica.is_desynchronized(2)
        assert replica.is_desynchronized(3)

    def test_replica_prove_matches_master(self, master, replica, keys):
        issuance = master.insert(make_serials(10), now=100)
        replica.update(issuance)
        status = replica.prove(SerialNumber(123456))
        status.verify(keys.public, now=105, delta=10)


class TestStorageEstimates:
    def test_storage_and_memory_scale_with_entries(self, master):
        master.insert(make_serials(100), now=100)
        storage = master.storage_size_bytes()
        memory = master.memory_size_bytes()
        assert storage == 100 * (3 + 4)
        assert memory > storage

    def test_config_validation(self, keys):
        with pytest.raises(DictionaryError):
            CADictionary("CA", keys, delta=0)
        with pytest.raises(DictionaryError):
            CADictionary("CA", keys, delta=10, chain_length=0)


class TestUpdateRollbackAndBatches:
    """The store-transaction semantics added with the repro.store seam."""

    def test_tampered_update_rolls_back_replica_state(self, master, replica):
        good = master.insert(make_serials(3), now=100)
        replica.update(good)
        root_before, size_before = replica.root(), replica.size

        honest = master.insert(make_serials(3, start=10), now=110)
        tampered = replace(honest, serials=(SerialNumber(900), SerialNumber(901), SerialNumber(902)))
        with pytest.raises(DesynchronizedError):
            replica.update(tampered)

        # The staged batch must be fully rolled back...
        assert replica.root() == root_before
        assert replica.size == size_before
        assert not replica.contains(SerialNumber(900))
        # ...so the honest message still applies afterwards.
        replica.update(honest)
        assert replica.root() == master.root()
        assert replica.size == master.size

    @pytest.mark.parametrize("delivered", [2, 4])
    def test_wrong_serial_count_is_rejected_before_the_store_is_touched(
        self, master, replica, monkeypatch, delivered
    ):
        """A batch whose serial count contradicts the CA-signed size needs no
        staging, root recomputation and rollback to be found out."""
        replica.update(master.insert(make_serials(3), now=100))
        root_before = replica.root()
        honest = master.insert(make_serials(3, start=10), now=110)
        miscounted = replace(honest, serials=tuple(make_serials(delivered, start=10)))

        entered = []
        real_insert_batch = replica._tree.insert_batch
        monkeypatch.setattr(
            replica._tree,
            "insert_batch",
            lambda items: entered.append(1) or real_insert_batch(items),
        )
        with pytest.raises(DesynchronizedError):
            replica.update(miscounted)
        assert entered == []
        assert (replica.size, replica.root()) == (3, root_before)

        replica.update(honest)
        assert entered == [1]
        assert replica.root() == master.root()

    def test_update_many_applies_consecutive_batches_in_one_transaction(self, master, replica):
        issuances = [
            master.insert(make_serials(2, start=1 + batch * 10), now=100 + batch)
            for batch in range(3)
        ]
        assert replica.update_many(issuances) == 6
        assert replica.size == master.size == 6
        assert replica.root() == master.root()
        assert replica.signed_root == issuances[-1].signed_root

    def test_update_many_rejects_non_consecutive_batches(self, master, replica):
        first = master.insert(make_serials(2), now=100)
        master.insert(make_serials(2, start=10), now=110)
        third = master.insert(make_serials(2, start=20), now=120)
        with pytest.raises(DesynchronizedError):
            replica.update_many([first, third])
        assert replica.size == 0

    def test_update_many_empty_is_noop(self, replica):
        assert replica.update_many([]) == 0
        assert replica.size == 0

    @pytest.mark.parametrize("engine", ["naive", "incremental", "durable"])
    def test_engines_produce_identical_signed_roots(self, keys, engine):
        master = CADictionary("CA-X", keys, delta=10, chain_length=16, engine=engine)
        replica = ReplicaDictionary("CA-X", keys.public, engine=engine)
        assert master.store_engine == replica.store_engine == engine
        issuance = master.insert(make_serials(7), now=100)
        replica.update(issuance)
        assert replica.root() == master.root()


def retained_bytes(build):
    """Traced bytes still allocated after ``build()`` (its result is dropped)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        build()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestStoreIsTheOnlyIndex:
    """The store is the only per-entry structure a dictionary owns: the
    revocation number is the leaf value, and duplicates are the store's to
    reject — on every engine."""

    ENTRIES = 20_000

    @pytest.fixture()
    def pair(self, keys, engine):
        # A short chain keeps the hash chain out of the memory comparison.
        master = CADictionary("CA-X", keys, delta=10, chain_length=4, engine=engine)
        replica = ReplicaDictionary("CA-X", keys.public, engine=engine)
        yield master, replica
        master.close()
        replica.close()

    @pytest.fixture()
    def serials(self):
        shuffled = make_serials(self.ENTRIES)
        random.Random(18).shuffle(shuffled)
        return shuffled

    def test_no_container_shadows_the_store(self, pair, serials):
        master, replica = pair
        replica.update(master.insert(serials, now=100))
        for dictionary in pair:
            sizes = sized_attributes(dictionary)
            assert sizes.pop("_tree") == self.ENTRIES
            assert all(size < self.ENTRIES for size in sizes.values()), sizes
        assert replica.revocation_number(serials[0]) == 1
        assert replica.revocation_number(serials[-1]) == self.ENTRIES

    def test_a_dictionary_costs_what_its_store_costs(self, pair, serials, engine):
        master, replica = pair
        store = create_store(engine)

        def fill_bare_store():
            store.insert_batch(
                (serial.to_bytes(), number.to_bytes(4, "big"))
                for number, serial in enumerate(serials, 1)
            )
            store.root()  # settle the hash levels, as signing a root does

        store_bytes = retained_bytes(fill_bare_store)
        store.close()
        master_bytes = retained_bytes(lambda: master.insert(serials, now=100))
        issuance = RevocationIssuance("CA-X", tuple(serials), 1, master.signed_root)
        replica_bytes = retained_bytes(lambda: replica.update(issuance))
        assert master_bytes <= 1.05 * store_bytes
        assert replica_bytes <= 1.05 * store_bytes

    def test_duplicate_within_a_batch_changes_nothing(self, pair):
        master, _ = pair
        master.insert(make_serials(3), now=100)
        root = master.root()
        with pytest.raises(DictionaryError, match="already revoked"):
            master.insert([SerialNumber(8), SerialNumber(9), SerialNumber(8)], now=110)
        assert (master.size, master.root()) == (3, root)
        assert master.revocation_number(SerialNumber(8)) is None
        assert master.insert([SerialNumber(8), SerialNumber(9)], now=110).first_number == 4

    def test_duplicate_against_the_store_changes_nothing(self, pair):
        master, _ = pair
        master.insert(make_serials(3), now=100)
        root = master.root()
        with pytest.raises(DictionaryError, match="already revoked"):
            master.insert([SerialNumber(9), SerialNumber(2)], now=110)
        assert (master.size, master.root()) == (3, root)
        assert master.revocation_number(SerialNumber(2)) == 2
        assert master.revocation_number(SerialNumber(9)) is None

    def test_rolled_back_batch_leaves_no_numbers_behind(self, pair):
        master, replica = pair
        replica.update(master.insert(make_serials(3), now=100))
        honest = master.insert(make_serials(3, start=10), now=110)
        forged = make_serials(3, start=900)
        with pytest.raises(DesynchronizedError):
            replica.update(replace(honest, serials=tuple(forged)))
        assert [replica.revocation_number(serial) for serial in forged] == [None] * 3
        assert replica.revocation_number(SerialNumber(3)) == 3
        replica.update(honest)
        assert replica.revocation_number(SerialNumber(10)) == 4
        assert replica.root() == master.root()

    def test_held_state_numbers_come_from_the_leaves(self, pair, keys, engine):
        """The leaf values are the only record of the revocation order, so a
        replica rebuilt from its own held state gets its numbers from them."""
        master, replica = pair
        serials = [SerialNumber(value) for value in (40, 7, 23)]
        replica.update(master.insert(serials, now=100))
        state = held_state(replica)
        assert list(state.serials) == serials
        restored = ReplicaDictionary("CA-X", keys.public, engine=engine)
        try:
            reordered = replace(state, serials=tuple(sorted(serials)))
            with pytest.raises(DesynchronizedError):
                apply_sync_response(restored, reordered)
            assert restored.size == 0
            assert restored.revocation_number(SerialNumber(7)) is None
            apply_sync_response(restored, state)
            assert restored.root() == master.root()
            assert [restored.revocation_number(serial) for serial in serials] == [1, 2, 3]
        finally:
            restored.close()


class TestStandaloneReplicaKeyRotation:
    """A replica no agent owns verifies roots through its own (capacity-0)
    root cache: the one path, keyring overlap included."""

    def test_retired_key_is_accepted_only_inside_its_overlap(self, keys):
        incoming = KeyPair.generate(b"authdict-tests-rotated")
        keyring = CAKeyring.single(keys.public)
        keyring.add_key(incoming.public, activated_at=200, overlap_seconds=50)
        master = CADictionary("CA-X", keys, delta=10, chain_length=16)
        replica = ReplicaDictionary("CA-X", keyring)

        # Signed by the retired key at 210: still inside its overlap.
        replica.update(master.insert(make_serials(2), now=210))
        assert replica.size == 2
        assert replica.root_cache.stats.lookups == 1

        keyring.advance(251)  # overlap closed at 250
        late = master.insert(make_serials(2, start=10), now=251)
        with pytest.raises(SignatureError):
            replica.update(late)
        with pytest.raises(SignatureError):
            replica.install_root(late.signed_root)
        assert replica.size == 2
        assert replica.root_cache.stats.lookups == 3

        # The same batch re-signed under the incoming key goes through.
        replica.update(replace(late, signed_root=master.rotate_keys(incoming, now=252)))
        assert replica.root() == master.root()
