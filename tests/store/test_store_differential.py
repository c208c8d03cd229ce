"""Differential tests: every engine must be byte-identical to the oracle.

The :class:`NaiveMerkleStore` full-rebuild engine is the differential-testing
oracle; :class:`IncrementalMerkleStore` (and any future engine) must produce
the same roots, the same proofs, and the same errors under arbitrary
interleavings of single inserts, batch inserts, and proof queries.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProofError
from repro.store import (
    DEFAULT_ENGINE,
    ENGINES,
    IncrementalMerkleStore,
    NaiveMerkleStore,
    create_store,
)

serial_values = st.integers(min_value=1, max_value=2**24 - 1)


def to_key(value: int) -> bytes:
    return value.to_bytes(3, "big")


def to_value(value: int) -> bytes:
    return (value % 251).to_bytes(4, "big")


class TestRegistry:
    def test_engines_registered(self):
        assert ENGINES["naive"] is NaiveMerkleStore
        assert ENGINES["incremental"] is IncrementalMerkleStore
        assert DEFAULT_ENGINE in ENGINES

    def test_create_store_default_and_named(self):
        assert create_store().engine_name == DEFAULT_ENGINE
        assert create_store("naive").engine_name == "naive"
        assert create_store("incremental").engine_name == "incremental"

    def test_create_store_unknown_engine(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            create_store("rocksdb")


@settings(max_examples=60, deadline=None)
@given(st.lists(serial_values, unique=True, min_size=0, max_size=150), st.randoms(use_true_random=False))
def test_random_interleavings_produce_identical_roots_and_proofs(values, rng):
    """Single inserts, batches, and proof queries interleaved at random."""
    naive = NaiveMerkleStore()
    incremental = IncrementalMerkleStore()
    remaining = list(values)
    rng.shuffle(remaining)
    inserted = []
    while remaining:
        action = rng.randrange(3)
        if action == 0:
            value = remaining.pop()
            items = [(to_key(value), to_value(value))]
            assert naive.insert(*items[0]) == incremental.insert(*items[0])
            inserted.append(value)
        elif action == 1:
            size = min(len(remaining), rng.randrange(1, 10))
            chunk = [remaining.pop() for _ in range(size)]
            items = [(to_key(v), to_value(v)) for v in chunk]
            assert naive.insert_batch(list(items)) == incremental.insert_batch(items)
            inserted.extend(chunk)
        else:
            probe = rng.randrange(1, 2**24)
            key = to_key(probe)
            assert naive.prove(key) == incremental.prove(key)
        assert naive.root() == incremental.root()
    assert len(naive) == len(incremental) == len(inserted)
    assert naive.keys() == incremental.keys()
    root = naive.root()
    assert root == incremental.root()
    for value in inserted:
        key = to_key(value)
        left, right = naive.prove_presence(key), incremental.prove_presence(key)
        assert left == right
        assert left.verify(root)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(serial_values, unique=True, min_size=1, max_size=120),
    st.integers(min_value=1, max_value=119),
)
def test_batch_equals_sequence_of_single_inserts(values, split):
    """One batch must commit to the same root as element-wise insertion."""
    split = min(split, len(values))
    batched = create_store("incremental")
    batched.insert_batch([(to_key(v), to_value(v)) for v in values[:split]])
    batched.insert_batch([(to_key(v), to_value(v)) for v in values[split:]])
    sequential = create_store("incremental")
    for value in values:
        sequential.insert(to_key(value), to_value(value))
    oracle = create_store("naive")
    oracle.insert_batch([(to_key(v), to_value(v)) for v in values])
    assert batched.root() == sequential.root() == oracle.root()


@settings(max_examples=40, deadline=None)
@given(st.lists(serial_values, unique=True, min_size=1, max_size=120), serial_values)
def test_absence_proofs_identical_across_engines(values, probe):
    naive = create_store("naive")
    incremental = create_store("incremental")
    items = [(to_key(v), to_value(v)) for v in values]
    naive.insert_batch(items)
    incremental.insert_batch(list(items))
    key = to_key(probe)
    if probe in values:
        assert naive.prove_presence(key) == incremental.prove_presence(key)
    else:
        proof = incremental.prove_absence(key)
        assert proof == naive.prove_absence(key)
        assert proof.verify(incremental.root())


@settings(max_examples=40, deadline=None)
@given(
    st.lists(serial_values, unique=True, min_size=2, max_size=100),
    st.randoms(use_true_random=False),
)
def test_remove_batch_matches_fresh_build(values, rng):
    """Removing a staged subset leaves exactly the tree of the remainder."""
    removed = set(rng.sample(values, rng.randrange(1, len(values))))
    for engine in sorted(ENGINES):
        store = create_store(engine)
        store.insert_batch([(to_key(v), to_value(v)) for v in values])
        store.remove_batch(to_key(v) for v in removed)
        fresh = create_store(engine)
        fresh.insert_batch([(to_key(v), to_value(v)) for v in values if v not in removed])
        assert store.root() == fresh.root()
        assert store.keys() == fresh.keys()
        kept = [v for v in values if v not in removed]
        if kept:
            assert store.prove_presence(to_key(kept[0])) == fresh.prove_presence(to_key(kept[0]))


@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestEngineContract:
    """Behavioral contract every registered engine must satisfy."""

    def test_empty_root_sentinel(self, engine):
        from repro.crypto.merkle import empty_root

        assert create_store(engine).root() == empty_root()

    def test_duplicate_single_insert_rejected(self, engine):
        store = create_store(engine)
        store.insert(to_key(7), b"v")
        with pytest.raises(ProofError):
            store.insert(to_key(7), b"w")

    def test_duplicate_in_batch_rejected(self, engine):
        store = create_store(engine)
        with pytest.raises(ProofError):
            store.insert_batch([(to_key(1), b"a"), (to_key(1), b"b")])

    def test_batch_duplicate_against_store_rejected(self, engine):
        store = create_store(engine)
        store.insert(to_key(5), b"v")
        with pytest.raises(ProofError):
            store.insert_batch([(to_key(4), b"a"), (to_key(5), b"b")])

    def test_empty_batch_is_noop(self, engine):
        store = create_store(engine)
        before = store.root()
        assert store.insert_batch([]) == 0
        assert store.root() == before

    def test_batch_accepts_generators(self, engine):
        store = create_store(engine)
        assert store.insert_batch((to_key(i), b"v") for i in range(10)) == 10
        assert len(store) == 10

    def test_get_and_contains(self, engine):
        store = create_store(engine)
        store.insert_batch([(to_key(3), b"a"), (to_key(1), b"b")])
        assert to_key(1) in store
        assert store.get(to_key(3)) == b"a"
        assert store.get(to_key(9)) is None

    def test_remove_batch_restores_pre_insert_state(self, engine):
        store = create_store(engine)
        store.insert_batch([(to_key(v), b"v") for v in (2, 5, 8, 11)])
        root_before = store.root()
        staged = [(to_key(v), b"v") for v in (1, 6, 7, 20)]
        store.insert_batch(staged)
        assert store.root() != root_before
        assert store.remove_batch(key for key, _ in staged) == 4
        assert store.root() == root_before
        assert len(store) == 4
        assert to_key(6) not in store

    def test_remove_batch_missing_key_rejected(self, engine):
        store = create_store(engine)
        store.insert(to_key(1), b"v")
        with pytest.raises(ProofError):
            store.remove_batch([to_key(2)])

    def test_remove_batch_to_empty(self, engine):
        from repro.crypto.merkle import empty_root

        store = create_store(engine)
        store.insert_batch([(to_key(v), b"v") for v in (3, 9)])
        assert store.remove_batch([to_key(3), to_key(9)]) == 2
        assert store.root() == empty_root()
        assert len(store) == 0
        store.insert(to_key(4), b"v")
        assert to_key(4) in store
