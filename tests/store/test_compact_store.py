"""Differential and property tests for the compact flat-buffer engine.

The compact engine rebuilds the whole storage layer — byte arenas instead of
Python lists, flat hash planes instead of digest lists, lazy settling instead
of eager recomputation — so this suite pins the one thing that must not
change: for every reachable leaf set, roots, presence proofs, *and* absence
proofs are byte-identical to the ``naive`` oracle and the ``incremental``
engine.  It also covers what is new: proof-aliasing safety (returned proofs
must survive later mutations of the underlying buffers), the ragged-width
arena fallback, the lazy dirty-watermark settle, and the ``durable-compact``
WAL composition.
"""

import bisect
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.merkle import empty_root
from repro.errors import ProofError
from repro.store import create_store
from repro.store.compact import CompactMerkleStore, _ByteColumn

serial_values = st.integers(min_value=1, max_value=2**24 - 1)


def to_key(value: int) -> bytes:
    return value.to_bytes(3, "big")


def to_value(value: int) -> bytes:
    return (value % 251).to_bytes(4, "big")


def build_pair(engine="compact", oracle="naive"):
    return create_store(engine), create_store(oracle)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(serial_values, unique=True, min_size=0, max_size=150),
    st.randoms(use_true_random=False),
)
def test_random_interleavings_match_both_references(values, rng):
    """Inserts, batches, removes, and proofs interleaved at random.

    Every intermediate state must agree with *both* references: the naive
    full-rebuild oracle and the incremental engine (so a shared bug in the
    suffix-recompute lineage would still be caught by the oracle).
    """
    compact = create_store("compact")
    naive = create_store("naive")
    incremental = create_store("incremental")
    remaining = list(values)
    rng.shuffle(remaining)
    inserted = []
    while remaining:
        action = rng.randrange(4)
        if action == 0:
            value = remaining.pop()
            item = (to_key(value), to_value(value))
            assert compact.insert(*item) == naive.insert(*item) == incremental.insert(*item)
            inserted.append(value)
        elif action == 1:
            size = min(len(remaining), rng.randrange(1, 10))
            chunk = [remaining.pop() for _ in range(size)]
            items = [(to_key(v), to_value(v)) for v in chunk]
            assert (
                compact.insert_batch(list(items))
                == naive.insert_batch(list(items))
                == incremental.insert_batch(items)
            )
            inserted.extend(chunk)
        elif action == 2 and inserted:
            count = rng.randrange(1, min(len(inserted), 6) + 1)
            victims = set(rng.sample(inserted, count))
            keys = [to_key(v) for v in victims]
            assert (
                compact.remove_batch(list(keys))
                == naive.remove_batch(list(keys))
                == incremental.remove_batch(keys)
            )
            inserted = [v for v in inserted if v not in victims]
        else:
            probe = to_key(rng.randrange(1, 2**24))
            assert compact.prove(probe) == naive.prove(probe) == incremental.prove(probe)
        assert compact.root() == naive.root() == incremental.root()
    root = compact.root()
    for value in inserted:
        key = to_key(value)
        proof = compact.prove_presence(key)
        assert proof == naive.prove_presence(key)
        assert proof.verify(root)
    assert compact.keys() == naive.keys()
    assert list(compact.items()) == list(naive.items())


@settings(max_examples=40, deadline=None)
@given(st.lists(serial_values, unique=True, min_size=1, max_size=120), serial_values)
def test_absence_proofs_byte_identical(values, probe):
    """Absence proofs (adjacency pairs) must match the oracle exactly."""
    compact, naive = build_pair()
    items = [(to_key(v), to_value(v)) for v in values]
    compact.insert_batch(list(items))
    naive.insert_batch(items)
    key = to_key(probe)
    if probe in values:
        with pytest.raises(ProofError):
            compact.prove_absence(key)
    else:
        proof = compact.prove_absence(key)
        assert proof == naive.prove_absence(key)
        assert proof.verify(compact.root())


@settings(max_examples=40, deadline=None)
@given(
    st.lists(serial_values, unique=True, min_size=1, max_size=120),
    st.integers(min_value=1, max_value=119),
)
def test_batch_equals_sequence_of_single_inserts(values, split):
    """Split batches, element-wise inserts, and one batch commit identically."""
    split = min(split, len(values))
    batched = create_store("compact")
    batched.insert_batch([(to_key(v), to_value(v)) for v in values[:split]])
    batched.insert_batch([(to_key(v), to_value(v)) for v in values[split:]])
    sequential = create_store("compact")
    for value in values:
        sequential.insert(to_key(value), to_value(value))
    oracle = create_store("naive")
    oracle.insert_batch([(to_key(v), to_value(v)) for v in values])
    assert batched.root() == sequential.root() == oracle.root()


class TestProofAliasing:
    """Returned proofs must be immutable snapshots, not live buffer views.

    The engine serves sibling digests out of mutable ``bytearray`` planes;
    a careless ``memoryview`` would let later mutations silently rewrite a
    proof that was already handed to a verifier.
    """

    def test_presence_proof_survives_later_mutations(self):
        store = create_store("compact")
        values = list(range(10, 200, 7))
        store.insert_batch([(to_key(v), to_value(v)) for v in values])
        root_before = store.root()
        proof = store.prove_presence(to_key(52))
        frozen = (
            proof.key,
            proof.value,
            tuple((bytes(s.sibling), s.sibling_is_left) for s in proof.path),
        )
        store.insert_batch([(to_key(v), to_value(v)) for v in range(1000, 1100, 3)])
        store.remove_batch([to_key(10), to_key(17)])
        store.root()  # force a settle that rewrites the planes
        assert proof.key == frozen[0]
        assert proof.value == frozen[1]
        assert tuple((bytes(s.sibling), s.sibling_is_left) for s in proof.path) == frozen[2]
        assert proof.verify(root_before)

    def test_absence_proof_survives_later_mutations(self):
        store = create_store("compact")
        store.insert_batch([(to_key(v), to_value(v)) for v in (5, 9, 30, 77)])
        root_before = store.root()
        proof = store.prove_absence(to_key(20))
        store.insert(to_key(20), to_value(20))
        store.root()
        assert proof.verify(root_before)

    def test_proof_fields_are_real_bytes(self):
        """Fields must be hashable ``bytes`` (frozen-dataclass contract)."""
        store = create_store("compact")
        store.insert_batch([(to_key(v), to_value(v)) for v in (1, 2, 3, 4, 5)])
        proof = store.prove_presence(to_key(3))
        assert type(proof.key) is bytes
        assert type(proof.value) is bytes
        for step in proof.path:
            assert type(step.sibling) is bytes
        hash(proof.path[0])  # would raise on bytearray/memoryview fields


class TestRaggedArenas:
    """The fixed-stride arenas must fall back safely on mixed-width leaves."""

    def test_mixed_width_keys_match_oracle(self):
        compact, naive = build_pair()
        leaves = [
            (b"a", b"1"),
            (b"longer-key", b"value-two"),
            (b"zz", b""),
            (b"m" * 40, b"v" * 17),
            (b"b", b"x"),
        ]
        for key, value in leaves:
            assert compact.insert(key, value) == naive.insert(key, value)
            assert compact.root() == naive.root()
        assert compact.prove_presence(b"a") == naive.prove_presence(b"a")
        assert compact.prove_absence(b"c") == naive.prove_absence(b"c")
        assert compact.keys() == naive.keys()

    def test_mixed_width_batch_and_remove(self):
        compact, naive = build_pair()
        first = [(b"k%03d" % i, b"v%d" % i) for i in range(20)]
        compact.insert_batch(list(first))
        naive.insert_batch(first)
        ragged = [(b"A" * (i + 1), b"B" * (i % 5)) for i in range(10)]
        compact.insert_batch(list(ragged))
        naive.insert_batch(ragged)
        assert compact.root() == naive.root()
        removed = [key for key, _ in first[::3]] + [ragged[2][0]]
        assert compact.remove_batch(list(removed)) == naive.remove_batch(removed)
        assert compact.root() == naive.root()
        assert list(compact.items()) == list(naive.items())

    def test_column_mode_transition(self):
        column = _ByteColumn()
        column.insert_at(0, b"aaa")
        column.insert_at(1, b"bbb")
        assert column.is_uniform
        column.insert_at(2, b"cc")  # width mismatch converts the arena
        assert not column.is_uniform
        assert list(column) == [b"aaa", b"bbb", b"cc"]
        assert column[-1] == b"cc"


class TestColumnSearch:
    """The column's own search is ``bisect_left`` over its items, in every mode."""

    @staticmethod
    def check(column):
        items = list(column)
        probes = {b"", b"\x00", b"\xff" * 6}
        for item in items:
            # Shorter than, equal to and longer than the item (and so the stride).
            probes.update((item, item[:-1], item + b"\x00", item[:-1] + b"\xff"))
        for probe in sorted(probes):
            index = bisect.bisect_left(items, probe)
            found = index < len(items) and items[index] == probe
            assert column.search(probe) == (index, found), probe

    def test_uniform_column_after_every_kind_of_mutation(self):
        column = _ByteColumn()
        self.check(column)  # empty, no stride yet
        rng = random.Random(3)
        values = sorted(rng.sample(range(1, 2**24), 300))
        column.append_bulk([to_key(v) for v in values[:200:2]])
        self.check(column)
        merged = [to_key(v) for v in values[1:200:2]]
        column.merge([index + 1 for index in range(len(merged))], merged)
        self.check(column)
        column.insert_at(0, to_key(0))
        column.insert_at(len(column), to_key(2**24 - 1))
        self.check(column)
        column.keep_runs([(0, 1), (5, 90), (150, len(column))], 1 + 85 + len(column) - 150)
        assert column.is_uniform
        self.check(column)
        column.keep_runs([], 0)  # a stride, and nothing stored under it
        self.check(column)

    def test_zero_width_first_key(self):
        column = _ByteColumn()
        column.insert_at(0, b"")
        assert column.is_uniform
        self.check(column)
        column.insert_at(1, b"a")
        self.check(column)

    def test_across_the_uniform_to_ragged_conversion(self):
        column = _ByteColumn()
        column.append_bulk([b"aaa", b"bbb", b"ddd"])
        self.check(column)
        column.insert_at(2, b"cc")
        assert not column.is_uniform
        self.check(column)
        column.merge([0, 4], [b"a", b"eeee"])
        self.check(column)

    def test_the_store_seam_is_the_column_search(self):
        store = create_store("compact")
        store.insert_batch([(to_key(v), to_value(v)) for v in range(10, 500, 10)])
        assert store._search(to_key(250)) == (24, True)
        assert store._search(to_key(255)) == (25, False)
        assert store._find(to_key(255)) is None and store._find(to_key(10)) == 0
        with pytest.raises(ProofError, match="duplicate key"):
            store._insertion_point(to_key(250))


class TestLazySettle:
    """The dirty-watermark settle must be invisible to observers."""

    def test_mutation_burst_shares_one_settle(self):
        compact, naive = build_pair()
        for v in range(50):
            compact.insert(to_key(v + 1), to_value(v))
            naive.insert(to_key(v + 1), to_value(v))
        # no root() calls in between: the whole burst settles at once
        assert compact.root() == naive.root()

    def test_remove_then_append_after_no_read(self):
        """Shrink + regrow between settles exercises stale-plane truncation."""
        compact, naive = build_pair()
        values = list(range(1, 65))
        compact.insert_batch([(to_key(v), to_value(v)) for v in values])
        naive.insert_batch([(to_key(v), to_value(v)) for v in values])
        compact.root()  # settle at 64 leaves
        tail = [to_key(v) for v in values[-9:]]
        compact.remove_batch(list(tail))
        naive.remove_batch(list(tail))
        compact.insert(to_key(2000), to_value(7))
        naive.insert(to_key(2000), to_value(7))
        assert compact.root() == naive.root()
        assert compact.prove_presence(to_key(2000)) == naive.prove_presence(to_key(2000))

    def test_remove_all_then_reuse(self):
        store = create_store("compact")
        store.insert_batch([(to_key(v), b"v") for v in (3, 9, 27)])
        store.remove_batch([to_key(3), to_key(9), to_key(27)])
        assert store.root() == empty_root()
        assert len(store) == 0
        store.insert(to_key(4), b"v")
        reference = create_store("naive")
        reference.insert(to_key(4), b"v")
        assert store.root() == reference.root()


class TestDurableCompact:
    """The WAL overlay composed over the compact core."""

    def test_recovery_round_trip(self, tmp_path):
        directory = tmp_path / "store"
        store = create_store("durable-compact", directory=directory, snapshot_every=8)
        values = random.Random(11).sample(range(1, 2**24), 200)
        store.insert_batch([(to_key(v), to_value(v)) for v in sorted(values)[:150]])
        for v in sorted(values)[150:]:
            store.insert(to_key(v), to_value(v))
        store.remove_batch([to_key(v) for v in sorted(values)[:10]])
        root = store.root()
        proof = store.prove_presence(to_key(sorted(values)[20]))
        store.close()

        reopened = create_store("durable-compact", directory=directory)
        assert reopened.root() == root
        assert reopened.prove_presence(to_key(sorted(values)[20])) == proof
        assert isinstance(reopened, CompactMerkleStore)
        reopened.close()

    def test_directory_interchangeable_with_durable(self, tmp_path):
        """Both WAL engines read each other's directories byte-identically."""
        directory = tmp_path / "store"
        first = create_store("durable-compact", directory=directory)
        first.insert_batch([(to_key(v), to_value(v)) for v in range(100, 400, 7)])
        root = first.root()
        first.close()
        second = create_store("durable", directory=directory)
        assert second.root() == root
        second.insert(to_key(5000), to_value(1))
        root_two = second.root()
        second.close()
        third = create_store("durable-compact", directory=directory)
        assert third.root() == root_two
        third.close()


class TestMemoryAccounting:
    """The flat layout's advertised footprint must hold."""

    def test_memory_usage_reports_flat_buffers(self):
        store = create_store("compact")
        count = 4096
        store.insert_batch([(to_key(v), to_value(v)) for v in range(1, count + 1)])
        usage = store.memory_usage()
        digest_size = store.digest_size
        assert usage["keys_bytes"] == count * 3
        assert usage["values_bytes"] == count * 4
        # planes: ~2N digests (leaf row + geometric levels above it)
        assert count * digest_size <= usage["plane_bytes"] <= 2 * count * digest_size + 64
        per_leaf = usage["total_bytes"] / count
        assert per_leaf < 60, f"flat layout should stay under 60 B/leaf, got {per_leaf:.1f}"
