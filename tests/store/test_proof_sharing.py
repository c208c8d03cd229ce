"""One search, one climb and a fork — against the two-bisect, two-walk oracle.

``prove`` decides presence and builds the proof from a single key search, and
an absence proof between two stored leaves climbs each neighbour only to the
fork where they become siblings, then climbs their common ancestor once and
puts the *same* step objects on both paths.  The oracle below is the algorithm
this replaced, written out: one bisect for "is it stored?", another inside the
proof, and an independent leaf-to-root walk over ``_hash_levels()`` per
neighbour.  Every engine must return proofs equal to the oracle's, encode them
to the same bytes, and never hand out a step that aliases live store state.
"""

import bisect
import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.merkle import AbsenceProof, AuditStep, PresenceProof
from repro.errors import ProofError
from repro.ritm.messages import decode_proof, encode_proof
from repro.store import ENGINES, create_store

ALL_ENGINES = sorted(ENGINES)
DIGEST_SIZES = (1, 20, 32)


def to_key(value: int) -> bytes:
    return value.to_bytes(3, "big")


def to_value(key: bytes) -> bytes:
    return bytes([sum(key) % 251]) * 4


def leaves(keys):
    return [(key, to_value(key)) for key in keys]


class Oracle:
    """The parent commit's read path over a snapshot of one store's state."""

    def __init__(self, store):
        self.keys = list(store.keys())
        self.values = [value for _, value in store.items()]
        self.levels = [list(row) for row in store._hash_levels()] if self.keys else []

    def find(self, key):
        index = bisect.bisect_left(self.keys, key)
        if index < len(self.keys) and self.keys[index] == key:
            return index
        return None

    def audit_path(self, index):
        path = []
        node_index = index
        for level in self.levels[:-1]:
            sibling_index = node_index ^ 1
            if sibling_index < len(level):
                path.append(
                    AuditStep(
                        sibling=level[sibling_index],
                        sibling_is_left=sibling_index < node_index,
                    )
                )
            node_index //= 2
        return path

    def presence_at(self, index):
        return PresenceProof(
            key=self.keys[index],
            value=self.values[index],
            leaf_index=index,
            tree_size=len(self.keys),
            path=tuple(self.audit_path(index)),
        )

    def prove(self, key):
        if self.find(key) is not None:  # the first bisect
            return self.presence_at(self.find(key))  # the second
        size = len(self.keys)
        index = bisect.bisect_left(self.keys, key)
        if size == 0:
            return AbsenceProof(key=key, tree_size=0)
        left = self.presence_at(index - 1) if index > 0 else None
        right = self.presence_at(index) if index < size else None
        return AbsenceProof(key=key, tree_size=size, left=left, right=right)


def assert_shares_above_the_fork_only(proof):
    """Both neighbours' paths end in the *same* step objects from the fork's
    parent up; at and below the fork every step is the path's own."""
    left, right = proof.left.path, proof.right.path
    index = proof.right.leaf_index
    fork = (index & -index).bit_length()  # the left neighbour has a sibling at each of these
    shared = len(left) - fork
    assert shared >= 0 and len(right) >= shared
    own_left, own_right = left[:fork], right[: len(right) - shared]
    assert all(a is b for a, b in zip(left[fork:], right[len(right) - shared :]))
    assert not any(a is b for a in own_left for b in own_right)
    # The fork's two steps mirror each other: each is the other's ancestor's side.
    assert own_left[-1].sibling_is_left is False and own_right[-1].sibling_is_left is True


def check_proof(store, oracle, key, root, digest_size):
    proof = store.prove(key)
    expected = oracle.prove(key)
    assert proof == expected
    assert encode_proof(proof) == encode_proof(expected)
    assert decode_proof(encode_proof(proof)) == (expected, len(encode_proof(expected)))
    assert proof.verify(root, digest_size)
    if isinstance(proof, PresenceProof):
        assert store.prove_presence(key) == expected
        with pytest.raises(ProofError, match=f"key {key.hex()} is present; cannot prove absence"):
            store.prove_absence(key)
    else:
        assert store.prove_absence(key) == expected
        with pytest.raises(ProofError, match=f"key {key.hex()} is not in the tree"):
            store.prove_presence(key)
        if proof.left is not None and proof.right is not None:
            assert_shares_above_the_fork_only(proof)
    return proof


@pytest.mark.parametrize("digest_size", DIGEST_SIZES)
@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_every_key_and_gap_of_every_size_up_to_70(engine, digest_size):
    """Sizes 0–70, grown one mid-tree insert at a time: every stored key,
    every gap, before the first leaf and after the last."""
    rng = random.Random(digest_size)
    pool = [to_key(4 * value) for value in rng.sample(range(1, 4000), 70)]
    with create_store(engine, digest_size=digest_size) as store:
        for size in range(71):
            if size:
                store.insert(pool[size - 1], to_value(pool[size - 1]))
            oracle, root = Oracle(store), store.root()
            stored = sorted(pool[:size])
            # ``key + 1`` is never stored: the gap after ``key``, or after the last leaf.
            after = [to_key(int.from_bytes(key, "big") + 1) for key in stored]
            for key in [to_key(1), *stored, *after]:
                check_proof(store, oracle, key, root, digest_size)


@pytest.mark.parametrize("size", (1_000, 4_097))
@pytest.mark.parametrize("digest_size", DIGEST_SIZES)
@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_sampled_positions_of_larger_trees(engine, digest_size, size):
    rng = random.Random(size + digest_size)
    values = sorted(rng.sample(range(1, 2**22), size))
    with create_store(engine, digest_size=digest_size) as store:
        store.insert_batch(leaves(to_key(4 * value) for value in values))
        oracle, root = Oracle(store), store.root()
        # Both edges, the promoted right edge's neighbours, the deepest fork, and a sample.
        picks = {0, 1, size - 2, size - 1, size // 2, 1 << (size.bit_length() - 1)}
        picks.update(rng.sample(range(size), 40))
        for position in sorted(picks):
            value = 4 * values[position]
            for key in (to_key(value - 1), to_key(value), to_key(value + 1)):
                check_proof(store, oracle, key, root, digest_size)


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_a_proof_outlives_the_state_it_was_read_from(engine):
    """No step aliases a live plane or level row: proofs taken before an
    insert at the front, a batch and a rollback still equal their snapshots."""
    rng = random.Random(7)
    values = rng.sample(range(2, 2**20), 300)
    with create_store(engine) as store:
        store.insert_batch(leaves(to_key(4 * value) for value in values[:200]))
        root = store.root()
        probes = [to_key(4 * value) for value in values[:20]]
        probes += [to_key(4 * value + 1) for value in values[:20]]
        proofs = [store.prove(key) for key in probes]
        snapshots = copy.deepcopy(proofs)
        wires = [bytes(encode_proof(proof)) for proof in proofs]
        store.insert(to_key(1), b"front")
        batch = leaves(to_key(4 * value) for value in values[200:])
        store.insert_batch(batch)
        store.root()
        store.remove_batch([key for key, _ in batch[:50]])
        assert store.root() != root
        assert proofs == snapshots
        assert [proof.verify(root) for proof in proofs] == [True] * len(proofs)
        for proof, wire in zip(proofs, wires):
            vars(proof).pop("_wire")  # re-encode from the steps, not from the memo
            assert encode_proof(proof) == wire


mixed_keys = st.lists(st.binary(min_size=0, max_size=4), unique=True, min_size=1, max_size=60)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ALL_ENGINES), st.sampled_from(DIGEST_SIZES), mixed_keys, st.randoms(use_true_random=False))
def test_random_mutations_with_mixed_width_keys(engine, digest_size, keys, rng):
    """``insert`` / ``insert_batch`` / ``remove_batch`` at random over keys of
    mixed widths (``compact`` goes ragged mid-run): after every step each
    probe's proof is the oracle's."""
    remaining = list(keys)
    stored = []
    with create_store(engine, digest_size=digest_size) as store:
        for _ in range(rng.randrange(1, 20)):
            action = rng.randrange(3)
            if action == 0 and remaining:
                key = remaining.pop()
                store.insert(key, to_value(key))
                stored.append(key)
            elif action == 1 and remaining:
                chunk = [remaining.pop() for _ in range(min(len(remaining), rng.randrange(1, 8)))]
                store.insert_batch(leaves(chunk))
                stored.extend(chunk)
            elif stored:
                dropped = rng.sample(stored, rng.randrange(1, min(len(stored), 4) + 1))
                store.remove_batch(dropped)
                stored = [key for key in stored if key not in dropped]
                remaining.extend(dropped)
            oracle, root = Oracle(store), store.root()
            for key in rng.sample(keys, min(len(keys), 6)) + [b"", b"\xff" * 5]:
                check_proof(store, oracle, key, root, digest_size)
