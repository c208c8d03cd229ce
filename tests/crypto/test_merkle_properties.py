"""Property-based tests (hypothesis) for the sorted Merkle tree.

``NaiveMerkleStore`` is the naive full-rebuild store engine; the
differential properties at the bottom additionally pin the incremental
engine to it (byte-identical roots and proofs under randomized
interleavings of single inserts, batches, and proof queries).
"""

from hypothesis import given, settings, strategies as st

from repro.store import IncrementalMerkleStore, NaiveMerkleStore

serial_values = st.integers(min_value=1, max_value=2**24 - 1)


def to_key(value: int) -> bytes:
    return value.to_bytes(3, "big")


@settings(max_examples=60, deadline=None)
@given(st.sets(serial_values, min_size=1, max_size=120), st.randoms(use_true_random=False))
def test_every_member_has_valid_presence_proof(values, rng):
    """Any inserted key can always be proven present against the root."""
    ordered = list(values)
    rng.shuffle(ordered)
    tree = NaiveMerkleStore()
    for value in ordered:
        tree.insert(to_key(value), b"\x00\x00\x00\x01")
    root = tree.root()
    probe = rng.choice(ordered)
    proof = tree.prove_presence(to_key(probe))
    assert proof.verify(root)


@settings(max_examples=60, deadline=None)
@given(
    st.sets(serial_values, min_size=1, max_size=120),
    serial_values,
)
def test_membership_and_proofs_are_mutually_exclusive(values, probe):
    """For any probe key, exactly one of presence/absence can be proven, and it verifies."""
    tree = NaiveMerkleStore()
    for value in values:
        tree.insert(to_key(value), b"\x00\x00\x00\x01")
    root = tree.root()
    proof = tree.prove(to_key(probe))
    assert proof.verify(root)
    from repro.crypto.merkle import PresenceProof

    assert isinstance(proof, PresenceProof) == (probe in values)


@settings(max_examples=40, deadline=None)
@given(st.lists(serial_values, unique=True, min_size=2, max_size=80))
def test_root_is_order_independent(values):
    """The tree commits to the *set*, not the insertion order."""
    forward = NaiveMerkleStore()
    for value in values:
        forward.insert(to_key(value), b"\x00\x00\x00\x01")
    backward = NaiveMerkleStore()
    for value in reversed(values):
        backward.insert(to_key(value), b"\x00\x00\x00\x01")
    assert forward.root() == backward.root()


@settings(max_examples=40, deadline=None)
@given(st.sets(serial_values, min_size=2, max_size=80))
def test_roots_differ_when_any_element_is_removed(values):
    """Removing any single element changes the root (no silent deletions)."""
    values = list(values)
    full = NaiveMerkleStore()
    for value in values:
        full.insert(to_key(value), b"\x00\x00\x00\x01")
    partial = NaiveMerkleStore()
    for value in values[:-1]:
        partial.insert(to_key(value), b"\x00\x00\x00\x01")
    assert full.root() != partial.root()


@settings(max_examples=60, deadline=None)
@given(st.lists(serial_values, unique=True, min_size=1, max_size=140), st.randoms(use_true_random=False))
def test_incremental_engine_matches_naive_oracle(values, rng):
    """The list-backed engines stay byte-identical under random interleavings."""
    naive = NaiveMerkleStore()
    incremental = IncrementalMerkleStore()
    remaining = list(values)
    rng.shuffle(remaining)
    while remaining:
        if rng.random() < 0.5:
            value = remaining.pop()
            naive.insert(to_key(value), b"\x00\x00\x00\x01")
            incremental.insert(to_key(value), b"\x00\x00\x00\x01")
        else:
            size = min(len(remaining), rng.randrange(1, 8))
            chunk = [remaining.pop() for _ in range(size)]
            items = [(to_key(v), b"\x00\x00\x00\x01") for v in chunk]
            naive.insert_batch(list(items))
            incremental.insert_batch(items)
        assert naive.root() == incremental.root()
        probe = rng.randrange(1, 2**24)
        assert naive.prove(to_key(probe)) == incremental.prove(to_key(probe))


@settings(max_examples=40, deadline=None)
@given(st.sets(serial_values, min_size=1, max_size=140))
def test_engines_agree_on_every_member_proof(values):
    """Every presence proof is identical across engines and verifies."""
    items = [(to_key(v), b"\x00\x00\x00\x01") for v in sorted(values)]
    naive = NaiveMerkleStore()
    naive.insert_batch(list(items))
    incremental = IncrementalMerkleStore()
    incremental.insert_batch(items)
    root = naive.root()
    assert root == incremental.root()
    for value in values:
        proof = incremental.prove_presence(to_key(value))
        assert proof == naive.prove_presence(to_key(value))
        assert proof.verify(root)
