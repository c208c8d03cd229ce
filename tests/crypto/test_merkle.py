"""Tests for the sorted Merkle tree and its presence/absence proofs."""

import pytest

from repro.crypto.merkle import empty_root
from repro.errors import ProofError
from repro.store import NaiveMerkleStore


def leaf(value: int, width: int = 3) -> bytes:
    return value.to_bytes(width, "big")


def build_tree(values, tree=None) -> NaiveMerkleStore:
    tree = tree if tree is not None else NaiveMerkleStore()
    for value in values:
        tree.insert(leaf(value), b"\x00\x00\x00\x01")
    return tree


class TestTreeBasics:
    def test_empty_tree_root_is_sentinel(self):
        tree = NaiveMerkleStore()
        assert tree.root() == empty_root()
        assert len(tree) == 0

    def test_insert_returns_sorted_position(self):
        tree = NaiveMerkleStore()
        assert tree.insert(leaf(10), b"a") == 0
        assert tree.insert(leaf(5), b"b") == 0
        assert tree.insert(leaf(20), b"c") == 2

    def test_contains_and_get(self):
        tree = build_tree([3, 1, 2])
        assert leaf(2) in tree
        assert leaf(4) not in tree
        assert tree.get(leaf(1)) == b"\x00\x00\x00\x01"
        assert tree.get(leaf(9)) is None

    def test_duplicate_key_rejected(self):
        tree = build_tree([7])
        with pytest.raises(ProofError):
            tree.insert(leaf(7), b"x")

    def test_keys_are_sorted(self):
        tree = build_tree([9, 2, 7, 4])
        assert list(tree.keys()) == [leaf(2), leaf(4), leaf(7), leaf(9)]

    def test_root_changes_on_insert(self):
        tree = build_tree([1, 2, 3])
        before = tree.root()
        tree.insert(leaf(4), b"v")
        assert tree.root() != before

    def test_insertion_order_does_not_matter(self):
        assert build_tree([1, 2, 3, 4, 5]).root() == build_tree([5, 3, 1, 4, 2]).root()

    def test_value_affects_root(self):
        a = NaiveMerkleStore()
        a.insert(leaf(1), b"v1")
        b = NaiveMerkleStore()
        b.insert(leaf(1), b"v2")
        assert a.root() != b.root()

    def test_insert_batch(self):
        tree = NaiveMerkleStore()
        tree.insert_batch((leaf(i), b"v") for i in range(10))
        assert len(tree) == 10


class TestPresenceProofs:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 7, 8, 9, 16, 33])
    def test_every_leaf_proves_for_various_sizes(self, size):
        tree = build_tree(range(1, size + 1))
        root = tree.root()
        for value in range(1, size + 1):
            proof = tree.prove_presence(leaf(value))
            assert proof.verify(root)
            assert proof.tree_size == size

    def test_proof_fails_against_wrong_root(self):
        tree = build_tree([1, 2, 3, 4])
        other = build_tree([1, 2, 3, 5])
        proof = tree.prove_presence(leaf(2))
        assert not proof.verify(other.root())

    def test_proof_for_absent_key_raises(self):
        tree = build_tree([1, 2, 3])
        with pytest.raises(ProofError):
            tree.prove_presence(leaf(9))

    def test_tampered_leaf_index_fails(self):
        from dataclasses import replace

        tree = build_tree(range(1, 9))
        proof = tree.prove_presence(leaf(3))
        tampered = replace(proof, leaf_index=proof.leaf_index + 1)
        assert not tampered.verify(tree.root())

    def test_proof_depth_is_logarithmic(self):
        tree = build_tree(range(1, 1025))
        proof = tree.prove_presence(leaf(500))
        assert len(proof.path) == 10

    def test_encoded_size_positive_and_grows_with_depth(self):
        from repro.ritm.messages import encode_proof

        small = build_tree(range(1, 5)).prove_presence(leaf(2))
        large = build_tree(range(1, 257)).prove_presence(leaf(2))
        assert 0 < len(encode_proof(small)) < len(encode_proof(large))


class TestAbsenceProofs:
    def test_absence_in_empty_tree(self):
        tree = NaiveMerkleStore()
        proof = tree.prove_absence(leaf(5))
        assert proof.verify(tree.root())
        assert proof.tree_size == 0

    def test_absence_between_leaves(self):
        tree = build_tree([1, 3, 5, 7])
        proof = tree.prove_absence(leaf(4))
        assert proof.verify(tree.root())
        assert proof.left is not None and proof.right is not None
        assert proof.left.key == leaf(3) and proof.right.key == leaf(5)

    def test_absence_before_first_leaf(self):
        tree = build_tree([10, 20, 30])
        proof = tree.prove_absence(leaf(5))
        assert proof.verify(tree.root())
        assert proof.left is None and proof.right.leaf_index == 0

    def test_absence_after_last_leaf(self):
        tree = build_tree([10, 20, 30])
        proof = tree.prove_absence(leaf(40))
        assert proof.verify(tree.root())
        assert proof.right is None and proof.left.leaf_index == 2

    def test_absence_for_present_key_raises(self):
        tree = build_tree([1, 2, 3])
        with pytest.raises(ProofError):
            tree.prove_absence(leaf(2))

    def test_absence_fails_against_wrong_root(self):
        tree = build_tree([1, 3, 5])
        other = build_tree([1, 3, 6])
        assert not tree.prove_absence(leaf(4)).verify(other.root())

    def test_non_adjacent_neighbours_rejected(self):
        from dataclasses import replace

        tree = build_tree([1, 3, 5, 7])
        proof = tree.prove_absence(leaf(4))
        # Substitute the right neighbour with a leaf further away (index 3).
        far_right = tree.prove_presence(leaf(7))
        forged = replace(proof, right=far_right)
        assert not forged.verify(tree.root())

    def test_key_outside_neighbour_interval_rejected(self):
        from dataclasses import replace

        tree = build_tree([1, 3, 5, 7])
        proof = tree.prove_absence(leaf(4))
        forged = replace(proof, key=leaf(6))
        assert not forged.verify(tree.root())

    def test_prove_dispatches_by_membership(self):
        from repro.crypto.merkle import AbsenceProof, PresenceProof

        tree = build_tree([1, 2, 3])
        assert isinstance(tree.prove(leaf(2)), PresenceProof)
        assert isinstance(tree.prove(leaf(9)), AbsenceProof)

    def test_single_leaf_tree_absence_both_sides(self):
        tree = build_tree([5])
        assert tree.prove_absence(leaf(1)).verify(tree.root())
        assert tree.prove_absence(leaf(9)).verify(tree.root())
