"""Tests for the hash primitives."""

import pytest

from repro.crypto.hashing import (
    DEFAULT_DIGEST_SIZE,
    FULL_DIGEST_SIZE,
    LEAF_PREFIX,
    hash_chain_link,
    hash_leaf,
    hash_node,
    sha256,
)


class TestHashSizes:
    def test_default_truncation_is_20_bytes(self):
        assert len(hash_leaf(b"hello")) == DEFAULT_DIGEST_SIZE == 20

    def test_full_sha256_is_32_bytes(self):
        assert len(sha256(b"hello")) == FULL_DIGEST_SIZE == 32

    def test_custom_digest_size(self):
        assert len(hash_leaf(b"hello", digest_size=32)) == 32
        assert len(hash_leaf(b"hello", digest_size=8)) == 8

    @pytest.mark.parametrize("bad_size", [0, -1, 33, 100])
    def test_rejects_out_of_range_digest_size(self, bad_size):
        with pytest.raises(ValueError):
            hash_leaf(b"x", digest_size=bad_size)

    def test_truncation_is_prefix_of_full_hash(self):
        assert hash_leaf(b"payload") == sha256(LEAF_PREFIX + b"payload")[:20]


class TestDeterminismAndSeparation:
    def test_same_input_same_output(self):
        assert hash_leaf(b"abc") == hash_leaf(b"abc")

    def test_different_inputs_differ(self):
        assert hash_leaf(b"abc") != hash_leaf(b"abd")

    def test_leaf_and_node_domains_are_separated(self):
        left = sha256(b"x")[:DEFAULT_DIGEST_SIZE]
        right = sha256(b"y")[:DEFAULT_DIGEST_SIZE]
        # A leaf containing the concatenation must not equal the interior node.
        assert hash_leaf(left + right) != hash_node(left, right)

    def test_leaf_and_plain_hash_differ(self):
        assert hash_leaf(b"abc") != sha256(b"abc")[:DEFAULT_DIGEST_SIZE]

    def test_chain_link_domain_is_separated(self):
        assert hash_chain_link(b"abc") != sha256(b"abc")[:DEFAULT_DIGEST_SIZE]
        assert hash_chain_link(b"abc") != hash_leaf(b"abc")

    def test_node_order_matters(self):
        a, b = sha256(b"a")[:DEFAULT_DIGEST_SIZE], sha256(b"b")[:DEFAULT_DIGEST_SIZE]
        assert hash_node(a, b) != hash_node(b, a)

    def test_empty_input_is_valid(self):
        assert len(hash_leaf(b"")) == DEFAULT_DIGEST_SIZE
