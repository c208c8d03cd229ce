"""Tests for the key-pair abstraction."""

import pytest

from repro.crypto.signing import (
    PUBLIC_KEY_SIZE,
    SIGNATURE_SIZE,
    CAKeyring,
    KeyPair,
    PrivateKey,
    PublicKey,
    verify_batch,
)
from repro.errors import SignatureError


class TestKeyPair:
    def test_deterministic_generation_from_seed(self):
        a = KeyPair.generate(b"seed-1")
        b = KeyPair.generate(b"seed-1")
        assert a.public.key_bytes == b.public.key_bytes

    def test_different_seeds_differ(self):
        assert KeyPair.generate(b"a").public != KeyPair.generate(b"b").public

    def test_random_generation_without_seed(self):
        assert KeyPair.generate().public != KeyPair.generate().public

    def test_sign_and_verify(self):
        keys = KeyPair.generate(b"signer")
        signature = keys.sign(b"payload")
        assert len(signature) == SIGNATURE_SIZE
        assert keys.verify(b"payload", signature)
        assert not keys.verify(b"payloaX", signature)

    def test_public_key_size_constant(self):
        keys = KeyPair.generate(b"k")
        assert len(keys.public.key_bytes) == PUBLIC_KEY_SIZE


class TestPublicKey:
    def test_rejects_wrong_length(self):
        with pytest.raises(SignatureError):
            PublicKey(b"\x01" * 16)

    def test_verify_or_raise(self):
        keys = KeyPair.generate(b"k")
        signature = keys.sign(b"m")
        keys.public.verify_or_raise(b"m", signature)
        with pytest.raises(SignatureError):
            keys.public.verify_or_raise(b"other", signature)

    def test_wrong_length_signature_is_invalid_not_an_error(self):
        keys = KeyPair.generate(b"k")
        signature = keys.sign(b"m")
        for malformed in (b"", signature[:-1], signature + b"\x00"):
            assert not keys.public.verify(b"m", malformed)
            assert not CAKeyring.single(keys.public).verify(b"m", malformed)
            with pytest.raises(SignatureError):
                keys.public.verify_or_raise(b"m", malformed)

    def test_fingerprint_is_short_hex(self):
        fingerprint = KeyPair.generate(b"k").public.fingerprint()
        assert len(fingerprint) == 16
        int(fingerprint, 16)  # must be hex


class TestPrivateKey:
    def test_rejects_wrong_seed_length(self):
        with pytest.raises(SignatureError):
            PrivateKey(b"tiny")

    def test_public_key_derivation_is_stable(self):
        private = PrivateKey.generate(b"stable")
        assert private.public_key() == private.public_key()

    def test_cross_verification(self):
        signer = PrivateKey.generate(b"one")
        other = PrivateKey.generate(b"two")
        signature = signer.sign(b"msg")
        assert signer.public_key().verify(b"msg", signature)
        assert not other.public_key().verify(b"msg", signature)


class TestVerifyBatch:
    """``verify_batch`` is the serial map, with bad lengths as ``False``."""

    def _items(self, count, seed=b"batch"):
        keys = [KeyPair.generate(seed + bytes([index])) for index in range(count)]
        messages = [f"message-{index}".encode() for index in range(count)]
        return [
            (key.public, message, key.sign(message))
            for key, message in zip(keys, messages)
        ]

    def test_empty_batch(self):
        assert verify_batch([]) == []

    def test_single_item(self):
        items = self._items(1)
        assert verify_batch(items) == [True]

    def test_all_valid(self):
        items = self._items(5)
        assert verify_batch(items) == [True] * 5

    def test_tampered_signature_is_pinpointed(self):
        items = self._items(5)
        public, message, signature = items[2]
        corrupted = signature[:40] + bytes([signature[40] ^ 1]) + signature[41:]
        items[2] = (public, message, corrupted)
        assert verify_batch(items) == [True, True, False, True, True]

    def test_tampered_message_is_pinpointed(self):
        items = self._items(4)
        public, message, signature = items[0]
        items[0] = (public, message + b"!", signature)
        assert verify_batch(items) == [False, True, True, True]

    def test_swapped_signatures_fail(self):
        items = self._items(3)
        swapped = [items[0], (items[1][0], items[1][1], items[2][2]),
                   (items[2][0], items[2][1], items[1][2])]
        assert verify_batch(swapped) == [True, False, False]

    def test_malformed_signature_length_is_invalid_not_raised(self):
        items = self._items(2)
        items[1] = (items[1][0], items[1][1], b"short")
        assert verify_batch(items) == [True, False]

    def test_matches_serial_verification_on_random_corruptions(self):
        from hypothesis import given, settings, strategies as st

        base = self._items(4, seed=b"prop")

        @settings(max_examples=20, deadline=None)
        @given(
            corrupt=st.lists(
                st.tuples(st.integers(0, 3), st.sampled_from(["sig", "msg", "none"])),
                max_size=4,
            )
        )
        def run(corrupt):
            items = list(base)
            for index, kind in corrupt:
                public, message, signature = items[index]
                if kind == "sig":
                    mutated = bytes([signature[0] ^ 0x55]) + signature[1:]
                    items[index] = (public, message, mutated)
                elif kind == "msg":
                    items[index] = (public, message + b"x", signature)
            expected = [
                public.verify(message, signature)
                for public, message, signature in items
            ]
            assert verify_batch(items) == expected

        run()
