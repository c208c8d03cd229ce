"""Tests for the pure-Python Ed25519 implementation.

Fixed vectors first; then the strictness rules (torsion, malleation,
non-canonical encodings), the compress-and-compare fast path against its
fall-through, a Hypothesis differential against the naive ladder in
``ed25519_oracle``, and the verification-key table cache.
"""

import hashlib
import random

import ed25519_oracle as oracle
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import ed25519
from repro.errors import CryptoError, SignatureError


def seed(label: str) -> bytes:
    return hashlib.sha256(label.encode()).digest()


class TestKeyGeneration:
    def test_public_key_is_32_bytes(self):
        assert len(ed25519.publickey(seed("a"))) == 32

    def test_public_key_is_deterministic(self):
        assert ed25519.publickey(seed("a")) == ed25519.publickey(seed("a"))

    def test_different_seeds_give_different_keys(self):
        assert ed25519.publickey(seed("a")) != ed25519.publickey(seed("b"))

    def test_bad_seed_length_rejected(self):
        with pytest.raises(Exception):
            ed25519.publickey(b"short")


class TestSignVerify:
    def test_signature_is_64_bytes(self):
        signature = ed25519.sign(seed("k"), b"message")
        assert len(signature) == 64

    def test_roundtrip_verifies(self):
        secret = seed("k")
        public = ed25519.publickey(secret)
        message = b"the quick brown fox"
        assert ed25519.verify(public, message, ed25519.sign(secret, message))

    def test_signing_is_deterministic(self):
        secret = seed("k")
        assert ed25519.sign(secret, b"m") == ed25519.sign(secret, b"m")

    def test_modified_message_fails(self):
        secret = seed("k")
        public = ed25519.publickey(secret)
        signature = ed25519.sign(secret, b"message")
        assert not ed25519.verify(public, b"messagX", signature)

    def test_modified_signature_fails(self):
        secret = seed("k")
        public = ed25519.publickey(secret)
        signature = bytearray(ed25519.sign(secret, b"message"))
        signature[3] ^= 0x01
        assert not ed25519.verify(public, b"message", bytes(signature))

    def test_wrong_key_fails(self):
        signature = ed25519.sign(seed("k1"), b"message")
        other_public = ed25519.publickey(seed("k2"))
        assert not ed25519.verify(other_public, b"message", signature)

    def test_empty_message(self):
        secret = seed("k")
        public = ed25519.publickey(secret)
        assert ed25519.verify(public, b"", ed25519.sign(secret, b""))

    def test_long_message(self):
        secret = seed("k")
        public = ed25519.publickey(secret)
        message = b"\xab" * 5000
        assert ed25519.verify(public, message, ed25519.sign(secret, message))

    def test_bad_signature_length_raises(self):
        public = ed25519.publickey(seed("k"))
        with pytest.raises(SignatureError):
            ed25519.verify(public, b"m", b"\x00" * 63)

    def test_bad_public_key_length_raises(self):
        with pytest.raises(SignatureError):
            ed25519.verify(b"\x00" * 31, b"m", b"\x00" * 64)

    def test_scalar_out_of_range_rejected(self):
        secret = seed("k")
        public = ed25519.publickey(secret)
        signature = ed25519.sign(secret, b"m")
        # Force s >= L: set the top bytes of the scalar half to 0xff.
        forged = signature[:32] + b"\xff" * 32
        assert not ed25519.verify(public, b"m", forged)

    def test_rfc8032_test_vector_1(self):
        # RFC 8032 §7.1 TEST 1 (empty message).
        secret = bytes.fromhex(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"
        )
        expected_public = bytes.fromhex(
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
        )
        expected_signature = bytes.fromhex(
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
            "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
        )
        assert ed25519.publickey(secret) == expected_public
        assert ed25519.sign(secret, b"") == expected_signature
        assert ed25519.verify(expected_public, b"", expected_signature)

    def test_rfc8032_test_vector_2(self):
        # RFC 8032 §7.1 TEST 2 (one-byte message 0x72).
        secret = bytes.fromhex(
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb"
        )
        expected_public = bytes.fromhex(
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"
        )
        expected_signature = bytes.fromhex(
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
            "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
        )
        assert ed25519.publickey(secret) == expected_public
        assert ed25519.sign(secret, b"\x72") == expected_signature
        assert ed25519.verify(expected_public, b"\x72", expected_signature)

    def test_rfc8032_test_vector_3(self):
        # RFC 8032 §7.1 TEST 3 (two-byte message).
        secret = bytes.fromhex(
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7"
        )
        expected_public = bytes.fromhex(
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025"
        )
        expected_signature = bytes.fromhex(
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
            "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
        )
        assert ed25519.publickey(secret) == expected_public
        assert ed25519.sign(secret, b"\xaf\x82") == expected_signature
        assert ed25519.verify(expected_public, b"\xaf\x82", expected_signature)

    def test_rfc8032_test_vector_1024(self):
        # RFC 8032 §7.1 TEST 1024 (1023-byte message).
        secret = bytes.fromhex(
            "f5e5767cf153319517630f226876b86c8160cc583bc013744c6bf255f5cc0ee5"
        )
        expected_public = bytes.fromhex(
            "278117fc144c72340f67d0f2316e8386ceffbf2b2428c9c51fef7c597f1d426e"
        )
        expected_signature = bytes.fromhex(
            "0aab4c900501b3e24d7cdf4663326a3a87df5e4843b2cbdb67cbf6e460fec350"
            "aa5371b1508f9f4528ecea23c436d94b5e8fcd4f681e30a6ac00a9704a188a03"
        )
        message = bytes.fromhex(RFC8032_TEST_1024_MESSAGE)
        assert len(message) == 1023
        assert ed25519.publickey(secret) == expected_public
        assert ed25519.sign(secret, message) == expected_signature
        assert ed25519.verify(expected_public, message, expected_signature)


RFC8032_TEST_1024_MESSAGE = (
    "08b8b2b733424243760fe426a4b54908632110a66c2f6591eabd3345e3e4eb98"
    "fa6e264bf09efe12ee50f8f54e9f77b1e355f6c50544e23fb1433ddf73be84d8"
    "79de7c0046dc4996d9e773f4bc9efe5738829adb26c81b37c93a1b270b20329d"
    "658675fc6ea534e0810a4432826bf58c941efb65d57a338bbd2e26640f89ffbc"
    "1a858efcb8550ee3a5e1998bd177e93a7363c344fe6b199ee5d02e82d522c4fe"
    "ba15452f80288a821a579116ec6dad2b3b310da903401aa62100ab5d1a36553e"
    "06203b33890cc9b832f79ef80560ccb9a39ce767967ed628c6ad573cb116dbef"
    "efd75499da96bd68a8a97b928a8bbc103b6621fcde2beca1231d206be6cd9ec7"
    "aff6f6c94fcd7204ed3455c68c83f4a41da4af2b74ef5c53f1d8ac70bdcb7ed1"
    "85ce81bd84359d44254d95629e9855a94a7c1958d1f8ada5d0532ed8a5aa3fb2"
    "d17ba70eb6248e594e1a2297acbbb39d502f1a8c6eb6f1ce22b3de1a1f40cc24"
    "554119a831a9aad6079cad88425de6bde1a9187ebb6092cf67bf2b13fd65f270"
    "88d78b7e883c8759d2c4f5c65adb7553878ad575f9fad878e80a0c9ba63bcbcc"
    "2732e69485bbc9c90bfbd62481d9089beccf80cfe2df16a2cf65bd92dd597b07"
    "07e0917af48bbb75fed413d238f5555a7a569d80c3414a8d0859dc65a46128ba"
    "b27af87a71314f318c782b23ebfe808b82b0ce26401d2e22f04d83d1255dc51a"
    "ddd3b75a2b1ae0784504df543af8969be3ea7082ff7fc9888c144da2af58429e"
    "c96031dbcad3dad9af0dcbaaaf268cb8fcffead94f3c7ca495e056a9b47acdb7"
    "51fb73e666c6c655ade8297297d07ad1ba5e43f1bca32301651339e22904cc8c"
    "42f58c30c04aafdb038dda0847dd988dcda6f3bfd15c4b4c4525004aa06eeff8"
    "ca61783aacec57fb3d1f92b0fe2fd1a85f6724517b65e614ad6808d6f6ee34df"
    "f7310fdc82aebfd904b01e1dc54b2927094b2db68d6f903b68401adebf5a7e08"
    "d78ff4ef5d63653a65040cf9bfd4aca7984a74d37145986780fc0b16ac451649"
    "de6188a7dbdf191f64b5fc5e2ab47b57f7f7276cd419c17a3ca8e1b939ae49e4"
    "88acba6b965610b5480109c8b17b80e1b7b750dfc7598d5d5011fd2dcc5600a3"
    "2ef5b52a1ecc820e308aa342721aac0943bf6686b64b2579376504ccc493d97e"
    "6aed3fb0f9cd71a43dd497f01f17c0e2cb3797aa2a2f256656168e6c496afc5f"
    "b93246f6b1116398a346f1a641f3b041e989f7914f90cc2c7fff357876e506b5"
    "0d334ba77c225bc307ba537152f3f1610e4eafe595f6d9d90d11faa933a15ef1"
    "369546868a7f3a45a96768d40fd9d03412c091c6315cf4fde7cb68606937380d"
    "b2eaaa707b4c4185c32eddcdd306705e4dc1ffc872eeee475a64dfac86aba41c"
    "0618983f8741c5ef68d3a101e8a3b8cac60c905c15fc910840b94c00a0b9d0"
)

#: The eight points of the 8-torsion subgroup, canonically encoded
#: (orders 1, 2, 4, 4, 8, 8, 8, 8).
SMALL_ORDER_POINTS = [
    bytes.fromhex(encoding)
    for encoding in (
        "0100000000000000000000000000000000000000000000000000000000000000",
        "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000080",
        "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
        "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
        "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
        "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
    )
]
ORDER_8_POINT = oracle.decompress(SMALL_ORDER_POINTS[4])


def scalar_bytes(value: int) -> bytes:
    return int.to_bytes(value, 32, "little")


def flip_bit(data: bytes, bit: int) -> bytes:
    flipped = bytearray(data)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


class TestStrictness:
    """What `verify` rejects beyond a failing equation, and the one thing it
    deliberately accepts: a torsion component the cofactor clears."""

    def test_the_torsion_vectors_are_the_whole_subgroup(self):
        multiples = {oracle.compress(oracle.scalar_mult(k, ORDER_8_POINT)) for k in range(8)}
        assert multiples == set(SMALL_ORDER_POINTS)

    @pytest.mark.parametrize("torsion", SMALL_ORDER_POINTS, ids=bytes.hex)
    def test_small_order_key_rejected(self, torsion):
        # With A of small order, R = [r]B and s = r satisfy the cofactored
        # equation for every message; only the explicit check stands in the way.
        r = 0x1234567
        r_bytes = oracle.compress(oracle.scalar_mult(r, oracle.BASE))
        forged = r_bytes + scalar_bytes(r)
        for _ in range(2):  # first use builds the cache entry, second reads it
            assert not ed25519.verify(torsion, b"any message", forged)
        assert ed25519._key_table(torsion) is None

    @pytest.mark.parametrize("torsion", SMALL_ORDER_POINTS, ids=bytes.hex)
    def test_small_order_r_rejected(self, torsion):
        # With R of small order, s = h·a satisfies the cofactored equation.
        secret = seed("torsion-r")
        a, _ = oracle.secret_expand(secret)
        public = ed25519.publickey(secret)
        h = oracle.hash_int(torsion + public + b"m") % oracle.L
        forged = torsion + scalar_bytes(h * a % oracle.L)
        assert not ed25519.verify(public, b"m", forged)

    def test_mixed_order_key_accepted_under_the_cofactored_equation(self):
        # A' = [a]B + T8 and a signature made with `a` over A''s bytes:
        # [s]B − [h]A' = R − [h]T8, which equals R only when 8 | h, but
        # [8] of it always equals [8]R.  RFC 8032 §5.1.7 accepts; a
        # cofactorless verifier would not.  This repo is cofactored on purpose.
        secret = seed("mixed-order")
        a, prefix = oracle.secret_expand(secret)
        mixed_point = oracle.add(oracle.scalar_mult(a, oracle.BASE), ORDER_8_POINT)
        mixed_key = oracle.compress(mixed_point)
        message = b"cofactored on purpose"
        r = oracle.hash_int(prefix + message) % oracle.L
        r_point = oracle.scalar_mult(r, oracle.BASE)
        r_bytes = oracle.compress(r_point)
        h = oracle.hash_int(r_bytes + mixed_key + message) % oracle.L
        assert h % 8 != 0
        s = (r + h * a) % oracle.L
        cofactorless_left = oracle.scalar_mult(s, oracle.BASE)
        cofactorless_right = oracle.add(r_point, oracle.scalar_mult(h, mixed_point))
        assert not oracle.equal(cofactorless_left, cofactorless_right)
        signature = r_bytes + scalar_bytes(s)
        assert ed25519.verify(mixed_key, message, signature)
        assert oracle.verify(mixed_key, message, signature)
        assert not ed25519.verify(mixed_key, message + b"!", signature)

    def test_s_plus_l_malleation_rejected(self):
        secret = seed("malleate")
        public = ed25519.publickey(secret)
        signature = ed25519.sign(secret, b"m")
        s = int.from_bytes(signature[32:], "little")
        malleated = signature[:32] + scalar_bytes(s + ed25519.L)
        assert ed25519.verify(public, b"m", signature)
        assert not ed25519.verify(public, b"m", malleated)

    def test_non_canonical_y_rejected(self):
        # y + p still fits 255 bits for y < 19; y = 3 is on the curve and is
        # not of small order, so only the range check can reject its alias.
        canonical = scalar_bytes(3)
        alias = scalar_bytes(3 + ed25519.P)
        assert ed25519._point_decompress(canonical)[1] == 3
        assert ed25519._key_table(canonical) is not None
        with pytest.raises(CryptoError):
            ed25519._point_decompress(alias)
        assert ed25519._key_table(alias) is None
        signature = ed25519.sign(seed("k"), b"m")
        assert not ed25519.verify(alias, b"m", signature)
        assert not ed25519.verify(ed25519.publickey(seed("k")), b"m", alias + signature[32:])

    @pytest.mark.parametrize("y", [1, ed25519.P - 1])
    def test_sign_bit_at_x_zero_rejected(self, y):
        encoding = scalar_bytes(y | 1 << 255)
        with pytest.raises(CryptoError):
            ed25519._point_decompress(encoding)
        assert oracle.decompress(encoding) is None
        assert not ed25519.verify(encoding, b"m", ed25519.sign(seed("k"), b"m"))


    @pytest.mark.parametrize("y", [1, ed25519.P - 1])
    def test_sign_bit_at_x_zero_rejected_as_r(self, y):
        # Read leniently these are the identity and the order-2 point, for
        # which s = h·a would satisfy the equation.
        secret = seed("sign-bit-r")
        a, _ = oracle.secret_expand(secret)
        public = ed25519.publickey(secret)
        encoding = scalar_bytes(y | 1 << 255)
        h = oracle.hash_int(encoding + public + b"m") % oracle.L
        assert not ed25519.verify(public, b"m", encoding + scalar_bytes(h * a % oracle.L))


def torsioned_r_signature(secret, message, torsion):
    """``(signature, R', s)`` with ``R' = [r]B + torsion`` and ``s = r + H(R'‖A‖M)·a``."""
    a, prefix = oracle.secret_expand(secret)
    public = oracle.compress(oracle.scalar_mult(a, oracle.BASE))
    r = oracle.hash_int(prefix + message) % oracle.L
    r_point = oracle.add(oracle.scalar_mult(r, oracle.BASE), torsion)
    r_bytes = oracle.compress(r_point)
    s = (r + oracle.hash_int(r_bytes + public + message) * a) % oracle.L
    return r_bytes + scalar_bytes(s), r_point, s


class TestFastPath:
    """An honest ``R`` is compared compressed and never decompressed; anything
    else falls through to the decompress-and-clear path.  One verdict."""

    @pytest.fixture()
    def decompressions(self, monkeypatch):
        """Every encoding decompressed since the signer's key table was cached."""
        seen = []
        real = ed25519._point_decompress

        def spy(data):
            seen.append(bytes(data))
            return real(data)

        monkeypatch.setattr(ed25519, "_point_decompress", spy)
        return seen

    def _cached(self, label, decompressions, message=b"fast path"):
        secret = seed(label)
        public = ed25519.publickey(secret)
        assert ed25519._key_table(public) is not None
        decompressions.clear()
        return secret, public, message, ed25519.sign(secret, message)

    def test_honest_signature_never_decompresses_r(self, decompressions):
        _, public, message, signature = self._cached("honest", decompressions)
        assert ed25519.verify(public, message, signature)
        assert decompressions == []

    @pytest.mark.parametrize("bit", [0, 7, 255, 256, 300, 500])
    def test_bit_flipped_signature_falls_through_and_is_rejected(self, decompressions, bit):
        _, public, message, signature = self._cached("flipped", decompressions)
        corrupted = flip_bit(signature, bit)
        assert not ed25519.verify(public, message, corrupted)
        assert decompressions == [corrupted[:32]]

    def test_torsioned_r_is_accepted_by_the_fall_through(self, decompressions):
        # The twin of the mixed-order key: R' = [r]B + T8 and s made over R''s
        # bytes.  [s]B − [h]A = [r]B is not R', so the comparison misses and
        # the fall-through decides: [8][r]B == [8]R'.  Cofactorless rejects.
        secret, public, message, _ = self._cached("torsioned", decompressions)
        signature, r_point, s = torsioned_r_signature(secret, message, ORDER_8_POINT)
        a, _ = oracle.secret_expand(secret)
        h = oracle.hash_int(signature[:32] + public + message) % oracle.L
        cofactorless_right = oracle.add(r_point, oracle.scalar_mult(h * a, oracle.BASE))
        assert not oracle.equal(oracle.scalar_mult(s, oracle.BASE), cofactorless_right)
        assert ed25519.verify(public, message, signature)
        assert oracle.verify(public, message, signature)
        assert decompressions == [signature[:32]]
        assert not ed25519.verify(public, message + b"!", signature)

    @pytest.mark.parametrize("torsion", SMALL_ORDER_POINTS, ids=bytes.hex)
    def test_small_order_r_forgery_rejected_on_either_branch(self, decompressions, torsion):
        # s = h·a makes Q the identity.  For R = identity, R *is* compress(Q):
        # the fast path takes it and its small-order check rejects.  The other
        # seven miss the comparison and are rejected after decompression.
        secret, public, message, _ = self._cached("torsion-r", decompressions)
        a, _ = oracle.secret_expand(secret)
        h = oracle.hash_int(torsion + public + message) % oracle.L
        assert not ed25519.verify(public, message, torsion + scalar_bytes(h * a % oracle.L))
        identity = SMALL_ORDER_POINTS[0]
        assert decompressions == ([] if torsion == identity else [torsion])


EDGE_SCALARS = [0, 1, 2, 8, ed25519.L - 1, ed25519.L, ed25519.L + 1, 2**255 - 1, 2**255, 2**256 - 1]
scalars = st.one_of(st.sampled_from(EDGE_SCALARS), st.integers(0, 2**256 - 1))
seeds = st.binary(min_size=32, max_size=32)


@st.composite
def curve_points(draw):
    """Random points of every order: a base-point multiple plus any torsion."""
    point = oracle.scalar_mult(draw(scalars), oracle.BASE)
    return oracle.add(point, oracle.scalar_mult(draw(st.integers(0, 7)), ORDER_8_POINT))


class TestAgainstTheLadderOracle:
    @settings(max_examples=40, deadline=None)
    @given(scalars)
    def test_base_comb_equals_the_ladder(self, k):
        comb = ed25519._comb_mult((k, ed25519._BASE_TABLE))
        assert oracle.equal(comb, oracle.scalar_mult(k, oracle.BASE))

    @settings(max_examples=25, deadline=None)
    @given(scalars, scalars, curve_points())
    def test_joint_walk_equals_two_ladders(self, s, h, point):
        table = ed25519._comb_table(oracle.negate(point))
        comb = ed25519._comb_mult((s, ed25519._BASE_TABLE), (h, table))
        ladder = oracle.add(
            oracle.scalar_mult(s, oracle.BASE),
            oracle.scalar_mult(h, oracle.negate(point)),
        )
        assert oracle.equal(comb, ladder)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.tuples(scalars, st.integers(5, 8)), min_size=1, max_size=3),
        st.one_of(st.none(), scalars),
        curve_points(),
    )
    def test_walk_equals_the_ladder_at_every_geometry(self, terms, base_scalar, point):
        # One-, two- and three-term walks over tables of 5–8 teeth (spans 52,
        # 43, 37, 32), with or without the 8-tooth base table: terms of
        # different spans must line up at column 0.
        tables = {teeth: ed25519._comb_table(point, teeth) for _, teeth in terms}
        for teeth, table in tables.items():
            assert len(table) == 2**teeth
        walk = [(k, tables[teeth]) for k, teeth in terms]
        ladder = oracle.scalar_mult(sum(k for k, _ in terms), point)
        if base_scalar is not None:
            walk.append((base_scalar, ed25519._BASE_TABLE))
            ladder = oracle.add(ladder, oracle.scalar_mult(base_scalar, oracle.BASE))
        assert oracle.equal(ed25519._comb_mult(*walk), ladder)

    @settings(max_examples=25, deadline=None)
    @given(curve_points())
    def test_doubling_and_compression_equal_the_oracle(self, point):
        assert oracle.equal(ed25519._point_double(point), oracle.add(point, point))
        encoding = oracle.compress(point)
        assert ed25519._point_compress(point) == encoding
        assert oracle.equal(ed25519._point_decompress(encoding), point)

    @settings(max_examples=25, deadline=None)
    @given(seeds, st.binary(max_size=200))
    def test_sign_and_publickey_are_byte_identical(self, secret, message):
        assert ed25519.publickey(secret) == oracle.publickey(secret)
        assert ed25519.sign(secret, message) == oracle.sign(secret, message)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["key", "message", "signature", "none"]),
        st.integers(0, 511),
        st.binary(min_size=1, max_size=64),
    )
    def test_verdicts_identical_under_single_bit_corruption(self, field, bit, message):
        secret = seed("corruption")
        fields = {
            "key": ed25519.publickey(secret),
            "message": message,
            "signature": ed25519.sign(secret, message),
        }
        if field != "none":
            fields[field] = flip_bit(fields[field], bit % (8 * len(fields[field])))
        verdict = ed25519.verify(fields["key"], fields["message"], fields["signature"])
        assert verdict == oracle.verify(fields["key"], fields["message"], fields["signature"])
        assert verdict == (field == "none")


def mixed_order_key():
    """``[a]B + T8`` for the seed of the mixed-order-key strictness test."""
    a, _ = oracle.secret_expand(seed("mixed-order"))
    return oracle.compress(oracle.add(oracle.scalar_mult(a, oracle.BASE), ORDER_8_POINT))


def comb_edge_scalars():
    """The boundary scalars, then a seeded even and odd one."""
    rng = random.Random("comb-edges")
    even = rng.randrange(0, oracle.L) & ~1
    return [0, 1, oracle.L - 1, 2**252, even, even | 1]


class TestProductionGeometry:
    """The verification walk on the tables `verify` reads: the import-time
    base table and the cached key table, against the ladder."""

    @pytest.mark.parametrize("key_kind", ["prime-order", "mixed-order"])
    def test_joint_walk_on_the_key_table_equals_the_ladder(self, key_kind):
        key = ed25519.publickey(seed("comb-differential")) if key_kind == "prime-order" else mixed_order_key()
        table = ed25519._key_table(key)
        assert len(table) == 2**ed25519.KEY_TEETH
        assert len(ed25519._BASE_TABLE) == 2**ed25519.BASE_TEETH
        minus_a = oracle.negate(oracle.decompress(key))
        for s in comb_edge_scalars():
            s_b = oracle.scalar_mult(s, oracle.BASE)
            for h in comb_edge_scalars():
                walk = ed25519._comb_mult((s, ed25519._BASE_TABLE), (h, table))
                assert oracle.equal(walk, oracle.add(s_b, oracle.scalar_mult(h, minus_a))), (s, h)

    @pytest.mark.parametrize("teeth", [1, 5, 6, 7, ed25519.KEY_TEETH, ed25519.BASE_TEETH])
    def test_edge_scalars_give_the_ladder_in_reduced_coordinates(self, teeth):
        # The walk reduces its inner products only to congruent values, so
        # the coordinates it returns must still be fully reduced: compression
        # and `_point_equal` read them as field elements.  The largest scalar
        # a geometry accepts fills its teeth × span bits.
        if teeth == ed25519.BASE_TEETH:
            point, table = oracle.BASE, ed25519._BASE_TABLE
        else:
            point = oracle.decompress(mixed_order_key())
            table = ed25519._comb_table(point, teeth)
        largest = 2 ** (teeth * ed25519._comb_span(teeth)) - 1
        for k in [0, 1, oracle.L - 1, largest]:
            x, y, z, t = walk = ed25519._comb_mult((k, table))
            assert all(0 <= coordinate < ed25519.P for coordinate in walk), (k, walk)
            assert (x * y - z * t) % ed25519.P == 0, k
            assert oracle.equal(walk, oracle.scalar_mult(k, point)), k

    def test_the_derived_small_order_set_is_the_torsion_subgroup(self):
        assert ed25519._SMALL_ORDER_ENCODINGS == frozenset(SMALL_ORDER_POINTS)


SIGNERS = [seed(f"differential-{index}") for index in range(3)]


@st.composite
def signed_triples(draw):
    """``(key, message, signature, verdict if known)``: honest, or with an
    8-torsion shift of ``A`` or of ``R`` that the cofactor clears, or under
    another signer's key; then possibly one flipped bit anywhere."""
    secret = draw(st.sampled_from(SIGNERS))
    message = draw(st.binary(max_size=48))
    kind = draw(st.sampled_from(["honest", "torsion-a", "torsion-r", "swapped-key"]))
    torsion = oracle.scalar_mult(draw(st.integers(1, 7)), ORDER_8_POINT)
    a, prefix = oracle.secret_expand(secret)
    key = oracle.publickey(secret)
    signature = oracle.sign(secret, message)
    if kind == "torsion-a":
        key = oracle.compress(oracle.add(oracle.scalar_mult(a, oracle.BASE), torsion))
        r = oracle.hash_int(prefix + message) % oracle.L
        r_bytes = oracle.compress(oracle.scalar_mult(r, oracle.BASE))
        h = oracle.hash_int(r_bytes + key + message) % oracle.L
        signature = r_bytes + scalar_bytes((r + h * a) % oracle.L)
    elif kind == "torsion-r":
        signature, _, _ = torsioned_r_signature(secret, message, torsion)
    elif kind == "swapped-key":
        key = oracle.publickey(draw(st.sampled_from([s for s in SIGNERS if s != secret])))
    fields = {"key": key, "message": message, "signature": signature}
    expected = kind != "swapped-key"
    flipped = draw(st.sampled_from(["none", "none", "key", "message", "signature"]))
    if flipped != "none" and fields[flipped]:
        bit = draw(st.integers(0, 8 * len(fields[flipped]) - 1))
        fields[flipped] = flip_bit(fields[flipped], bit)
        expected = None  # almost always a reject; the oracle says
    return fields["key"], fields["message"], fields["signature"], expected


def check_verdicts_against_the_oracle(examples):
    """`verify` — cached key, then fresh key — against the cofactored ladder."""

    @settings(max_examples=examples, deadline=None)
    @given(signed_triples())
    def run(case):
        key, message, signature, expected = case
        verdict = oracle.verify(key, message, signature)
        assert expected in (None, verdict)
        ed25519.verify(key, message, signature)  # the key's table is cached now
        assert ed25519.verify(key, message, signature) == verdict
        ed25519._key_table.cache_clear()
        assert ed25519.verify(key, message, signature) == verdict

    run()


def test_verdicts_match_the_cofactored_oracle():
    # The PR that introduced the fast path ran this at 2,000 examples.
    check_verdicts_against_the_oracle(150)


class TestKeyTableCache:
    """The per-key comb-table LRU is bounded, keyed by exact bytes, and
    invisible in verdicts."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        ed25519._key_table.cache_clear()
        yield
        ed25519._key_table.cache_clear()

    def _signed(self, label, message=b"cached"):
        secret = seed(label)
        return ed25519.publickey(secret), message, ed25519.sign(secret, message)

    def test_capacity_is_enforced(self):
        capacity = ed25519.KEY_TABLE_CAPACITY
        triples = [self._signed(f"key-{index}") for index in range(capacity + 1)]
        assert all(ed25519.verify(*triple) for triple in triples)
        info = ed25519._key_table.cache_info()
        assert (info.currsize, info.maxsize, info.misses) == (capacity, capacity, capacity + 1)
        # The first key was evicted by the 257th: verifying it again is a
        # miss with the same verdict; the newest key is a hit.
        assert ed25519.verify(*triples[0])
        assert ed25519._key_table.cache_info().misses == capacity + 2
        assert ed25519.verify(*triples[-1])
        assert ed25519._key_table.cache_info().misses == capacity + 2
        assert all(
            len(ed25519._key_table(key)) == 2**ed25519.KEY_TEETH for key, _, _ in triples[-3:]
        )
        # A full cache stays near 4 MB of ints: three 32-byte ints an entry.
        assert capacity * 2**ed25519.KEY_TEETH <= 16_384

    def test_rejected_keys_stay_rejected(self):
        _, message, signature = self._signed("victim")
        off_curve = next(
            scalar_bytes(y) for y in range(2, 50) if oracle.decompress(scalar_bytes(y)) is None
        )
        for bad_key in (off_curve, SMALL_ORDER_POINTS[5], scalar_bytes(3 + ed25519.P)):
            for _ in range(3):
                assert not ed25519.verify(bad_key, message, signature)
            assert ed25519._key_table(bad_key) is None

    def test_keys_differing_in_one_bit_never_share_a_table(self):
        key, message, signature = self._signed("neighbour")
        assert ed25519.verify(key, message, signature)
        table = ed25519._key_table(key)
        for bit in range(0, 256, 5):
            neighbour = flip_bit(key, bit)
            other = ed25519._key_table(neighbour)
            assert other is None or (other is not table and other != table)
            assert not ed25519.verify(neighbour, message, signature)
        assert ed25519._key_table(key) is table
        assert ed25519.verify(key, message, signature)

    def test_miss_path_gives_the_same_verdicts_as_hit_path(self):
        key, message, signature = self._signed("evicted")
        cases = [
            (key, message, signature),
            (key, message + b"!", signature),
            (key, message, signature[:32] + scalar_bytes(1)),
            (key, message, SMALL_ORDER_POINTS[4] + signature[32:]),
        ]
        ed25519.verify(*cases[0])
        hits = [ed25519.verify(*case) for case in cases]
        misses = []
        for case in cases:
            ed25519._key_table.cache_clear()
            misses.append(ed25519.verify(*case))
        assert hits == misses == [True, False, False, False]

    def test_interleaved_seeds_do_not_alias_in_the_secret_memo(self):
        first, second = seed("memo-1"), seed("memo-2")
        for round_number in range(3):
            message = b"round %d" % round_number
            assert ed25519.sign(first, message) == oracle.sign(first, message)
            assert ed25519.sign(second, message) == oracle.sign(second, message)
            assert ed25519.publickey(second) == oracle.publickey(second)
            assert ed25519.publickey(first) == oracle.publickey(first)
