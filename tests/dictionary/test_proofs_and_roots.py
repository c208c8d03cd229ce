"""Tests for signed roots, freshness statements, and revocation statuses."""

import pytest

from repro.crypto.signing import KeyPair
from repro.dictionary.authdict import CADictionary
from repro.dictionary.freshness import (
    FreshnessStatement,
    periods_elapsed,
    require_fresh,
    statement_is_fresh,
    statement_period,
)
from repro.dictionary.signed_root import SignedRoot
from repro.errors import (
    ProofError,
    RevokedCertificateError,
    SignatureError,
    StaleStatusError,
)
from repro.pki.serial import SerialNumber
from repro.ritm.messages import encode_signed_root, encode_status

from tests.conftest import make_serials


@pytest.fixture()
def keys():
    return KeyPair.generate(b"proofs-tests")


@pytest.fixture()
def master(keys):
    dictionary = CADictionary("CA-P", keys, delta=10, chain_length=32)
    dictionary.insert(make_serials(20), now=1000)
    return dictionary


class TestSignedRoot:
    def test_sign_and_verify(self, keys):
        root = SignedRoot(
            ca_name="CA-P", root=b"\x01" * 20, size=3, anchor=b"\x02" * 20,
            timestamp=100, chain_length=16,
        ).sign(keys.private)
        assert root.verify(keys.public)

    def test_verify_fails_for_other_key(self, keys):
        root = SignedRoot(
            ca_name="CA-P", root=b"\x01" * 20, size=3, anchor=b"\x02" * 20,
            timestamp=100, chain_length=16,
        ).sign(keys.private)
        assert not root.verify(KeyPair.generate(b"other").public)

    def test_tampering_any_field_breaks_signature(self, keys):
        from dataclasses import replace

        root = SignedRoot(
            ca_name="CA-P", root=b"\x01" * 20, size=3, anchor=b"\x02" * 20,
            timestamp=100, chain_length=16,
        ).sign(keys.private)
        for field_name, new_value in [
            ("root", b"\x09" * 20),
            ("size", 4),
            ("anchor", b"\x08" * 20),
            ("timestamp", 101),
            ("chain_length", 17),
            ("ca_name", "CA-Q"),
        ]:
            assert not replace(root, **{field_name: new_value}).verify(keys.public)

    def test_verify_or_raise(self, keys):
        root = SignedRoot(
            ca_name="CA-P", root=b"\x01" * 20, size=1, anchor=b"\x02" * 20,
            timestamp=1, chain_length=4,
        )
        with pytest.raises(SignatureError):
            root.verify_or_raise(keys.public)

    def test_conflicts_with(self, keys):
        base = dict(ca_name="CA-P", size=5, anchor=b"\x02" * 20, timestamp=1, chain_length=4)
        a = SignedRoot(root=b"\x01" * 20, **base)
        b = SignedRoot(root=b"\x03" * 20, **base)
        c = SignedRoot(root=b"\x01" * 20, **base)
        assert a.conflicts_with(b)
        assert not a.conflicts_with(c)
        assert not a.conflicts_with(SignedRoot(root=b"\x03" * 20, ca_name="Other",
                                               size=5, anchor=b"\x02" * 20, timestamp=1, chain_length=4))

    def test_encoded_size(self, keys):
        root = SignedRoot(
            ca_name="CA-P", root=b"\x01" * 20, size=3, anchor=b"\x02" * 20,
            timestamp=100, chain_length=16,
        ).sign(keys.private)
        assert 100 < len(encode_signed_root(root)) < 300


class TestFreshnessPolicy:
    def test_periods_elapsed(self):
        assert periods_elapsed(100, 100, 10) == 0
        assert periods_elapsed(100, 119, 10) == 1
        assert periods_elapsed(100, 200, 10) == 10
        assert periods_elapsed(100, 50, 10) == 0

    def test_periods_elapsed_requires_positive_delta(self):
        with pytest.raises(ValueError):
            periods_elapsed(0, 10, 0)

    def test_fresh_statement_accepted_within_2delta(self, master):
        statement = master.refresh(now=1000 + 10)
        assert statement_is_fresh(master.signed_root, statement, now=1019, delta=10)
        # One further period is tolerated (the 2Δ window).
        assert statement_is_fresh(master.signed_root, statement, now=1029, delta=10)

    def test_stale_statement_rejected_after_2delta(self, master):
        statement = master.refresh(now=1000 + 10)
        assert not statement_is_fresh(master.signed_root, statement, now=1040, delta=10)

    def test_require_fresh_raises(self, master):
        statement = master.refresh(now=1010)
        require_fresh(master.signed_root, statement, now=1015, delta=10)
        with pytest.raises(StaleStatusError):
            require_fresh(master.signed_root, statement, now=1100, delta=10)

    def test_statement_period(self, master):
        statement = master.refresh(now=1000 + 30)
        assert statement_period(master.signed_root, statement) == 3

    def test_forged_statement_never_fresh(self, master):
        forged = FreshnessStatement(ca_name="CA-P", value=b"\x00" * 20)
        assert not statement_is_fresh(master.signed_root, forged, now=1005, delta=10)


class TestRevocationStatus:
    def test_absent_status_verifies(self, master, keys):
        status = master.prove(SerialNumber(500_000))
        status.verify(keys.public, now=1005, delta=10)
        assert status.is_acceptable(keys.public, now=1005, delta=10)

    def test_revoked_status_raises(self, master, keys):
        status = master.prove(SerialNumber(5))
        with pytest.raises(RevokedCertificateError):
            status.verify(keys.public, now=1005, delta=10)
        assert not status.is_acceptable(keys.public, now=1005, delta=10)

    def test_status_with_wrong_ca_key_rejected(self, master):
        status = master.prove(SerialNumber(500_000))
        with pytest.raises(SignatureError):
            status.verify(KeyPair.generate(b"imposter").public, now=1005, delta=10)

    def test_stale_status_rejected(self, master, keys):
        status = master.prove(SerialNumber(500_000))
        with pytest.raises(StaleStatusError):
            status.verify(keys.public, now=1000 + 500, delta=10)

    def test_status_for_mismatched_serial_rejected(self, master, keys):
        from dataclasses import replace

        status = master.prove(SerialNumber(500_000))
        lying = replace(status, serial=SerialNumber(400_000))
        with pytest.raises(ProofError):
            lying.verify(keys.public, now=1005, delta=10)

    def test_proof_swapped_between_dictionaries_rejected(self, keys):
        # A proof from one dictionary must not verify against another's root.
        from dataclasses import replace

        first = CADictionary("CA-P", keys, delta=10, chain_length=8)
        first.insert(make_serials(8), now=1000)
        second = CADictionary("CA-P", keys, delta=10, chain_length=8)
        second.insert(make_serials(9), now=1000)
        status_first = first.prove(SerialNumber(777))
        status_second = second.prove(SerialNumber(777))
        frankenstein = replace(status_first, proof=status_second.proof)
        with pytest.raises(ProofError):
            frankenstein.verify(keys.public, now=1005, delta=10)

    def test_encoded_size_in_paper_range_for_large_dictionary(self, keys):
        dictionary = CADictionary("CA-Big", keys, delta=10, chain_length=8)
        dictionary.insert(make_serials(4096), now=1000)
        status = dictionary.prove(SerialNumber(1_000_000))
        # Depth 12 tree: the paper quotes 500-900 B for depth ~19.
        assert 300 < len(encode_status(status)) < 1200
