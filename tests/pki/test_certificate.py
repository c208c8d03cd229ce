"""Tests for certificates and certificate chains."""

import pytest

from repro.crypto.signing import KeyPair
from repro.errors import CertificateError
from repro.pki.certificate import Certificate, CertificateChain
from repro.pki.serial import SerialNumber


@pytest.fixture(scope="module")
def issuer_keys():
    return KeyPair.generate(b"issuer")


@pytest.fixture(scope="module")
def subject_keys():
    return KeyPair.generate(b"subject")


@pytest.fixture(scope="module")
def certificate(issuer_keys, subject_keys):
    unsigned = Certificate(
        subject="example.com",
        issuer="Test CA",
        serial=SerialNumber(0xABCDEF),
        public_key=subject_keys.public,
        not_before=1_000,
        not_after=2_000,
    )
    return unsigned.with_signature(issuer_keys.private)


class TestCertificate:
    def test_roundtrip_encoding(self, certificate):
        decoded = Certificate.from_bytes(certificate.to_bytes())
        assert decoded == certificate

    def test_signature_verifies_with_issuer_key(self, certificate, issuer_keys):
        assert certificate.verify_signature(issuer_keys.public)

    def test_signature_fails_with_other_key(self, certificate):
        assert not certificate.verify_signature(KeyPair.generate(b"other").public)

    def test_unsigned_certificate_does_not_verify(self, issuer_keys, subject_keys):
        unsigned = Certificate(
            subject="x.com",
            issuer="Test CA",
            serial=SerialNumber(5),
            public_key=subject_keys.public,
            not_before=0,
            not_after=10,
        )
        assert not unsigned.verify_signature(issuer_keys.public)

    def test_tampered_subject_breaks_signature(self, certificate, issuer_keys):
        from dataclasses import replace

        tampered = replace(certificate, subject="evil.com")
        assert not tampered.verify_signature(issuer_keys.public)

    def test_validity_window(self, certificate):
        assert certificate.is_valid_at(1_500)
        assert certificate.is_valid_at(1_000) and certificate.is_valid_at(2_000)
        assert not certificate.is_valid_at(999)
        assert not certificate.is_valid_at(2_001)

    def test_from_bytes_rejects_truncation(self, certificate):
        data = certificate.to_bytes()
        with pytest.raises(CertificateError):
            Certificate.from_bytes(data[: len(data) // 2])

    def test_from_bytes_rejects_trailing_garbage(self, certificate):
        with pytest.raises(CertificateError):
            Certificate.from_bytes(certificate.to_bytes() + b"\x00")

    def test_from_bytes_rejects_malformed_fields_as_certificate_errors(self, certificate):
        def field(data: bytes) -> bytes:
            return len(data).to_bytes(2, "big") + data

        good = [
            b"example.com",
            b"Test CA",
            b"\xab\xcd\xef",
            certificate.public_key.key_bytes,
        ]
        tail = certificate.to_bytes()[sum(2 + len(part) for part in good) :]
        assert Certificate.from_bytes(b"".join(map(field, good)) + tail) == certificate
        for index, bad in [
            (0, b"example\xff.com"),  # not UTF-8
            (1, b"Test \xc3"),  # truncated UTF-8 sequence
            (2, b""),  # empty serial
            (2, b"\x00\x00\x00"),  # serial zero
            (2, b"\x01" * 21),  # serial wider than 20 bytes
            (3, certificate.public_key.key_bytes[:-1]),  # 31-byte key
        ]:
            fields = list(good)
            fields[index] = bad
            with pytest.raises(CertificateError):
                Certificate.from_bytes(b"".join(map(field, fields)) + tail)

    def test_encoded_size_is_realistic(self, certificate):
        # Subject + issuer + serial + key (32) + validity + Ed25519 signature (64).
        assert 100 < len(certificate.to_bytes()) < 400


class TestCertificateChain:
    def test_empty_chain_rejected(self):
        with pytest.raises(CertificateError):
            CertificateChain(certificates=())

    def test_leaf_and_len(self, certificate):
        chain = CertificateChain(certificates=(certificate,))
        assert chain.leaf is certificate
        assert len(chain) == 1

    def test_roundtrip_encoding(self, certificate, issuer_keys):
        ca_cert = Certificate(
            subject="Test CA",
            issuer="Test CA",
            serial=SerialNumber(1),
            public_key=issuer_keys.public,
            not_before=0,
            not_after=10_000,
            is_ca=True,
        ).with_signature(issuer_keys.private)
        chain = CertificateChain(certificates=(certificate, ca_cert))
        decoded = CertificateChain.from_bytes(chain.to_bytes())
        assert decoded == chain
        assert decoded.leaf.issuer == "Test CA"

    def test_pairs(self, certificate, issuer_keys):
        ca_cert = Certificate(
            subject="Test CA",
            issuer="Test CA",
            serial=SerialNumber(2),
            public_key=issuer_keys.public,
            not_before=0,
            not_after=10_000,
            is_ca=True,
        ).with_signature(issuer_keys.private)
        chain = CertificateChain(certificates=(certificate, ca_cert))
        pairs = chain.pairs()
        assert pairs[0] == (certificate, ca_cert)
        assert pairs[1] == (ca_cert, None)

    def test_corpus_chain_has_three_certificates(self, small_corpus):
        # Root + intermediate + leaf: the paper's most common chain length.
        assert len(small_corpus.chains[0]) == 3
