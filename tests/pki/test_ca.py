"""Tests for certification authorities and the trust store."""

from dataclasses import replace

import pytest

from repro.crypto.signing import KeyPair
from repro.errors import CertificateError
from repro.pki.ca import CertificationAuthority, TrustStore
from repro.pki.certificate import Certificate
from repro.pki.serial import SerialNumber


class TestIssuance:
    def test_issue_returns_signed_certificate(self, root_ca):
        keys = KeyPair.generate(b"server-a")
        certificate = root_ca.issue("a.example", keys.public, now=100)
        assert certificate.issuer == root_ca.name
        assert certificate.verify_signature(root_ca.public_key)
        assert certificate.is_valid_at(100)

    def test_serials_are_unique_across_issuances(self, root_ca):
        keys = KeyPair.generate(b"server-b")
        serials = {root_ca.issue(f"host{i}.example", keys.public).serial.value for i in range(50)}
        assert len(serials) == 50

    def test_issued_certificates_are_recorded(self, root_ca):
        keys = KeyPair.generate(b"server-c")
        certificate = root_ca.issue("c.example", keys.public)
        assert root_ca.certificate_for(certificate.serial) == certificate
        assert certificate.subject == "c.example"

    def test_issue_chain_for_includes_ca_certificate(self, root_ca):
        keys = KeyPair.generate(b"server-d")
        chain = root_ca.issue_chain_for("d.example", keys.public, now=10)
        assert len(chain) == 2
        assert chain.leaf.subject == "d.example"
        assert chain.certificates[-1].subject == root_ca.name
        assert chain.certificates[-1].is_ca

    def test_intermediate_chain_has_three_links(self):
        root = CertificationAuthority("Root", key_seed=b"r")
        intermediate = CertificationAuthority("Intermediate", key_seed=b"i", parent=root)
        keys = KeyPair.generate(b"server-e")
        chain = intermediate.issue_chain_for("e.example", keys.public, now=10)
        assert [certificate.subject for certificate in chain] == [
            "e.example",
            "Intermediate",
            "Root",
        ]

    def test_ca_certificate_is_self_signed_for_roots(self, root_ca):
        certificate = root_ca.certificate(now=0)
        assert certificate.issuer == root_ca.name
        assert certificate.verify_signature(root_ca.public_key)

    def test_intermediate_certificate_signed_by_parent(self):
        root = CertificationAuthority("Root2", key_seed=b"r2")
        intermediate = CertificationAuthority("Mid2", key_seed=b"i2", parent=root)
        certificate = intermediate.certificate(now=0)
        assert certificate.issuer == "Root2"
        assert certificate.verify_signature(root.public_key)


class TestRevocation:
    def test_revoke_and_query(self, root_ca):
        keys = KeyPair.generate(b"server-f")
        certificate = root_ca.issue("f.example", keys.public)
        assert not root_ca.is_revoked(certificate.serial)
        record = root_ca.revoke(certificate.serial, now=500, reason="key compromise")
        assert root_ca.is_revoked(certificate.serial)
        assert record.reason == "key compromise"

    def test_double_revocation_rejected(self, root_ca):
        serial = SerialNumber(4242)
        root_ca.revoke(serial, now=1)
        with pytest.raises(CertificateError):
            root_ca.revoke(serial, now=2)

    def test_revocations_ordered_by_time(self, root_ca):
        root_ca.revoke(SerialNumber(10), now=30)
        root_ca.revoke(SerialNumber(11), now=10)
        root_ca.revoke(SerialNumber(12), now=20)
        times = [record.revoked_at for record in root_ca.revocations()]
        assert times == sorted(times)

    def test_revoke_many(self, root_ca):
        records = root_ca.revoke_many([SerialNumber(100), SerialNumber(101)], now=5)
        assert len(records) == 2
        assert len(root_ca.revocations()) == 2


class TestTrustStore:
    def test_add_and_lookup(self, root_ca):
        store = TrustStore()
        store.add(root_ca)
        assert store.trusts(root_ca.name)
        assert store.public_key_for(root_ca.name) == root_ca.public_key

    def test_unknown_ca(self):
        store = TrustStore()
        assert not store.trusts("Nobody")
        assert store.public_key_for("Nobody") is None

    def test_names_sorted(self):
        store = TrustStore()
        store.add(CertificationAuthority("Zeta", key_seed=b"z"))
        store.add(CertificationAuthority("Alpha", key_seed=b"a"))
        assert store.names() == ["Alpha", "Zeta"]


class TestTrustStoreAnchors:
    """``anchors``: a signature under the trusted key — or, for the self-signed
    certificate already verified, its bytes."""

    def test_an_anchor_is_verified_once(self, root_ca, trust_store, verifications):
        anchor = root_ca.certificate(now=5)
        assert [trust_store.anchors(anchor) for _ in range(3)] == [True] * 3
        assert verifications == [root_ca.public_key.key_bytes]

    def test_an_equal_copy_without_retained_bytes_is_recognised(self, root_ca, trust_store, verifications):
        anchor = root_ca.certificate(now=5)
        assert trust_store.anchors(anchor)
        assert trust_store.anchors(Certificate.from_bytes(anchor.to_bytes()))
        assert trust_store.anchors(replace(anchor))  # re-encodes from its fields
        assert len(verifications) == 1

    def test_an_unknown_name_costs_nothing(self, root_ca, verifications):
        assert not TrustStore().anchors(root_ca.certificate(now=5))
        assert verifications == []

    def test_issued_certificates_are_verified_every_time(self, root_ca, trust_store, verifications):
        issued = root_ca.issue("a.example", KeyPair.generate(b"a").public, now=5)
        assert trust_store.anchors(issued) and trust_store.anchors(issued)
        assert len(verifications) == 2

    def test_a_rejected_certificate_is_not_remembered(self, root_ca, trust_store, verifications):
        forged = replace(root_ca.certificate(now=5), signature=bytes(64))
        assert not trust_store.anchors(forged) and not trust_store.anchors(forged)
        assert len(verifications) == 2

    def test_add_forgets_the_anchor_of_the_name_it_rebinds(self, root_ca, trust_store, verifications):
        anchor = root_ca.certificate(now=5)
        other = CertificationAuthority("Other", key_seed=b"other")
        trust_store.add(other)
        assert trust_store.anchors(anchor) and trust_store.anchors(other.certificate(now=5))
        trust_store.add(CertificationAuthority(root_ca.name, key_seed=b"somebody else"))
        assert not trust_store.anchors(anchor)
        assert trust_store.anchors(other.certificate(now=5))
        assert len(verifications) == 3  # the other name's anchor stayed a lookup

    def test_the_anchor_is_pinned_to_the_key_it_was_verified_under(self, root_ca, trust_store, verifications):
        anchor = root_ca.certificate(now=5)
        assert trust_store.anchors(anchor)
        # The same name and key through another authority object: still a lookup.
        trust_store.add(CertificationAuthority(root_ca.name, key_seed=b"test-root-ca"))
        assert trust_store.anchors(anchor) and len(verifications) == 1
        # Another key, put there without ``add``: the remembered bytes no longer count.
        trust_store.roots[root_ca.name] = CertificationAuthority(root_ca.name, key_seed=b"x")
        assert not trust_store.anchors(anchor) and len(verifications) == 2

    def test_the_memory_is_not_part_of_the_stores_identity(self, root_ca, trust_store):
        fresh = TrustStore()
        fresh.add(root_ca)
        assert trust_store.anchors(root_ca.certificate(now=5))
        assert trust_store == fresh and repr(trust_store) == repr(fresh)
