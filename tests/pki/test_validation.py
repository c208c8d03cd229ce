"""Tests for standard certificate-chain validation."""

from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.signing import KeyPair
from repro.errors import CertificateError
from repro.pki.ca import CertificationAuthority, TrustStore
from repro.pki.certificate import Certificate, CertificateChain
from repro.pki.validation import ValidationResult, validate_chain
from repro.tls.connection import ChainValidationCache


NOW = 1_400_000_000


@pytest.fixture()
def world():
    root = CertificationAuthority("Root", key_seed=b"val-root")
    intermediate = CertificationAuthority("Issuing", key_seed=b"val-mid", parent=root)
    keys = KeyPair.generate(b"val-server")
    chain = intermediate.issue_chain_for("good.example", keys.public, now=NOW)
    store = TrustStore()
    store.add(root)
    return root, intermediate, chain, store


class TestValidateChain:
    def test_valid_chain_passes(self, world):
        _, _, chain, store = world
        result = validate_chain(chain, store, now=NOW + 100, expected_subject="good.example")
        assert result.valid
        assert "trust-anchor" in result.checks

    def test_subject_mismatch(self, world):
        _, _, chain, store = world
        result = validate_chain(chain, store, now=NOW + 100, expected_subject="other.example")
        assert not result.valid
        assert "does not match" in result.reason

    def test_expired_certificate(self, world):
        _, _, chain, store = world
        far_future = NOW + 200 * 365 * 86_400
        result = validate_chain(chain, store, now=far_future)
        assert not result.valid
        assert "validity window" in result.reason

    def test_not_yet_valid_certificate(self, world):
        _, _, chain, store = world
        result = validate_chain(chain, store, now=NOW - 10)
        assert not result.valid

    def test_untrusted_root(self, world):
        _, _, chain, _ = world
        empty_store = TrustStore()
        result = validate_chain(chain, empty_store, now=NOW + 100)
        assert not result.valid
        assert "trusted root" in result.reason

    def test_wrong_issuer_signature(self, world):
        root, intermediate, chain, store = world
        # Re-sign the leaf with an unrelated key: the signature check must fail.
        from dataclasses import replace

        rogue = KeyPair.generate(b"rogue")
        forged_leaf = replace(chain.leaf, signature=rogue.sign(chain.leaf.tbs_bytes()))
        forged = CertificateChain(certificates=(forged_leaf,) + chain.certificates[1:])
        result = validate_chain(forged, store, now=NOW + 100)
        assert not result.valid
        assert "does not verify" in result.reason

    def test_out_of_order_chain(self, world):
        _, _, chain, store = world
        shuffled = CertificateChain(
            certificates=(chain.certificates[0],) + tuple(reversed(chain.certificates[1:]))
        )
        result = validate_chain(shuffled, store, now=NOW + 100)
        assert not result.valid

    def test_issuer_without_ca_flag_rejected(self, world):
        root, intermediate, chain, store = world
        from dataclasses import replace

        # Strip the CA flag from the intermediate and re-sign it with the root
        # so only the CA-flag check can fail.
        stripped = replace(chain.certificates[1], is_ca=False, signature=b"")
        stripped = stripped.with_signature(root._keys.private)
        forged = CertificateChain(
            certificates=(chain.certificates[0], stripped, chain.certificates[2])
        )
        result = validate_chain(forged, store, now=NOW + 100)
        assert not result.valid
        assert "not a CA" in result.reason

    def test_corpus_chains_validate(self, small_corpus):
        for chain in small_corpus.chains:
            result = validate_chain(
                chain, small_corpus.trust_store, now=NOW + 5, expected_subject=chain.leaf.subject
            )
            assert result.valid, result.reason


# -- the trust anchor: looked up, not re-verified -----------------------------------


def parent_validate_chain(chain, trust_store, now, expected_subject=None):
    """``validate_chain`` as it stood before the anchor was looked up: every
    link's signature, then the last certificate's under the trusted key, every
    time.  Kept written out as the oracle the lookup is compared with."""
    checks = []

    def rejected(reason):
        return ValidationResult(valid=False, reason=reason, checks=checks)

    leaf = chain.leaf
    if expected_subject is not None and leaf.subject != expected_subject:
        return rejected(
            f"leaf subject {leaf.subject!r} does not match expected {expected_subject!r}"
        )
    checks.append("subject-match")
    for certificate in chain:
        if not certificate.is_valid_at(now):
            return rejected(f"certificate for {certificate.subject!r} outside validity window")
    checks.append("validity-window")
    for certificate, issuer in chain.pairs():
        if issuer is not None:
            if not issuer.is_ca:
                return rejected(f"issuer certificate {issuer.subject!r} is not a CA certificate")
            if certificate.issuer != issuer.subject:
                return rejected(
                    f"chain is out of order: {certificate.subject!r} names issuer "
                    f"{certificate.issuer!r} but is followed by {issuer.subject!r}"
                )
            if not certificate.verify_signature(issuer.public_key):
                return rejected(f"signature on {certificate.subject!r} does not verify")
    checks.append("signatures")
    anchor = chain.certificates[-1]
    anchor_key = trust_store.public_key_for(anchor.issuer)
    if anchor_key is None:
        return rejected(
            f"chain does not terminate at a trusted root ({anchor.issuer!r} unknown)"
        )
    if not anchor.verify_signature(anchor_key):
        return rejected(f"root signature on {anchor.subject!r} does not verify")
    checks.append("trust-anchor")
    return ValidationResult(valid=True, checks=checks)


ACCEPTED = ValidationResult(
    valid=True, checks=["subject-match", "validity-window", "signatures", "trust-anchor"]
)


def assert_agrees(result, oracle):
    """Equal in verdict, reason and trail — except where the anchor is unknown:
    no signature is spent on such a chain, so none is reported, neither in
    ``checks`` nor (should one of them be bad as well) as the reason."""
    if result.reason is None or "trusted root" not in result.reason:
        assert (result.valid, result.reason, result.checks) == (
            oracle.valid,
            oracle.reason,
            oracle.checks,
        )
        return
    assert not result.valid and not oracle.valid
    assert oracle.reason == result.reason or (
        oracle.reason.startswith("signature on") and oracle.reason.endswith("does not verify")
    )
    assert result.checks == ["subject-match", "validity-window"]


def store_trusting(*authorities):
    store = TrustStore()
    for authority in authorities:
        store.add(authority)
    return store


def with_anchor(chain, anchor):
    return CertificateChain(certificates=chain.certificates[:-1] + (anchor,))


def forged_leaf(chain):
    rogue = KeyPair.generate(b"rogue")
    leaf = replace(chain.leaf, signature=rogue.sign(chain.leaf.tbs_bytes()))
    return CertificateChain(certificates=(leaf,) + chain.certificates[1:])


def out_of_order(chain):
    return CertificateChain(
        certificates=(chain.certificates[0],) + tuple(reversed(chain.certificates[1:]))
    )


def stripped_ca_flag(chain, root):
    stripped = replace(chain.certificates[1], is_ca=False, signature=b"")
    stripped = stripped.with_signature(root._keys.private)
    return CertificateChain(certificates=(chain.leaf, stripped) + chain.certificates[2:])


def garbage_signed_root(chain):
    """The trusted name *and* the trusted key copied in, under a signature nobody made."""
    root = chain.certificates[-1]
    return with_anchor(chain, replace(root, not_after=root.not_after + 1, signature=bytes(64)))


def impostor_chain(subject="good.example"):
    """A chain that is consistent in itself, up to a self-signed certificate
    that bears the trusted root's name — and somebody else's key."""
    root = CertificationAuthority("Root", key_seed=b"impostor-root")
    intermediate = CertificationAuthority("Issuing", key_seed=b"impostor-mid", parent=root)
    keys = KeyPair.generate(b"impostor-server")
    return root, intermediate.issue_chain_for(subject, keys.public, now=NOW)


def flip_bit(data: bytes, bit: int) -> bytes:
    flipped = bytearray(data)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


class TestTrustAnchor:
    """The anchor's self-signature is verified once per store; after that the
    very same bytes are recognised, and anything else pays for a signature."""

    def validate(self, chain, store, verifications, now=NOW + 100):
        """(result, Ed25519 verifications it cost), checked against the oracle."""
        before = len(verifications)
        result = validate_chain(chain, store, now=now)
        cost = len(verifications) - before
        assert_agrees(result, parent_validate_chain(chain, store, now=now))
        return result, cost

    def test_first_sight_costs_three_and_every_later_one_two(self, world, verifications):
        root, _, chain, store = world
        assert self.validate(chain, store, verifications) == (ACCEPTED, 3)
        for _ in range(3):
            result, cost = self.validate(chain, store, verifications)
            assert result.valid and result.checks[-2:] == ["signatures", "trust-anchor"]
            assert cost == 2
        # The memory is the store's: another one holding the same root starts over.
        result, cost = self.validate(chain, store_trusting(root), verifications)
        assert result.valid and cost == 3

    def test_corpus_chains_share_their_anchor(self, small_corpus, verifications):
        store = store_trusting(small_corpus.authorities[0])
        costs = [self.validate(chain, store, verifications, now=NOW + 5)[1] for chain in small_corpus.chains]
        assert costs == [3] + [2] * (len(small_corpus.chains) - 1)

    def test_unknown_anchor_costs_no_signature(self, world, verifications):
        _, _, chain, _ = world
        result = validate_chain(chain, TrustStore(), now=NOW + 100)
        assert not result.valid and "'Root' unknown" in result.reason
        assert verifications == []
        # ...nor does one whose signatures are bad as well: it is rejected for the
        # anchor, where the parent reported the first bad signature it paid for.
        result = validate_chain(forged_leaf(chain), TrustStore(), now=NOW + 100)
        assert "trusted root" in result.reason
        assert "signature on" in parent_validate_chain(forged_leaf(chain), TrustStore(), NOW + 100).reason
        assert len(verifications) == 1  # the oracle's

    def test_structural_faults_are_still_reported_under_an_unknown_anchor(self, world, verifications):
        root, _, chain, _ = world
        for broken in (out_of_order(chain), stripped_ca_flag(chain, root)):
            result, _ = self.validate(broken, TrustStore(), verifications)
            assert "trusted root" not in result.reason

    @pytest.mark.parametrize("remembered", [False, True], ids=["before", "after"])
    def test_forged_roots_under_the_trusted_name_are_rejected(self, world, verifications, remembered):
        _, _, chain, store = world
        if remembered:
            assert self.validate(chain, store, verifications)[0].valid
        _, impostor = impostor_chain()
        for forged in (impostor, garbage_signed_root(chain)):
            for _ in range(2):
                result, cost = self.validate(forged, store, verifications)
                assert not result.valid
                assert result.reason == "root signature on 'Root' does not verify"
                assert result.checks[-1] == "signatures"
                assert cost == 3
        # ...and neither displaced (or became) the anchor.
        assert self.validate(chain, store, verifications) == (ACCEPTED, 2 if remembered else 3)

    def test_no_flipped_bit_of_the_anchor_is_accepted_by_identity(self, world, verifications):
        _, _, chain, store = world
        assert self.validate(chain, store, verifications)[0].valid  # the honest one is remembered
        wire = chain.certificates[-1].to_bytes()
        parsed = 0
        for bit in range(8 * len(wire)):
            try:
                flipped = Certificate.from_bytes(flip_bit(wire, bit))
            except CertificateError:
                continue
            parsed += 1
            assert not store.anchors(flipped), bit
            if bit % 8 == (bit // 8) % 8:  # and through the validator, one bit of every byte
                assert not validate_chain(with_anchor(chain, flipped), store, now=NOW + 100).valid, bit
        assert parsed > 8 * 64  # every bit of the signature at the least
        assert self.validate(chain, store, verifications) == (ACCEPTED, 2)

    def test_a_chain_without_the_root_takes_the_signature_path(self, world, verifications):
        _, _, chain, store = world
        rootless = CertificateChain(certificates=chain.certificates[:-1])
        for _ in range(2):  # an intermediate is never remembered as an anchor
            result, cost = self.validate(rootless, store, verifications)
            assert result.valid and cost == 2
        assert self.validate(chain, store, verifications)[1] == 3
        assert self.validate(rootless, store, verifications)[1] == 2

    def test_a_reissued_root_takes_the_signature_path(self, world, verifications):
        _, _, chain, store = world
        assert self.validate(chain, store, verifications)[1] == 3
        twin = CertificationAuthority("Root", key_seed=b"val-root").certificate(now=NOW + 50)
        assert twin.public_key == chain.certificates[-1].public_key
        assert twin.to_bytes() != chain.certificates[-1].to_bytes()
        result, cost = self.validate(with_anchor(chain, twin), store, verifications)
        assert result.valid and cost == 3
        # One anchor per name, the last one verified: the first pays again, once.
        assert self.validate(with_anchor(chain, twin), store, verifications)[1] == 2
        assert self.validate(chain, store, verifications)[1] == 3
        assert self.validate(chain, store, verifications)[1] == 2

    def test_an_expired_anchor_is_rejected_although_remembered(self, world, verifications):
        _, _, chain, store = world
        assert self.validate(chain, store, verifications)[1] == 3
        root = chain.certificates[-1]
        # Server and intermediate re-issued for the root's last second and beyond.
        late = with_anchor(
            CertificateChain(
                tuple(replace(c, not_after=root.not_after + 10) for c in chain.certificates)
            ),
            root,
        )
        result, cost = self.validate(late, store, verifications, now=root.not_after + 1)
        assert not result.valid and cost == 0
        assert result.reason == "certificate for 'Root' outside validity window"

    def test_rebinding_the_name_forgets_the_anchor(self, world, verifications):
        _, _, chain, store = world
        assert self.validate(chain, store, verifications)[0].valid
        impostor_root, impostor = impostor_chain()
        store.add(impostor_root)
        result, cost = self.validate(chain, store, verifications)
        assert not result.valid and cost == 3
        assert result.reason == "root signature on 'Root' does not verify"
        assert [self.validate(impostor, store, verifications)[1] for _ in range(2)] == [3, 2]
        assert self.validate(impostor, store, verifications)[0].valid

    def test_chain_validation_cache_returns_the_parents_results(self, small_corpus):
        root = small_corpus.authorities[0]
        for trusted in (True, False):
            cache, store = ChainValidationCache(), store_trusting(root) if trusted else TrustStore()
            for chain in small_corpus.chains:
                cases = [
                    chain,
                    forged_leaf(chain),
                    out_of_order(chain),
                    stripped_ca_flag(chain, root),
                ]
                for case in cases + cases:  # every case again, anchor and verdicts remembered
                    for subject in (chain.leaf.subject, None, "other.example"):
                        result = cache.validate(case, store, now=NOW + 5, expected_subject=subject)
                        assert_agrees(
                            result, parent_validate_chain(case, store, NOW + 5, subject)
                        )
                        assert result.valid == (trusted and case is chain and subject != "other.example")
            # Only the honest chain, under its own subject or none, is ever remembered.
            assert cache.stats.hits == (2 * len(small_corpus.chains) if trusted else 0)


@lru_cache(maxsize=None)
def cast():
    """Authorities a store may come to trust, and chains it may be shown."""
    root = CertificationAuthority("Root", key_seed=b"val-root")
    intermediate = CertificationAuthority("Issuing", key_seed=b"val-mid", parent=root)
    chain = intermediate.issue_chain_for("good.example", KeyPair.generate(b"val-server").public, now=NOW)
    twin = CertificationAuthority("Root", key_seed=b"val-root")  # same name, same key
    impostor_root, impostor = impostor_chain()
    other = CertificationAuthority("Other-Root", key_seed=b"val-other")
    wire = chain.certificates[-1].to_bytes()
    authorities = {"root": root, "twin": twin, "impostor": impostor_root, "other": other}
    chains = {
        "honest": chain,
        "reissued-root": with_anchor(chain, twin.certificate(now=NOW + 50)),
        "rootless": CertificateChain(certificates=chain.certificates[:-1]),
        "impostor": impostor,
        "garbage-signed-root": garbage_signed_root(chain),
        "flipped-root": with_anchor(chain, Certificate.from_bytes(flip_bit(wire, 8 * len(wire) - 3))),
        "forged-leaf": forged_leaf(chain),
        "out-of-order": out_of_order(chain),
        "stripped-ca-flag": stripped_ca_flag(chain, root),
        "other": other.issue_chain_for("other.example", KeyPair.generate(b"val-other-server").public, now=NOW),
    }
    return authorities, chains


@settings(max_examples=150, deadline=None)
@example(
    [("add", "root"), ("show", "honest"), ("add", "impostor"), ("show", "honest"), ("show", "impostor")]
)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("add"), st.sampled_from(["root", "twin", "impostor", "other"])),
            st.tuples(
                st.just("show"),
                st.sampled_from(
                    [
                        "honest",
                        "reissued-root",
                        "rootless",
                        "impostor",
                        "garbage-signed-root",
                        "flipped-root",
                        "forged-leaf",
                        "out-of-order",
                        "stripped-ca-flag",
                        "other",
                    ]
                ),
            ),
        ),
        max_size=14,
    )
)
def test_any_interleaving_of_adds_and_chains_gets_the_parents_verdicts(steps):
    authorities, chains = cast()
    store, oracle_store = TrustStore(), TrustStore()  # the oracle's never remembers anything
    for action, name in steps:
        if action == "add":
            store.add(authorities[name])
            oracle_store.add(authorities[name])
        else:
            assert_agrees(
                validate_chain(chains[name], store, now=NOW + 100),
                parent_validate_chain(chains[name], oracle_store, now=NOW + 100),
            )
    assert oracle_store._anchors == {}
