"""Tests for consistency checking, equivocation detection, and gossip."""

import pytest

from repro.crypto.signing import KeyPair
from repro.dictionary.signed_root import SignedRoot
from repro.ritm.consistency import ConsistencyChecker, GossipExchange


@pytest.fixture(scope="module")
def keys():
    return KeyPair.generate(b"consistency-tests")


def signed_root(keys, size: int, root_byte: int, ca_name: str = "CA-C") -> SignedRoot:
    return SignedRoot(
        ca_name=ca_name,
        root=bytes([root_byte]) * 20,
        size=size,
        anchor=b"\x02" * 20,
        timestamp=100 + size,
        chain_length=16,
    ).sign(keys.private)


class TestConsistencyChecker:
    def test_consistent_roots_produce_no_report(self, keys):
        checker = ConsistencyChecker("ra-1")
        assert checker.observe_root(signed_root(keys, 1, 0x01)) is None
        assert checker.observe_root(signed_root(keys, 2, 0x02)) is None
        assert checker.observe_root(signed_root(keys, 1, 0x01)) is None  # same root again
        assert checker.reports == []

    def test_equivocation_at_same_size_detected(self, keys):
        checker = ConsistencyChecker("ra-1")
        checker.observe_root(signed_root(keys, 3, 0x01))
        report = checker.observe_root(signed_root(keys, 3, 0x09))
        assert report is not None
        assert report.ca_name == "CA-C"
        assert report.is_valid_evidence(keys.public)
        assert checker.reports == [report]

    def test_different_cas_do_not_conflict(self, keys):
        checker = ConsistencyChecker("ra-1")
        checker.observe_root(signed_root(keys, 3, 0x01, ca_name="CA-A"))
        assert checker.observe_root(signed_root(keys, 3, 0x09, ca_name="CA-B")) is None

    def test_known_roots_are_ordered_by_size(self, keys):
        checker = ConsistencyChecker("ra-1")
        checker.observe_root(signed_root(keys, 1, 0x01))
        checker.observe_root(signed_root(keys, 5, 0x05))
        checker.observe_root(signed_root(keys, 3, 0x03))
        assert [root.size for root in checker.known_roots("CA-C")] == [1, 3, 5]
        assert checker.known_roots("Unknown-CA") == []

    def test_the_first_root_at_a_size_stays_after_equivocation(self, keys):
        checker = ConsistencyChecker("ra-1")
        first = signed_root(keys, 3, 0x01)
        checker.observe_root(first)
        one = checker.observe_root(signed_root(keys, 3, 0x09))
        two = checker.observe_root(signed_root(keys, 3, 0x0A))
        assert checker.known_roots("CA-C") == [first]
        assert one.first == two.first == first
        assert checker.reports == [one, two]

    def test_without_reporter_keys_a_report_is_attributed_but_unsigned(self, keys):
        checker = ConsistencyChecker("ra-1")
        checker.observe_root(signed_root(keys, 3, 0x01))
        report = checker.observe_root(signed_root(keys, 3, 0x09))
        assert report.detected_by == "ra-1"
        assert (report.reporter_key_bytes, report.reporter_signature) == (b"", b"")
        assert not report.verify_reporter()
        assert report.is_valid_evidence(keys.public)

    def test_evidence_with_bad_signature_is_invalid(self, keys):
        from dataclasses import replace

        checker = ConsistencyChecker("ra-1")
        checker.observe_root(signed_root(keys, 3, 0x01))
        report = checker.observe_root(signed_root(keys, 3, 0x09))
        forged = replace(report, first=replace(report.first, signature=b"\x00" * 64))
        assert not forged.is_valid_evidence(keys.public)


class TestGossipAndEdgeChecks:
    def test_gossip_propagates_equivocation_evidence(self, keys):
        # RA one saw version A, RA two saw version B: gossip exposes the split view.
        left = ConsistencyChecker("ra-left")
        right = ConsistencyChecker("ra-right")
        left.observe_root(signed_root(keys, 4, 0x0A))
        right.observe_root(signed_root(keys, 4, 0x0B))
        reports = GossipExchange().exchange(left, right)
        assert reports
        assert left.reports or right.reports

    def test_gossip_between_consistent_parties_is_silent(self, keys):
        left = ConsistencyChecker("ra-left")
        right = ConsistencyChecker("ra-right")
        shared = signed_root(keys, 4, 0x0A)
        left.observe_root(shared)
        right.observe_root(shared)
        assert GossipExchange().exchange(left, right) == []

    def test_agent_detects_equivocating_ca_through_dissemination(self, world, keys):
        """A CA that republishes a different dictionary at the same size is caught."""
        ca = world.cas[0]
        good_root = ca.dictionary.signed_root
        # The "other view": same size (0) but different content hash.
        from dataclasses import replace

        evil_root = replace(good_root, root=b"\x66" * 20).sign(ca.authority._keys.private)
        report = world.agent.consistency.observe_root(evil_root)
        assert report is not None
        assert report.is_valid_evidence(ca.public_key)
