"""Property-based tests for the equivocation detector.

The :class:`~repro.ritm.consistency.ConsistencyChecker` is the last line of
defense against a misbehaving CA, so its report/no-report decision must be
exactly right for *any* observation order, not just the staged sequences in
the unit tests: a report appears iff a stored root and an observed root of
the same size carry different hashes, the evidence always verifies under
the CA's key (bare or keyring), and nothing an attacker can substitute into
a report survives verification.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.crypto.signing import CAKeyring, KeyPair
from repro.dictionary.signed_root import SignedRoot
from repro.ritm.consistency import ConsistencyChecker, GossipExchange

CA_KEYS = KeyPair.generate(b"consistency-prop-ca")
REPORTER = KeyPair.generate(b"consistency-prop-reporter")
ATTACKER = KeyPair.generate(b"consistency-prop-attacker")

#: Small domains keep hypothesis focused on orderings and collisions, the
#: dimensions the checker's logic actually branches on.
sizes = st.integers(min_value=1, max_value=6)
variants = st.integers(min_value=1, max_value=3)


def _root(size: int, variant: int, keys: KeyPair = CA_KEYS) -> SignedRoot:
    """A signed root whose hash is determined by ``variant``."""
    return SignedRoot(
        ca_name="Prop-CA",
        root=bytes([variant]) * 8,
        size=size,
        anchor=b"\x01" * 8,
        timestamp=1_000,
        chain_length=8,
    ).sign(keys.private)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(sizes, variants), min_size=1, max_size=24))
def test_report_iff_observed_root_conflicts_with_stored_one(observations):
    """For any observation sequence: a report appears exactly when the
    observed root differs from the first root stored at that size."""
    checker = ConsistencyChecker("prop-ra", reporter_keys=REPORTER)
    first_seen = {}
    for size, variant in observations:
        expected_conflict = size in first_seen and first_seen[size] != variant
        report = checker.observe_root(_root(size, variant))
        first_seen.setdefault(size, variant)
        assert (report is not None) == expected_conflict
        if report is not None:
            assert report.is_valid_evidence(CA_KEYS.public)
            assert report.is_valid_evidence(CAKeyring.single(CA_KEYS.public))
            assert report.verify_reporter()
            assert report.verify_reporter(REPORTER.public)
    assert any(report.ca_name == "Prop-CA" for report in checker.reports) == any(
        variant != first_seen[size] for size, variant in observations
    )


@settings(max_examples=60, deadline=None)
@given(
    st.sets(sizes, min_size=1, max_size=5),
    st.sets(sizes, min_size=1, max_size=5),
)
def test_gossip_surfaces_exactly_the_split_view_sizes(left_sizes, right_sizes):
    """One gossip round reports each size where the two views disagree, in
    both directions, and nothing else."""
    left = ConsistencyChecker("left-ra", reporter_keys=REPORTER)
    right = ConsistencyChecker(
        "right-ra", reporter_keys=KeyPair.generate(b"right-reporter")
    )
    for size in left_sizes:
        left.observe_root(_root(size, variant=1))
    for size in right_sizes:
        right.observe_root(_root(size, variant=2))

    reports = GossipExchange().exchange(left, right)

    disputed = left_sizes & right_sizes
    assert len(reports) == 2 * len(disputed)
    assert {report.first.size for report in reports} == disputed
    for report in reports:
        assert report.is_valid_evidence(CA_KEYS.public)
        assert report.verify_reporter()


@settings(max_examples=40, deadline=None)
@given(sizes)
def test_evidence_validity_is_bound_to_the_ca_key(size):
    """Genuine evidence verifies under the CA's key (and a keyring holding
    it) but never under an unrelated key, and substituting an
    attacker-signed root voids it."""
    checker = ConsistencyChecker("prop-ra", reporter_keys=REPORTER)
    checker.observe_root(_root(size, variant=1))
    report = checker.observe_root(_root(size, variant=2))
    assert report is not None

    assert report.is_valid_evidence(CA_KEYS.public)
    assert report.is_valid_evidence(CAKeyring.single(CA_KEYS.public))
    assert not report.is_valid_evidence(ATTACKER.public)
    assert not report.is_valid_evidence(CAKeyring.single(ATTACKER.public))

    # An attacker cannot manufacture evidence with its own signing key...
    forged = replace(report, second=_root(size, variant=3, keys=ATTACKER))
    assert not forged.is_valid_evidence(CA_KEYS.public)
    # ...nor pass off two agreeing roots as a conflict.
    agreeing = replace(report, second=report.first)
    assert not agreeing.is_valid_evidence(CA_KEYS.public)
    # Stripping, truncating or replaying the reporter countersignature is
    # detectable (a truncated one is invalid, not an exception).
    unsigned = replace(report, reporter_signature=b"")
    assert not unsigned.verify_reporter()
    truncated = replace(report, reporter_signature=report.reporter_signature[:-1])
    assert not truncated.verify_reporter()
    misattributed = replace(report, reporter_key_bytes=ATTACKER.public.key_bytes)
    assert not misattributed.verify_reporter()


@settings(max_examples=40, deadline=None)
@given(sizes, sizes, variants, variants)
def test_different_sizes_never_conflict(size_a, size_b, variant_a, variant_b):
    """Roots of different sizes are snapshots of different dictionary
    states — never equivocation evidence, whatever their hashes."""
    if size_a == size_b:
        size_b = size_a + 1
    checker = ConsistencyChecker("prop-ra", reporter_keys=REPORTER)
    assert checker.observe_root(_root(size_a, variant_a)) is None
    assert checker.observe_root(_root(size_b, variant_b)) is None
    assert checker.reports == []
