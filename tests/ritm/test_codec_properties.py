"""Property-based tests for RITM's wire formats and the end-to-end status path.

The codec is the trust boundary between parties (RAs serialize, clients
deserialize and verify), so round-tripping must preserve verification for
*any* dictionary contents and any queried serial — not just the handful of
cases in the unit tests.
"""


import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.signing import KeyPair
from repro.dictionary.authdict import CADictionary, ReplicaDictionary
from repro.errors import RevokedCertificateError, TLSError
from repro.pki.serial import SerialNumber
from repro.ritm.messages import (
    decode_head,
    decode_issuance,
    decode_key_announcements,
    decode_status,
    encode_head,
    encode_issuance,
    encode_key_announcements,
    encode_status,
    DictionaryHead,
    KeyAnnouncement,
)

KEYS = KeyPair.generate(b"codec-property-tests")

serial_values = st.integers(min_value=1, max_value=2**24 - 1)


@settings(max_examples=25, deadline=None)
@given(st.sets(serial_values, min_size=1, max_size=40), serial_values)
def test_status_roundtrip_preserves_verdict_for_any_content(revoked_values, probe):
    """encode(decode(status)) verifies identically for any dictionary and probe."""
    master = CADictionary("Prop-CA", KEYS, delta=10, chain_length=8)
    master.insert([SerialNumber(value) for value in sorted(revoked_values)], now=1000)
    status = master.prove(SerialNumber(probe))
    decoded, _ = decode_status(encode_status(status))
    assert decoded.is_revoked == status.is_revoked == (probe in revoked_values)
    if probe in revoked_values:
        with pytest.raises(RevokedCertificateError):
            decoded.verify(KEYS.public, now=1005, delta=10)
    else:
        decoded.verify(KEYS.public, now=1005, delta=10)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.sets(serial_values, min_size=1, max_size=10), min_size=1, max_size=4))
def test_issuance_roundtrip_reconstructs_replica_for_any_batching(raw_batches):
    """A replica fed only decoded issuance bytes always converges to the master."""
    seen = set()
    batches = []
    for batch in raw_batches:
        cleaned = sorted(value for value in batch if value not in seen)
        seen.update(cleaned)
        if cleaned:
            batches.append(cleaned)
    master = CADictionary("Prop-CA", KEYS, delta=10, chain_length=8)
    replica = ReplicaDictionary("Prop-CA", KEYS.public)
    now = 1000
    for batch in batches:
        issuance = master.insert([SerialNumber(value) for value in batch], now=now)
        replica.update(decode_issuance(encode_issuance(issuance))[0])
        now += 10
    assert replica.root() == master.root()
    assert replica.size == master.size


@settings(max_examples=20, deadline=None)
@given(st.sets(serial_values, min_size=1, max_size=30))
def test_head_roundtrip_always_verifies(values):
    master = CADictionary("Prop-CA", KEYS, delta=10, chain_length=8)
    master.insert([SerialNumber(value) for value in sorted(values)], now=1000)
    head = DictionaryHead(master.signed_root, master.latest_freshness)
    decoded = decode_head(encode_head(head))
    assert decoded == head
    assert decoded.signed_root.size == len(values)
    assert decoded.signed_root.verify(KEYS.public)
    assert decoded.signed_root.root == master.root()


#: Integers at and around the edges of the u64 fields a key announcement's
#: signed payload packs, plus arbitrary ones well outside them.
announcement_integers = st.one_of(
    st.sampled_from([-1, 0, 1, 2**63, 2**64 - 1, 2**64]),
    st.integers(min_value=-(2**70), max_value=2**70),
)
#: Byte fields at and around the 65535-byte limit of a u16-framed field.
announcement_bytes = st.sampled_from([0, 1, 32, 64, 0xFFFF, 0x10000]).map(
    lambda length: b"\xab" * length
)
announcement_entries = st.builds(
    KeyAnnouncement,
    ca_name=st.one_of(st.text(max_size=8), st.just("\ud800"), st.just("x" * 0x10000)),
    key_epoch=announcement_integers,
    public_key_bytes=announcement_bytes,
    activated_at=announcement_integers,
    overlap_seconds=announcement_integers,
    signature=announcement_bytes,
)


@settings(max_examples=60, deadline=None)
@given(st.lists(announcement_entries, max_size=3))
def test_every_decoded_key_announcement_has_a_payload(entries):
    """A chain the decoder returns never fails later, inside the keyring's
    signature check: each announcement's signed payload encodes."""
    try:
        encoded = encode_key_announcements(tuple(entries))
    except TLSError:
        return  # a value with no wire form never reaches the CDN
    chain = decode_key_announcements(encoded)
    assert chain == tuple(entries)
    for announcement in chain:
        assert announcement.payload()
