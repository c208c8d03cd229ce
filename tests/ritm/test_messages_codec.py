"""Tests for RITM's binary wire formats (status, head, batch object)."""

import json
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.signing import KeyPair
from repro.dictionary.authdict import CADictionary
from repro.dictionary.freshness import FreshnessStatement
from repro.dictionary.sync import SyncResponse
from repro.errors import TLSError
from repro.pki.serial import SerialNumber
from repro.ritm.messages import (
    MAX_ISSUANCE_SERIALS,
    DictionaryHead,
    KeyAnnouncement,
    ShardIndex,
    decode_batch,
    decode_freshness,
    decode_head,
    decode_issuance,
    decode_key_announcements,
    decode_proof,
    decode_shard_index,
    decode_signed_root,
    decode_status,
    decode_status_bundle,
    decode_sync_response,
    encode_batch,
    encode_freshness,
    encode_head,
    encode_issuance,
    encode_key_announcements,
    encode_proof,
    encode_shard_index,
    encode_signed_root,
    encode_status,
    encode_status_bundle,
    encode_sync_response,
)
from repro.ritm.replication import decode_delta_object

from tests.conftest import make_serials


@pytest.fixture(scope="module")
def keys():
    return KeyPair.generate(b"codec-tests")


@pytest.fixture(scope="module")
def master(keys):
    dictionary = CADictionary("Codec-CA", keys, delta=10, chain_length=16)
    dictionary.insert(make_serials(50), now=1000)
    return dictionary


class TestSignedRootCodec:
    def test_roundtrip_preserves_verification(self, master, keys):
        root = master.signed_root
        decoded, consumed = decode_signed_root(encode_signed_root(root))
        assert decoded == root
        assert decoded.verify(keys.public)
        assert consumed == len(encode_signed_root(root))

    def test_truncation_rejected(self, master):
        data = encode_signed_root(master.signed_root)
        with pytest.raises(TLSError):
            decode_signed_root(data[:10])


class TestProofCodec:
    def test_absence_proof_roundtrip(self, master):
        proof = master.prove_membership(SerialNumber(700_000))
        decoded, _ = decode_proof(encode_proof(proof))
        assert decoded == proof
        assert decoded.verify(master.root())

    def test_presence_proof_roundtrip(self, master):
        proof = master.prove_membership(SerialNumber(10))
        decoded, _ = decode_proof(encode_proof(proof))
        assert decoded == proof
        assert decoded.verify(master.root())

    def test_edge_absence_proofs_roundtrip(self, master):
        # Before the first and after the last leaf (one-sided proofs).
        low = master.prove_membership(SerialNumber(16_000_000))
        decoded, _ = decode_proof(encode_proof(low))
        assert decoded.verify(master.root())

    def test_unknown_tag_rejected(self):
        with pytest.raises(TLSError):
            decode_proof(b"\x07garbage")


class TestFreshnessCodec:
    """A statement is its hash-chain value (Eq. 2), the 20 bytes the paper
    prices, and the per-Δ object between batches is that value alone."""

    def test_a_statement_is_its_value(self, master):
        statement = master.latest_freshness
        assert encode_freshness(statement) == statement.value
        assert len(statement.value) == 20
        assert decode_delta_object(statement.value) == statement

    def test_the_retired_statements_are_refused_or_link_nowhere(self, master):
        """The 44-byte statement (CA name, framed value, u64 size) is longer
        than any value, so it is read as a batch object and refused.  The
        tagged ``0x00`` ‖ value object is a 21-byte value, which links to no
        root of a 20-byte dictionary."""
        statement = master.latest_freshness
        name = b"Codec-CA"
        retired = (
            struct.pack(">H", len(name))
            + name
            + struct.pack(">H", 20)
            + statement.value
            + struct.pack(">Q", master.size)
        )
        assert len(retired) == 2 + len(name) + 22 + 8
        with pytest.raises(TLSError):
            decode_delta_object(retired)
        tagged = decode_delta_object(b"\x00" + statement.value)
        assert len(tagged.value) == 21 and tagged != statement

    @pytest.mark.parametrize("width", [0, 33, 64])
    def test_a_value_no_chain_link_has_is_refused_both_ways(self, width):
        with pytest.raises(TLSError, match="no chain link"):
            encode_freshness(FreshnessStatement(bytes(width)))
        with pytest.raises(TLSError, match="no chain link"):
            decode_freshness(bytes(width), 0, width)

    def test_an_empty_per_delta_object_is_refused(self):
        with pytest.raises(TLSError, match="no chain link"):
            decode_delta_object(b"")


class TestStatusCodec:
    def test_status_roundtrip_still_verifies(self, master, keys):
        status = master.prove(SerialNumber(700_000))
        decoded, _ = decode_status(encode_status(status))
        assert decoded.ca_name == status.ca_name
        assert decoded.serial == status.serial
        decoded.verify(keys.public, now=1005, delta=10)

    def test_revoked_status_roundtrip(self, master, keys):
        from repro.errors import RevokedCertificateError

        status = master.prove(SerialNumber(7))
        decoded, _ = decode_status(encode_status(status))
        assert decoded.is_revoked
        with pytest.raises(RevokedCertificateError):
            decoded.verify(keys.public, now=1005, delta=10)

    def test_bundle_roundtrip(self, master):
        statuses = [master.prove(SerialNumber(700_000)), master.prove(SerialNumber(5))]
        decoded = decode_status_bundle(encode_status_bundle(statuses))
        assert len(decoded) == 2
        assert decoded[0].serial == statuses[0].serial
        assert decoded[1].is_revoked

    def test_empty_bundle_record_rejected(self):
        with pytest.raises(TLSError):
            decode_status_bundle(b"")

    def test_status_is_its_three_parts_unframed(self, master):
        """Proof, signed root, value: each ends where its own layout says, and
        the serial and CA are the proof's key and the root's name."""
        status = master.prove(SerialNumber(700_000))
        parts = [
            encode_proof(status.proof),
            encode_signed_root(status.signed_root),
            encode_freshness(status.freshness),
        ]
        assert encode_status(status) == b"".join(parts)
        assert len(parts[2]) == len(status.signed_root.anchor) == 20

    @staticmethod
    def _retired_status(status) -> bytes:
        """The layout before statuses named each fact once: five u16-framed
        fields (CA name, serial, proof, signed root, 44-byte statement)."""
        statement = (
            struct.pack(">H", len(status.ca_name))
            + status.ca_name.encode("utf-8")
            + struct.pack(">H", 20)
            + status.freshness.value
            + struct.pack(">Q", status.signed_root.size)
        )
        fields = [
            status.ca_name.encode("utf-8"),
            status.serial.to_bytes(),
            encode_proof(status.proof),
            encode_signed_root(status.signed_root),
            statement,
        ]
        return b"".join(struct.pack(">H", len(field)) + field for field in fields)

    @pytest.mark.parametrize("serial", [700_000, 7], ids=["absent", "present"])
    def test_the_retired_status_layout_is_refused(self, master, serial):
        status = master.prove(SerialNumber(serial))
        retired = self._retired_status(status)
        with pytest.raises(TLSError):
            decode_status_bundle(b"\x01" + struct.pack(">H", len(retired)) + retired)

    @pytest.mark.parametrize("width", [19, 21, 32])
    def test_a_value_of_another_width_than_the_anchor_is_refused(self, master, width):
        """The reader takes the value's width from the root's anchor, so a
        status carrying a narrower or wider value has no encoding and no
        decoding."""
        status = master.prove(SerialNumber(700_000))
        head = encode_proof(status.proof) + encode_signed_root(status.signed_root)
        value = (status.freshness.value * 2)[:width]
        with pytest.raises(TLSError):
            decode_status_bundle(encode_status_bundle([status])[:3] + head + value)
        framed = b"\x01" + struct.pack(">H", len(head) + width) + head + value
        with pytest.raises(TLSError):
            decode_status_bundle(framed)
        with pytest.raises(TLSError, match="under an anchor of 20"):
            encode_status(replace(status, freshness=FreshnessStatement(value)))


class TestHeadAndIssuanceCodec:
    def test_head_roundtrip(self, master, keys):
        head = DictionaryHead(master.signed_root, master.latest_freshness)
        encoded = encode_head(head)
        assert encoded == encode_signed_root(master.signed_root) + master.latest_freshness.value
        decoded = decode_head(encoded)
        assert decoded == head
        assert decoded.signed_root.verify(keys.public)

    def test_a_head_still_carrying_a_publication_sequence_is_refused(self, master):
        # Heads once ended with an unsigned 8-byte counter after the
        # statement; such a head is now a second encoding and is refused.
        head = DictionaryHead(master.signed_root, master.latest_freshness)
        for sequence in (0, 7):
            with pytest.raises(TLSError, match="trailing bytes"):
                decode_head(encode_head(head) + sequence.to_bytes(8, "big"))

    def test_head_size_is_small(self, master):
        head = DictionaryHead(master.signed_root, master.latest_freshness)
        # The polling object stays a few hundred bytes (it is fetched every Δ).
        assert len(encode_head(head)) < 500

    def test_issuance_roundtrip(self, keys):
        dictionary = CADictionary("Codec-CA-2", keys, delta=10, chain_length=8)
        issuance = dictionary.insert(make_serials(7), now=2000)
        encoded = encode_issuance(issuance)
        decoded, end = decode_issuance(encoded)
        assert end == len(encoded)
        assert decoded.ca_name == issuance.ca_name
        assert decoded.first_number == 1
        assert decoded.serials == issuance.serials
        assert decoded.signed_root == issuance.signed_root

    def test_issuance_applies_to_replica_after_roundtrip(self, keys):
        from repro.dictionary.authdict import ReplicaDictionary

        dictionary = CADictionary("Codec-CA-3", keys, delta=10, chain_length=8)
        issuance = dictionary.insert(make_serials(5), now=2000)
        replica = ReplicaDictionary("Codec-CA-3", keys.public)
        replica.update(decode_issuance(encode_issuance(issuance))[0])
        assert replica.root() == dictionary.root()

    def test_a_batch_object_is_root_count_serials_value(self, keys):
        """Only what a verifier cannot compute: the name is the root's and
        the first number ``root.size - count + 1``, so neither is sent, and
        each serial costs one length byte."""
        dictionary = CADictionary("Codec-CA-6", keys, delta=10, chain_length=8)
        dictionary.insert(make_serials(4), now=2000)
        issuance = dictionary.insert([SerialNumber(9_000_001), SerialNumber(70)], now=2010)
        statement = dictionary.latest_freshness
        wire = encode_batch(issuance, statement)
        assert wire == b"".join(
            [
                encode_signed_root(issuance.signed_root),
                (2).to_bytes(4, "big"),
                b"\x03" + SerialNumber(9_000_001).to_bytes(),
                b"\x03" + SerialNumber(70).to_bytes(),
                statement.value,
            ]
        )
        decoded, freshness = decode_batch(wire)
        assert (decoded, freshness) == (issuance, statement)
        assert decoded.first_number == 5 == issuance.signed_root.size - 2 + 1
        assert decode_batch(encode_batch(issuance, None)) == (issuance, None)

    @pytest.mark.parametrize(
        "field, value",
        [("ca_name", "Other-CA"), ("first_number", 4), ("first_number", 6)],
    )
    def test_a_batch_its_root_does_not_end_has_no_encoding(self, keys, field, value):
        dictionary = CADictionary("Codec-CA-7", keys, delta=10, chain_length=8)
        dictionary.insert(make_serials(4), now=2000)
        issuance = dictionary.insert(make_serials(2, start=500), now=2010)
        with pytest.raises(TLSError, match="is not the batch its root"):
            encode_issuance(replace(issuance, **{field: value}))

    @pytest.mark.parametrize("missing", [0, 3, 0xFFFF, 0xFFFF + 1, 2 * 0xFFFF + 5])
    def test_sync_response_is_one_batch_object(self, master, missing):
        """A cold sync is one batch object however long its history: the
        count is 32 bits, not cut at the CA's per-batch cap."""
        response = SyncResponse(
            ca_name="Codec-CA",
            first_number=11,
            serials=tuple(SerialNumber(n + 1) for n in range(missing)),
            signed_root=replace(master.signed_root, size=10 + missing),
            freshness=master.latest_freshness,
        )
        wire = encode_sync_response(response)
        body = encode_issuance(response.as_issuance())
        assert wire == body + encode_freshness(master.latest_freshness)
        count_at = len(encode_signed_root(response.signed_root))
        assert int.from_bytes(body[count_at : count_at + 4], "big") == missing
        assert len(body) == count_at + 4 + 4 * missing  # 3-byte serials, one length byte each
        assert encode_sync_response(replace(response, freshness=None)) == body


class TestSyncResponseRoundTrip:
    """``decode_sync_response`` reads back exactly what ``encode_sync_response``
    wrote: one batch object, the statement optional."""

    @staticmethod
    def _response(master, have, total, freshness=True):
        """Serials ``have + 1 … total`` of a ``total``-entry dictionary, widths mixed."""
        return SyncResponse(
            ca_name="Codec-CA",
            first_number=have + 1,
            serials=tuple(
                SerialNumber(n, width=2 + n % 3 if n < 2**16 else 3 + n % 2)
                for n in range(have + 1, total + 1)
            ),
            signed_root=replace(master.signed_root, size=total),
            freshness=master.latest_freshness if freshness else None,
        )

    @pytest.mark.parametrize("freshness", [True, False], ids=["freshness", "bare"])
    @pytest.mark.parametrize(
        "have, total",
        [
            (0, 0),
            (9, 9),
            (0, 1),
            (4, 50),
            (0, MAX_ISSUANCE_SERIALS),
            (0, MAX_ISSUANCE_SERIALS + 1),
            (7, 70_000),
            (0, 2 * MAX_ISSUANCE_SERIALS),
        ],
    )
    def test_round_trip(self, master, have, total, freshness):
        response = self._response(master, have, total, freshness)
        wire = encode_sync_response(response)
        decoded = decode_sync_response(wire)
        assert decoded == response
        assert {serial.width for serial in decoded.serials} == {
            serial.width for serial in response.serials
        }
        assert encode_sync_response(decoded) == wire

    @given(st.integers(0, 40), st.integers(0, 40), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_of_small_responses(self, master, have, missing, freshness):
        response = self._response(master, have, have + missing, freshness)
        assert decode_sync_response(encode_sync_response(response)) == response

    def test_two_batch_objects_back_to_back_are_refused(self, master):
        """The retired chunked layout: a second object after the first is
        neither a statement nor nothing."""
        head = self._response(master, 0, 3, freshness=False)
        tail = self._response(master, 3, 5, freshness=False)
        with pytest.raises(TLSError):
            decode_sync_response(encode_sync_response(head) + encode_sync_response(tail))

    @pytest.mark.parametrize("count", [2, 2**32 - 1], ids=["one-more", "u32-max"])
    def test_a_count_the_bytes_cannot_hold_is_refused_before_allocation(self, master, count):
        """Every serial takes two bytes or more, so a count above half the
        bytes left is refused before a serial is read."""
        root = encode_signed_root(replace(master.signed_root, size=2**40))
        one_serial = b"\x01\x07"
        assert decode_sync_response(root + (1).to_bytes(4, "big") + one_serial).serials == (
            SerialNumber(7, width=1),
        )
        with pytest.raises(TLSError, match="cannot fit"):
            decode_sync_response(root + count.to_bytes(4, "big") + one_serial)

    def test_a_count_above_the_root_size_is_refused(self, master):
        """The first number would be below 1."""
        response = self._response(master, 0, 3, freshness=False)
        wire = encode_sync_response(response)
        count_at = len(encode_signed_root(response.signed_root))
        extra = SerialNumber(999).to_bytes()
        grown = wire[:count_at] + (4).to_bytes(4, "big") + wire[count_at + 4 :] + b"\x03" + extra
        with pytest.raises(TLSError, match="under a root over 3"):
            decode_sync_response(grown)

    def test_what_follows_the_batch_is_one_whole_freshness_statement(self, master):
        wire = encode_sync_response(self._response(master, 4, 50))
        with pytest.raises(TLSError, match="trailing bytes"):
            decode_sync_response(wire + b"\x00")
        with pytest.raises(TLSError):
            decode_sync_response(wire[:-1])


class TestNameFieldsAreTotal:
    """Every ``ca_name`` field decodes to text or raises ``TLSError``
    — a stray ``UnicodeDecodeError`` would escape the RA's pull boundary and
    abort the cycle for every healthy CA."""

    @staticmethod
    def _corrupt_leading_name(data: bytes) -> bytes:
        # Each object starts with its length-prefixed name: 0xFF never
        # appears in valid UTF-8.
        return data[:2] + b"\xff" + data[3:]

    def test_invalid_utf8_name_raises_tls_error(self, master, keys):
        dictionary = CADictionary("Codec-CA-4", keys, delta=10, chain_length=8)
        issuance = dictionary.insert(make_serials(3), now=2000)
        head = DictionaryHead(master.signed_root, master.latest_freshness)
        cases = [
            (decode_signed_root, encode_signed_root(master.signed_root)),
            (decode_head, encode_head(head)),
            (decode_issuance, encode_issuance(issuance)),
        ]
        for decode, encoded in cases:
            decode(encoded)  # the honest object decodes
            with pytest.raises(TLSError, match="UTF-8"):
                decode(self._corrupt_leading_name(encoded))

        # A batch object opens with its root, and so with the root's name.
        from repro.ritm.replication import BatchObject, decode_segment, encode_segment

        raw = encode_segment(BatchObject(issuance, dictionary.latest_freshness))
        decode_segment(raw)
        with pytest.raises(TLSError, match="UTF-8"):
            decode_segment(self._corrupt_leading_name(raw))

    def test_a_batch_over_the_ca_cap_still_encodes(self, keys):
        """``MAX_ISSUANCE_SERIALS`` caps one ``revoke``, not the wire: a sync
        response carries any history as one object."""
        from repro.dictionary.authdict import RevocationIssuance

        serials = tuple(SerialNumber(n + 1) for n in range(MAX_ISSUANCE_SERIALS + 1))
        root = CADictionary("Codec-CA-5", keys, delta=10, chain_length=8).refresh(1000)
        root = replace(root, size=len(serials))
        issuance = RevocationIssuance(
            ca_name="Codec-CA-5", serials=serials, first_number=1, signed_root=root
        )
        assert decode_issuance(encode_issuance(issuance))[0] == issuance


class TestShardIndexCodec:
    """Round trips and zero widths are held by ``test_wire_canonical.py`` and
    ``test_sharded_stack.py``; here, a window count that does not match the
    bytes, or the index's former JSON form, is malformed rather than clamped,
    and a window index is exactly an i64."""

    def test_every_truncation_and_a_miscounted_window_list_are_rejected(self):
        encoded = encode_shard_index(ShardIndex("Codec-CA", 600, (1, 2)))
        for cut in range(len(encoded)):
            with pytest.raises(TLSError, match="truncated"):
                decode_shard_index(encoded[:cut])
        count_at = 2 + len("Codec-CA") + 4
        for count, message in ((3, "truncated"), (1, "trailing bytes")):
            miscounted = encoded[:count_at] + count.to_bytes(2, "big") + encoded[count_at + 2 :]
            with pytest.raises(TLSError, match=message):
                decode_shard_index(miscounted)


    def test_a_json_index_is_refused_as_malformed(self):
        # The index was once JSON with a publication sequence; those bytes
        # are a TLSError, never a leaked JSON or Unicode exception.
        legacy = json.dumps(
            {"ca": "Codec-CA", "width_seconds": 600, "live": [1], "sequence": 3}
        ).encode("utf-8")
        with pytest.raises(TLSError):
            decode_shard_index(legacy)

    def test_window_indexes_span_all_of_i64_and_no_further(self):
        index = ShardIndex("Codec-CA", 1, (-(2**63), 0, 2**63 - 1))
        assert decode_shard_index(encode_shard_index(index)) == index
        for live in ((2**63,), (-(2**63) - 1,)):
            with pytest.raises(TLSError, match="no wire form"):
                encode_shard_index(ShardIndex("Codec-CA", 1, live))


class TestKeyAnnouncementCodec:
    """The key-rotation chain must survive the CDN byte-exactly: every
    field is covered by the previous epoch's signature, so any mutation in
    transit must flip signature verification, and malformed chains must be
    rejected before they reach keyring logic."""

    def _chain(self, keys):
        next_keys = KeyPair.generate(b"codec-epoch-1")
        genesis = KeyAnnouncement(
            ca_name="Codec-CA",
            key_epoch=0,
            public_key_bytes=keys.public.key_bytes,
            activated_at=0,
            overlap_seconds=0,
        )
        rotation = KeyAnnouncement(
            ca_name="Codec-CA",
            key_epoch=1,
            public_key_bytes=next_keys.public.key_bytes,
            activated_at=5_000,
            overlap_seconds=10,
        )
        rotation = replace(rotation, signature=keys.sign(rotation.payload()))
        return (genesis, rotation)

    def test_chain_roundtrips_and_still_verifies(self, keys):
        chain = self._chain(keys)
        decoded = decode_key_announcements(encode_key_announcements(chain))
        assert decoded == chain
        # The rotation link's signature still verifies under epoch 0's key.
        assert keys.public.verify(decoded[1].payload(), decoded[1].signature)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("key_epoch", 2),
            ("activated_at", 5_001),
            ("overlap_seconds", 10_000),
            ("public_key_bytes", b"\x00" * 32),
            ("ca_name", "Codec-CA-evil"),
        ],
    )
    def test_any_field_mutation_breaks_the_signature(self, keys, field, value):
        chain = self._chain(keys)
        tampered = replace(chain[1], **{field: value})
        decoded = decode_key_announcements(
            encode_key_announcements((chain[0], tampered))
        )
        assert not keys.public.verify(decoded[1].payload(), decoded[1].signature)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda chain: b"\x00\x03" + chain[2:],  # one announcement more than sent
            lambda chain: chain[:-1],  # the last signature cut short
            lambda chain: chain + b"\x00",  # a byte after the last announcement
            # The genesis key's length prefix (after count, name, epoch) past the end.
            lambda chain: chain[:20] + b"\xff\xff" + chain[22:],
        ],
    )
    def test_malformed_chain_rejected(self, keys, mutate):
        chain = encode_key_announcements(self._chain(keys))
        assert chain[20:22] == b"\x00\x20"  # count, "Codec-CA" framed, epoch before it
        with pytest.raises(TLSError, match="malformed key announcement chain"):
            decode_key_announcements(mutate(chain))

    def test_non_list_chain_rejected(self):
        with pytest.raises(TLSError):
            decode_key_announcements(b"{}")
