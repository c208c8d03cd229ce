"""Tests for RITM's binary wire formats (status, head, issuance)."""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.signing import KeyPair
from repro.dictionary.authdict import CADictionary
from repro.dictionary.sync import SyncResponse
from repro.errors import TLSError
from repro.pki.serial import SerialNumber
from repro.ritm import messages
from repro.ritm.messages import (
    MAX_ISSUANCE_SERIALS,
    DictionaryHead,
    KeyAnnouncement,
    ShardIndex,
    decode_head,
    decode_issuance,
    decode_key_announcements,
    decode_proof,
    decode_shard_index,
    decode_signed_root,
    decode_status,
    decode_status_bundle,
    decode_sync_response,
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

    def test_status_size_is_its_framed_parts(self, master):
        status = master.prove(SerialNumber(700_000))
        parts = [
            status.ca_name.encode("utf-8"),
            status.serial.to_bytes(),
            encode_proof(status.proof),
            encode_signed_root(status.signed_root),
            encode_freshness(status.freshness),
        ]
        assert len(encode_status(status)) == sum(2 + len(part) for part in parts)


class TestHeadAndIssuanceCodec:
    def test_head_roundtrip(self, master, keys):
        head = DictionaryHead(
            ca_name="Codec-CA",
            size=master.size,
            signed_root=master.signed_root,
            freshness=master.latest_freshness,
        )
        decoded = decode_head(encode_head(head))
        assert decoded.ca_name == head.ca_name
        assert decoded.size == head.size
        assert decoded.signed_root.verify(keys.public)

    def test_head_size_is_small(self, master):
        head = DictionaryHead(
            ca_name="Codec-CA",
            size=master.size,
            signed_root=master.signed_root,
            freshness=master.latest_freshness,
        )
        # The polling object stays a few hundred bytes (it is fetched every Δ).
        assert len(encode_head(head)) < 500

    def test_issuance_roundtrip(self, keys):
        dictionary = CADictionary("Codec-CA-2", keys, delta=10, chain_length=8)
        issuance = dictionary.insert(make_serials(7), now=2000)
        decoded = decode_issuance(encode_issuance(issuance))
        assert decoded.ca_name == issuance.ca_name
        assert decoded.first_number == 1
        assert decoded.serials == issuance.serials
        assert decoded.signed_root == issuance.signed_root

    def test_issuance_applies_to_replica_after_roundtrip(self, keys):
        from repro.dictionary.authdict import ReplicaDictionary

        dictionary = CADictionary("Codec-CA-3", keys, delta=10, chain_length=8)
        issuance = dictionary.insert(make_serials(5), now=2000)
        replica = ReplicaDictionary("Codec-CA-3", keys.public)
        replica.update(decode_issuance(encode_issuance(issuance)))
        assert replica.root() == dictionary.root()

    @pytest.mark.parametrize("missing", [0, 3, 0xFFFF, 0xFFFF + 1, 2 * 0xFFFF + 5])
    def test_sync_response_is_sized_as_consecutive_issuance_objects(self, master, missing):
        """What ``as_issuance()`` says it is, cut at the issuance object's
        16-bit count — so a cold sync past 65,535 serials has a size."""
        response = SyncResponse(
            ca_name="Codec-CA",
            first_number=11,
            serials=tuple(SerialNumber(n + 1) for n in range(missing)),
            signed_root=master.signed_root,
            freshness=master.latest_freshness,
        )
        wire = encode_sync_response(response)
        counts = []
        while sum(counts) < missing or not counts:
            # Each object's 16-bit count sits after its name and first number.
            count = int.from_bytes(wire[2 + len(b"Codec-CA") + 8 :][:2], "big")
            expected = replace(
                response.as_issuance(),
                serials=response.serials[sum(counts) : sum(counts) + count],
                first_number=11 + sum(counts),
            )
            size = len(encode_issuance(expected))
            assert decode_issuance(wire[:size]) == expected
            wire = wire[size:]
            counts.append(count)
        full, rest = divmod(missing, MAX_ISSUANCE_SERIALS)
        assert counts == [MAX_ISSUANCE_SERIALS] * full + ([rest] if rest or not full else [])
        assert wire == encode_freshness(master.latest_freshness)
        without = encode_sync_response(replace(response, freshness=None))
        assert without + wire == encode_sync_response(response)


class TestSyncResponseRoundTrip:
    """``decode_sync_response`` reads back exactly what ``encode_sync_response``
    wrote: the chunks are found by the carried root's ``size``, not counted."""

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
    def test_round_trip_with_small_chunks(self, master, have, missing, freshness):
        """The same property with the chunk size turned down to 7, so the
        chunk boundaries are exercised at every offset."""
        response = self._response(master, have, have + missing, freshness)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(messages, "MAX_ISSUANCE_SERIALS", 7)
            wire = encode_sync_response(response)
            assert decode_sync_response(wire) == response

    def test_any_other_chunking_of_the_same_response_is_rejected(self, master):
        response = self._response(master, 0, 5, freshness=False)
        whole = response.as_issuance()
        pieces = [
            replace(whole, serials=whole.serials[:3]),
            replace(whole, serials=whole.serials[3:], first_number=4),
        ]
        assert decode_sync_response(encode_issuance(whole)) == response
        with pytest.raises(TLSError, match="do not end at the signed dictionary size"):
            decode_sync_response(b"".join(encode_issuance(piece) for piece in pieces))

    def test_chunks_must_continue_one_response(self, master):
        response = self._response(master, 0, MAX_ISSUANCE_SERIALS + 2)
        whole = response.as_issuance()
        first = encode_issuance(replace(whole, serials=whole.serials[:MAX_ISSUANCE_SERIALS]))
        tail = replace(
            whole, serials=whole.serials[MAX_ISSUANCE_SERIALS:], first_number=MAX_ISSUANCE_SERIALS + 1
        )
        assert decode_sync_response(
            first + encode_issuance(tail) + encode_freshness(response.freshness)
        ) == response
        for wrong in (
            replace(tail, ca_name="Other-CA"),
            replace(tail, first_number=tail.first_number + 1),
            replace(tail, signed_root=replace(tail.signed_root, timestamp=1)),
        ):
            with pytest.raises(TLSError, match="consecutive pieces"):
                decode_sync_response(first + encode_issuance(wrong))
        with pytest.raises(TLSError):  # the history stops short of the signed size
            decode_sync_response(first)
        with pytest.raises(TLSError, match="do not end"):  # …or runs past it
            decode_sync_response(first + encode_issuance(replace(tail, serials=tail.serials * 2)))

    def test_what_follows_the_last_chunk_is_one_whole_freshness_statement(self, master):
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
        from repro.ritm.messages import decode_freshness, encode_freshness
        from repro.ritm.replication import (
            SEGMENT_MAGIC,
            build_segment,
            decode_segment,
            encode_segment,
        )

        dictionary = CADictionary("Codec-CA-4", keys, delta=10, chain_length=8)
        issuance = dictionary.insert(make_serials(3), now=2000)
        head = DictionaryHead(
            ca_name="Codec-CA",
            size=master.size,
            signed_root=master.signed_root,
            freshness=master.latest_freshness,
        )
        cases = [
            (decode_signed_root, encode_signed_root(master.signed_root)),
            (decode_freshness, encode_freshness(master.latest_freshness)),
            (decode_status, encode_status(master.prove(make_serials(1)[0]))),
            (decode_head, encode_head(head)),
            (decode_issuance, encode_issuance(issuance)),
        ]
        for decode, encoded in cases:
            decode(encoded)  # the honest object decodes
            with pytest.raises(TLSError, match="UTF-8"):
                decode(self._corrupt_leading_name(encoded))

        # A segment's name sits in the issuance object it embeds, inside its
        # CRC'd frame: rebuild the checksum so the corruption reaches the
        # issuance decoder.
        import struct
        import zlib

        raw = bytearray(
            encode_segment(
                build_segment(issuance, dictionary.latest_freshness, 1, keys)
            )
        )
        name_at = len(SEGMENT_MAGIC) + 8 + 4 + 2  # number, issuance length, name length
        raw[name_at] = 0xFF
        struct.pack_into(">I", raw, len(raw) - 4, zlib.crc32(bytes(raw[:-4])))
        with pytest.raises(TLSError, match="UTF-8"):
            decode_segment(bytes(raw))

    def test_oversized_issuance_is_a_repro_error(self, keys):
        from repro.dictionary.authdict import RevocationIssuance
        from repro.errors import ReproError
        from repro.ritm.messages import MAX_ISSUANCE_SERIALS

        root = CADictionary("Codec-CA-5", keys, delta=10, chain_length=8).refresh(1000)
        serials = tuple(SerialNumber(n + 1) for n in range(MAX_ISSUANCE_SERIALS + 1))
        with pytest.raises(ReproError, match="at most 65535"):
            encode_issuance(
                RevocationIssuance(
                    ca_name="Codec-CA-5", serials=serials, first_number=1, signed_root=root
                )
            )
        encode_issuance(
            RevocationIssuance(
                ca_name="Codec-CA-5", serials=serials[:-1], first_number=1, signed_root=root
            )
        )


class TestReplayWindowFieldsCodec:
    """Round-trip and tamper behaviour of the replay-window fields.

    The publication ``sequence`` on heads and shard indexes is deliberately
    unauthenticated (the replay *backstop* is the signed freshness chain),
    so the codec contract is: the counter survives a round trip exactly,
    and absent or syntactically invalid counters are rejected as malformed
    rather than silently defaulted or clamped.
    """

    def _head(self, master, sequence):
        return DictionaryHead(
            ca_name="Codec-CA",
            size=master.size,
            signed_root=master.signed_root,
            freshness=master.latest_freshness,
            sequence=sequence,
        )

    @pytest.mark.parametrize("sequence", [0, 1, 7, 2**32, 2**63])
    def test_head_sequence_roundtrips_exactly(self, master, keys, sequence):
        decoded = decode_head(encode_head(self._head(master, sequence)))
        assert decoded.sequence == sequence
        assert decoded.signed_root.verify(keys.public)

    def test_head_without_its_sequence_is_rejected(self, master):
        # ``encode_head`` always writes the counter; a head that stops after
        # the freshness statement would be a second encoding of sequence 0.
        encoded = encode_head(self._head(master, sequence=0))
        assert decode_head(encoded).sequence == 0
        with pytest.raises(TLSError, match="truncated"):
            decode_head(encoded[:-8])
        with pytest.raises(TLSError, match="truncated"):
            decode_head(encoded[:-1])

    def test_head_sequence_is_outside_the_signature(self, master, keys):
        # A CDN (or attacker) can rewrite the counter without breaking the
        # root signature — exactly why the client also keeps the signed
        # freshness chain as the authenticated staleness backstop.
        head = self._head(master, sequence=5)
        rewound = decode_head(encode_head(replace(head, sequence=1)))
        assert rewound.sequence == 1
        assert rewound.signed_root == head.signed_root
        assert rewound.signed_root.verify(keys.public)

    @pytest.mark.parametrize("sequence", [0, 3, 2**40])
    def test_shard_index_sequence_roundtrips_exactly(self, sequence):
        index = ShardIndex(
            ca_name="Codec-CA",
            width_seconds=600,
            live=(4, 5, 6),
            retired=(1, 2),
            sequence=sequence,
        )
        decoded = decode_shard_index(encode_shard_index(index))
        assert decoded == index

    @pytest.mark.parametrize("missing", ["sequence", "retired"])
    def test_shard_index_without_a_written_field_is_rejected(self, missing):
        index = ShardIndex(ca_name="Codec-CA", width_seconds=600, live=(1,))
        payload = json.loads(encode_shard_index(index).decode("utf-8"))
        del payload[missing]
        with pytest.raises(TLSError, match="malformed shard index"):
            decode_shard_index(json.dumps(payload).encode("utf-8"))

    def test_shard_index_negative_sequence_rejected(self):
        index = ShardIndex(ca_name="Codec-CA", width_seconds=600, live=(1,))
        payload = json.loads(encode_shard_index(index).decode("utf-8"))
        payload["sequence"] = -4
        with pytest.raises(TLSError):
            decode_shard_index(json.dumps(payload).encode("utf-8"))


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
            lambda entries: entries[1].update(signature="zz-not-hex"),
            lambda entries: entries[1].update(overlap_seconds=-1),
            lambda entries: entries[1].update(activated_at=-5),
            lambda entries: entries[1].pop("epoch"),
        ],
    )
    def test_malformed_chain_rejected(self, keys, mutate):
        entries = json.loads(
            encode_key_announcements(self._chain(keys)).decode("utf-8")
        )
        mutate(entries)
        with pytest.raises(TLSError):
            decode_key_announcements(json.dumps(entries).encode("utf-8"))

    def test_non_list_chain_rejected(self):
        with pytest.raises(TLSError):
            decode_key_announcements(b"{}")
