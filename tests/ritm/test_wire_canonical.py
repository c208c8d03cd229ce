"""Canonical encodings: every accepted byte string re-encodes to itself.

Certificates, chains, signed roots, freshness statements, Merkle proofs and
batches keep their wire form once it is known, and
``Certificate.from_bytes`` / ``CertificateChain.from_bytes`` /
``decode_issuance`` seed it with the bytes they accepted.  That is
sound only if no decoder accepts two byte strings for one value, so this
suite pins it: whatever a decoder accepts — valid encodings and bit flips,
length-field edits, splices, cuts and extensions of them — re-encodes, from a
field-for-field copy that retains no bytes, to exactly the bytes consumed.

The TLS record, hello, session-ticket and extension parsers are held to the
same property: the RA's DPI and both endpoints read every flight through them.
So is the batch object, which peers relay byte for byte.  So is the shard index, the one unsigned object an
RA reads every Δ from a sharded CA.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.merkle import PresenceProof
from repro.crypto.signing import KeyPair
from repro.dictionary.authdict import CADictionary, ReplicaDictionary, RevocationIssuance
from repro.dictionary.freshness import FreshnessStatement
from repro.dictionary.sync import SyncRequest, SyncResponse, SyncServer
from repro.errors import (
    CertificateError,
    DictionaryError,
    ProofError,
    SignatureError,
    TLSError,
)
from repro.pki.certificate import Certificate, CertificateChain
from repro.pki.serial import SerialNumber
from repro.store import create_store
from repro.ritm.messages import (
    MAX_NAME_BYTES,
    DictionaryHead,
    KeyAnnouncement,
    ShardIndex,
    decode_head,
    decode_issuance,
    decode_key_announcements,
    decode_proof,
    decode_shard_index,
    decode_signed_root,
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
from repro.ritm.replication import decode_delta_object, decode_segment, encode_segment
from repro.tls.extensions import (
    Extension,
    decode_extensions,
    encode_extensions,
    ritm_server_confirm_extension,
    ritm_support_extension,
    server_name_extension,
    session_ticket_extension,
)
from repro.tls.messages import (
    ClientHello,
    Finished,
    HandshakeType,
    NewSessionTicket,
    ServerHello,
    ServerHelloDone,
    parse_handshake_messages,
)
from repro.tls.records import ContentType, TLSRecord, parse_records, serialize_records
from repro.workloads.certificates import generate_corpus

from tests.ritm.conftest import flip_bit


def rebuilt(value):
    """A field-for-field copy that retains no wire bytes at any depth."""
    if dataclasses.is_dataclass(value):
        copy = type(value)(
            **{f.name: rebuilt(getattr(value, f.name)) for f in dataclasses.fields(value)}
        )
        assert "_wire" not in vars(copy)
        return copy
    if type(value) in (tuple, list):
        return type(value)(rebuilt(item) for item in value)
    return value


def _dictionary(serial_count: int) -> CADictionary:
    dictionary = CADictionary("Canon-CA", KeyPair.generate(b"canonical"), delta=10, chain_length=8)
    if serial_count:
        dictionary.insert([SerialNumber(10 * n) for n in range(1, serial_count + 1)], now=1000)
    else:
        dictionary.refresh(now=1000)
    return dictionary


FULL = _dictionary(37)
EMPTY = _dictionary(0)
#: present, absent between two leaves, absent before the first, after the last.
STATUSES = [FULL.prove(SerialNumber(value)) for value in (200, 205, 5, 999)]
STATUSES.append(EMPTY.prove(SerialNumber(7)))
#: Proofs (one present, one absent) from trees of the narrowest and the widest
#: digest; the dictionaries above use the default 20 bytes.
OTHER_WIDTH_PROOFS = []
for _width in (1, 32):
    _store = create_store("incremental", digest_size=_width)
    _store.insert_batch([(bytes([0, 0, n]), b"\x00\x00\x00\x01") for n in range(1, 20)])
    OTHER_WIDTH_PROOFS += [_store.prove(bytes([0, 0, 7])), _store.prove(bytes([0, 0, 77]))]
CORPUS = generate_corpus(ca_count=1, domains_per_ca=2, use_intermediates=True)
HEADS = [
    DictionaryHead(dictionary.signed_root, dictionary.latest_freshness)
    for dictionary in (FULL, EMPTY)
]
#: No window, one, and several out of order with a negative index; the last
#: one is what the bit-flip test mutates.
SHARD_INDEXES = [
    ShardIndex("Canon-CA", 600, ()),
    ShardIndex("Canon-CA", 7_776_000, (4,)),
    ShardIndex("Canon-CA", 2**32 - 1, (9, -2, 9, 0)),
]
_ISSUER = CADictionary("Canon-CA", KeyPair.generate(b"canonical"), delta=10, chain_length=8)
ISSUANCES = [
    _ISSUER.insert([SerialNumber(n) for n in serials], now=1000 + 10 * batch)
    for batch, serials in enumerate([(7,), (300, 2, 70_000), range(1000, 1020)])
]
#: A CA's key-announcement chain: none, the genesis key, then two rotations.
_ROTATING = [KeyPair.generate(f"canonical-epoch-{epoch}".encode()) for epoch in range(3)]
KEY_CHAINS = [()]
for _epoch, _keys in enumerate(_ROTATING):
    _link = KeyAnnouncement("Canon-CA", _epoch, _keys.public.key_bytes, 1000 * _epoch, 30 * _epoch)
    _signer = _ROTATING[max(_epoch - 1, 0)]
    KEY_CHAINS.append(
        KEY_CHAINS[-1] + (dataclasses.replace(_link, signature=_signer.sign(_link.payload())),)
    )
_SYNC_SERVER = SyncServer(_ISSUER)
for _issuance in ISSUANCES:
    _SYNC_SERVER.record_issuance(_issuance)
#: Nothing missing (root only), the whole history (what a checkpoint holds), a
#: suffix without its freshness statement, and a suffix with it.
SYNC_RESPONSES = [
    SyncResponse(RevocationIssuance("Canon-CA", (), 1, EMPTY.signed_root), EMPTY.latest_freshness),
    _SYNC_SERVER.serve(SyncRequest("Canon-CA", 0)),
    dataclasses.replace(_SYNC_SERVER.serve(SyncRequest("Canon-CA", 4)), freshness=None),
    _SYNC_SERVER.serve(SyncRequest("Canon-CA", 4)),
]


EXTENSIONS = [
    (),
    (ritm_support_extension(),),
    (
        server_name_extension("shop.example"),
        ritm_support_extension(),
        session_ticket_extension(b"t" * 9),
    ),
]
CLIENT_HELLOS = [
    ClientHello(random=bytes(range(32)), extensions=EXTENSIONS[0], cipher_suites=()),
    ClientHello(random=bytes(range(32)), session_id=b"\x11" * 8, extensions=EXTENSIONS[2]),
]
SERVER_HELLOS = [
    ServerHello(random=bytes(range(32))),
    ServerHello(
        random=bytes(range(32)),
        session_id=b"\x22" * 16,
        extensions=(ritm_server_confirm_extension(),),
    ),
]
HELLOS = [CLIENT_HELLOS[1], SERVER_HELLOS[1]]
TICKETS = [NewSessionTicket(0, b""), NewSessionTicket(3600, b"ticket-bytes")]
FLIGHTS = [
    [TLSRecord(ContentType.ALERT, b"", version=(3, 1))],
    [
        TLSRecord(
            ContentType.HANDSHAKE, SERVER_HELLOS[1].to_bytes() + ServerHelloDone().to_bytes()
        ),
        TLSRecord(ContentType.RITM_STATUS, encode_status_bundle(STATUSES[:1])),
        TLSRecord(ContentType.APPLICATION_DATA, b"body"),
    ],
]
MESSAGE_FLIGHTS = [
    CLIENT_HELLOS[1].to_bytes(),
    SERVER_HELLOS[1].to_bytes()
    + ServerHelloDone().to_bytes()
    + Finished(verify_data=b"\xaa" * 12).to_bytes()
    + TICKETS[1].to_bytes(),
]


def _encode_flight(messages) -> bytes:
    """Handshake messages back to bytes, the header spelt field by field."""
    return b"".join(
        message.to_bytes()
        if hasattr(message, "to_bytes")
        else bytes([handshake_type]) + len(message).to_bytes(3, "big") + message
        for handshake_type, message in messages
    )


def _whole(decode):
    """Adapt a whole-buffer decoder to the ``(value, end)`` shape."""
    return lambda data: (decode(data), len(data))


#: name → (decode to ``(value, end)``, encode, rejection type, valid encodings)
CODECS = {
    "certificate": (
        _whole(Certificate.from_bytes),
        Certificate.to_bytes,
        CertificateError,
        [certificate.to_bytes() for chain in CORPUS.chains for certificate in chain],
    ),
    "chain": (
        _whole(CertificateChain.from_bytes),
        CertificateChain.to_bytes,
        CertificateError,
        [chain.to_bytes() for chain in CORPUS.chains],
    ),
    "signed_root": (
        decode_signed_root,
        encode_signed_root,
        TLSError,
        [encode_signed_root(dictionary.signed_root) for dictionary in (FULL, EMPTY)],
    ),
    # What an RA reads every Δ, either form: a bare value (every 1–32 bytes
    # are one) or a batch object, told apart by the length.  A batch object
    # is last, so a single bit flip can be refused.
    "delta_object": (
        _whole(decode_delta_object),
        lambda value: (
            encode_segment(value)
            if isinstance(value, RevocationIssuance)
            else encode_freshness(value)
        ),
        TLSError,
        [encode_freshness(dictionary.latest_freshness) for dictionary in (FULL, EMPTY)]
        + [encode_segment(issuance) for issuance in ISSUANCES],
    ),
    "proof": (
        decode_proof,
        encode_proof,
        TLSError,
        [encode_proof(proof) for proof in OTHER_WIDTH_PROOFS]
        + [encode_proof(status.proof) for status in STATUSES],
    ),
    "status_bundle": (
        _whole(decode_status_bundle),
        encode_status_bundle,
        TLSError,
        [encode_status_bundle([status]) for status in STATUSES]
        + [encode_status_bundle(STATUSES[:3])],
    ),
    "head": (
        _whole(decode_head),
        encode_head,
        TLSError,
        [encode_head(head) for head in HEADS],
    ),
    # Also every batch object: ``encode_segment`` is this encoding whole.
    "issuance": (
        decode_issuance,
        encode_issuance,
        TLSError,
        [encode_issuance(issuance) for issuance in ISSUANCES],
    ),
    "shard_index": (
        _whole(decode_shard_index),
        encode_shard_index,
        TLSError,
        [encode_shard_index(index) for index in SHARD_INDEXES],
    ),
    "key_announcements": (
        _whole(decode_key_announcements),
        encode_key_announcements,
        TLSError,
        [encode_key_announcements(chain) for chain in KEY_CHAINS],
    ),
    "sync_response": (
        _whole(decode_sync_response),
        encode_sync_response,
        TLSError,
        [encode_sync_response(response) for response in SYNC_RESPONSES],
    ),
    "tls_records": (
        _whole(parse_records),
        serialize_records,
        TLSError,
        [serialize_records(flight) for flight in FLIGHTS],
    ),
    "handshake_flight": (
        _whole(parse_handshake_messages),
        _encode_flight,
        TLSError,
        MESSAGE_FLIGHTS,
    ),
    "client_hello": (
        _whole(ClientHello.from_body),
        lambda hello: hello.to_bytes()[4:],
        TLSError,
        [hello.to_bytes()[4:] for hello in CLIENT_HELLOS],
    ),
    "server_hello": (
        _whole(ServerHello.from_body),
        lambda hello: hello.to_bytes()[4:],
        TLSError,
        [hello.to_bytes()[4:] for hello in SERVER_HELLOS],
    ),
    "new_session_ticket": (
        _whole(NewSessionTicket.from_body),
        lambda ticket: ticket.to_bytes()[4:],
        TLSError,
        [ticket.to_bytes()[4:] for ticket in TICKETS],
    ),
    "extensions": (
        lambda data: (decode_extensions(data, 0, len(data)), len(data)),
        encode_extensions,
        TLSError,
        [encode_extensions(extensions) for extensions in EXTENSIONS],
    ),
}


def width_at(proof) -> int:
    """Offset of a proof's sibling-width byte in :func:`encode_proof`'s layout."""
    if isinstance(proof, PresenceProof):  # tag, key, value, index, size
        return 1 + 2 + len(proof.key) + 2 + len(proof.value) + 16
    both = proof.left is not None and proof.right is not None
    return 1 + 2 + len(proof.key) + 8 + 1 + 8 * both  # tag, key, size, flags[, index]


def with_proof_bytes(status, data: bytes) -> bytes:
    """``status`` as a one-status bundle whose proof field holds ``data``."""
    proof = dataclasses.replace(status.proof)
    vars(proof)["_wire"] = data  # encode_proof answers from the memo
    return encode_status_bundle([dataclasses.replace(status, proof=proof)])


def accepted_reencodes_to_itself(codec: str, data: bytes) -> bool:
    """The property; returns whether ``data`` was accepted at all."""
    decode, encode, rejection, _ = CODECS[codec]
    try:
        value, end = decode(data)
    except rejection:
        return False
    assert encode(rebuilt(value)) == data[:end], (codec, data.hex())
    assert encode(value) == data[:end]  # and so does whatever the decoder retained
    return True


@pytest.mark.parametrize("codec", sorted(CODECS))
def test_valid_encodings_are_fixed_points(codec):
    for data in CODECS[codec][3]:
        assert accepted_reencodes_to_itself(codec, data)


@pytest.mark.parametrize("codec", sorted(CODECS))
def test_every_single_bit_flip_is_rejected_or_canonical(codec):
    data = CODECS[codec][3][-1]
    outcomes = [
        accepted_reencodes_to_itself(codec, flip_bit(data, bit)) for bit in range(8 * len(data))
    ]
    assert any(outcomes) and not all(outcomes)


@st.composite
def mutated_encodings(draw):
    codec = draw(st.sampled_from(sorted(CODECS)))
    seeds = CODECS[codec][3]
    data = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "length", "splice", "cut", "extend"]))
        at = draw(st.integers(0, max(len(data) - 1, 0)))
        if kind == "flip" and data:
            data = flip_bit(data, 8 * at + draw(st.integers(0, 7)))
        elif kind == "length":
            # Nudge a (would-be) 16-bit length field: the edits most likely
            # to still parse, with bytes left over or borrowed from a neighbour.
            field = int.from_bytes(data[at : at + 2], "big") + draw(st.integers(-3, 3))
            data = data[:at] + (field % 0x10000).to_bytes(2, "big") + data[at + 2 :]
        elif kind == "splice":
            donor = draw(st.sampled_from(seeds))
            low = draw(st.integers(0, len(donor)))
            high = draw(st.integers(low, len(donor)))
            data = data[:at] + donor[low:high] + data[at + draw(st.integers(0, high - low)) :]
        elif kind == "cut":
            data = data[:at]
        else:
            data += draw(st.binary(min_size=1, max_size=4))
    return codec, data


@settings(max_examples=600, deadline=None)
@given(mutated_encodings())
def test_any_accepted_mutation_reencodes_to_itself(case):
    accepted_reencodes_to_itself(*case)


def test_every_accepted_bit_flip_of_a_batch_object_fails_the_replica():
    """A batch object carries no signature and no checksum of its own: a flip
    the decoder accepts changes a serial or the root, and the replica's
    ``update_many`` refuses the changed batch with its store untouched."""
    first = ISSUANCES[0]
    data = encode_segment(first)
    accepted = 0
    for bit in range(8 * len(data)):
        try:
            batch = decode_segment(flip_bit(data, bit))
        except TLSError:
            continue
        accepted += 1
        assert batch != first
        replica = ReplicaDictionary("Canon-CA", _ISSUER.public_key)
        with pytest.raises((DictionaryError, SignatureError)):
            replica.update_many([batch])
        assert replica.size == 0
    assert accepted


class TestSecondEncodingsClosed:
    """Byte strings that used to decode to a value some other bytes also give."""

    def test_a_sibling_width_of_zero_or_above_32(self):
        """One width byte stands for every sibling: 0 while siblings follow,
        or a width no tree has, would make the same bytes two proofs."""
        for proof in (STATUSES[0].proof, STATUSES[1].proof, *OTHER_WIDTH_PROOFS):
            data = encode_proof(proof)
            at = width_at(proof)
            assert 1 <= data[at] <= 32
            for width in (0, 33, 0x80, 0xFF):
                with pytest.raises(TLSError, match="sibling width"):
                    decode_proof(data[:at] + bytes([width]) + data[at + 1 :])

    def test_a_width_byte_that_is_not_zero_on_a_proof_with_no_siblings(self):
        store = create_store("incremental")
        store.insert(b"\x05", b"value")
        # Present, after the only leaf, before it: a one-leaf tree has no sibling.
        for proof in (store.prove(b"\x05"), store.prove(b"\x09"), store.prove(b"\x01")):
            data = encode_proof(proof)
            at = width_at(proof)
            assert data[at] == 0 and decode_proof(data) == (proof, len(data))
            for width in (1, 20, 32):
                with pytest.raises(TLSError, match="sibling width must be 0"):
                    decode_proof(data[:at] + bytes([width]) + data[at + 1 :])

    @pytest.mark.parametrize(
        "status", [STATUSES[2], STATUSES[3]], ids=["before-first", "after-last"]
    )
    def test_an_index_field_on_a_one_sided_proof(self, status):
        """A lone neighbour is leaf 0 or the last leaf: its index is not sent."""
        proof = status.proof
        data = encode_proof(proof)
        at = width_at(proof)  # right after the flags
        neighbour = proof.left or proof.right
        for index in (neighbour.leaf_index, 0, proof.tree_size - 1):
            grown = data[:at] + index.to_bytes(8, "big") + data[at:]
            with pytest.raises(TLSError):
                decode_status_bundle(with_proof_bytes(status, grown))

    @pytest.mark.parametrize(
        "status", STATUSES, ids=["present", "between", "before", "after", "empty"]
    )
    def test_every_truncation_and_extension_of_a_valid_encoding(self, status):
        data = encode_proof(status.proof)
        for cut in range(len(data)):
            with pytest.raises(TLSError, match="truncated"):
                decode_proof(data[:cut])
        # The proof ends where its layout says; whatever follows is not part
        # of it: in a status it is read as the signed root's first bytes,
        # and the status no longer decodes.
        for extra in (b"\x00", b"\x01", b"\xff" * 7, bytes(20), bytes(41)):
            assert decode_proof(data + extra) == (status.proof, len(data))
            with pytest.raises(TLSError):
                decode_status_bundle(with_proof_bytes(status, data + extra))

    def test_a_leaf_index_outside_the_tree(self):
        present, between = STATUSES[0].proof, STATUSES[1].proof
        data = encode_proof(present)
        at = width_at(present) - 16  # leaf index, then tree size
        for index in (present.tree_size, present.tree_size + 1, 2**64 - 1):
            with pytest.raises(TLSError, match="outside a tree"):
                decode_proof(data[:at] + index.to_bytes(8, "big") + data[at + 8 :])
        data = encode_proof(between)
        at = width_at(between) - 8  # the left neighbour's index
        for index in (between.tree_size - 1, between.tree_size, 2**64 - 1):
            with pytest.raises(TLSError, match="outside a tree"):
                decode_proof(data[:at] + index.to_bytes(8, "big") + data[at + 8 :])

    def test_absence_flags_that_do_not_fit_the_tree_size(self):
        for status, flags in ((STATUSES[4], 1), (STATUSES[4], 3), (STATUSES[1], 0)):
            proof = status.proof
            data = encode_proof(proof)
            flags_at = 1 + 2 + len(proof.key) + 8
            with pytest.raises(TLSError, match="do not fit a tree"):
                decode_proof(data[:flags_at] + bytes([flags]) + data[flags_at + 1 :])

    def test_the_encoder_refuses_what_the_layout_cannot_say(self):
        """Only what a verifier cannot compute is sent, so a proof whose shape
        ``verify`` would refuse, or whose siblings are not one digest width,
        has no encoding: ``ProofError``, never bytes that decode to another proof."""
        replace = dataclasses.replace
        present, between = STATUSES[0].proof, STATUSES[1].proof
        before, after = STATUSES[2].proof, STATUSES[3].proof
        left, right = between.left, between.right
        path = present.path
        misshapen = [
            replace(present, path=path[1:]),
            replace(present, path=path[:-1]),
            replace(present, path=path + path[:1]),
            replace(present, leaf_index=present.tree_size),
            replace(present, leaf_index=-1),
            replace(present, tree_size=2**64),
            replace(between, tree_size=between.tree_size + 1),
            replace(between, right=before.right),
            replace(between, right=replace(right, path=right.path[:-1] + (bytes(20),))),
            replace(before, right=left),
            replace(after, left=right),
            replace(before, right=None),
            replace(STATUSES[4].proof, left=left),
        ]
        for proof in misshapen:
            assert not proof.verify(FULL.signed_root.root)
            with pytest.raises(ProofError):
                encode_proof(proof)
        for bad in (b"", bytes(33), bytes(7)):
            with pytest.raises(ProofError, match="digest"):
                encode_proof(replace(present, path=path[:1] + (bad,) + path[2:]))

    def test_a_path_one_sibling_short_or_long_has_no_encoding(self):
        """Sides are derived, so the one shape a path can get wrong is its
        length: ``verify`` refuses it and so does the encoder, on a presence
        proof and on either neighbour of an absence proof."""
        replace = dataclasses.replace
        present, between = STATUSES[0].proof, STATUSES[1].proof
        for path in (present.path[:-1], present.path + (bytes(20),)):
            proof = replace(present, path=path)
            assert not proof.verify(FULL.signed_root.root)
            with pytest.raises(ProofError, match="audit path length"):
                encode_proof(proof)
        for side in ("left", "right"):
            neighbour = getattr(between, side)
            for path in (neighbour.path[:-1], neighbour.path + (bytes(20),)):
                proof = replace(between, **{side: replace(neighbour, path=path)})
                assert not proof.verify(FULL.signed_root.root)
                with pytest.raises(ProofError, match="audit path length"):
                    encode_proof(proof)

    def test_absence_flags_above_three(self):
        proof = STATUSES[1].proof
        data = encode_proof(proof)
        flags_at = 1 + 2 + len(proof.key) + 8
        assert data[flags_at] == 3
        with pytest.raises(TLSError, match="absence proof flags"):
            decode_proof(data[:flags_at] + b"\x07" + data[flags_at + 1 :])

    def test_trailing_bytes_after_a_status_bundle(self):
        with pytest.raises(TLSError, match="trailing bytes"):
            decode_status_bundle(encode_status_bundle(STATUSES[:1]) + b"\x00")

    @pytest.mark.parametrize("junk", [b"x", b"junk", bytes(7), bytes(9), bytes(16)])
    def test_trailing_bytes_after_a_head_or_a_batch_object(self, junk):
        with pytest.raises(TLSError, match="trailing bytes"):
            decode_head(encode_head(HEADS[0]) + junk)
        with pytest.raises(TLSError, match="trailing bytes"):
            decode_segment(encode_segment(ISSUANCES[1]) + junk)
        with pytest.raises(TLSError, match="trailing bytes"):
            decode_sync_response(encode_sync_response(SYNC_RESPONSES[-1]) + junk)

    @pytest.mark.parametrize("length", [0, 21, 0xFF])
    def test_a_serial_length_byte_outside_1_to_20(self, length):
        """Each serial is a u8 length and its bytes; no length outside a
        serial's 1–20 bytes is read as one."""
        data = encode_issuance(ISSUANCES[1])
        at = len(encode_signed_root(ISSUANCES[1].signed_root)) + 4
        assert data[at] == 3  # the serial 300, in the default three bytes
        with pytest.raises(TLSError, match="1–20 bytes"):
            decode_issuance(data[:at] + bytes([length]) + data[at + 1 :])

    def test_a_serial_of_zero(self):
        data = encode_issuance(ISSUANCES[1])
        at = len(encode_signed_root(ISSUANCES[1].signed_root)) + 4
        with pytest.raises(TLSError, match="positive"):
            decode_issuance(data[: at + 1] + bytes(3) + data[at + 4 :])

    @pytest.mark.parametrize("decode", [decode_segment, decode_delta_object])
    def test_the_retired_layout_body_then_anchor_is_trailing_bytes(self, decode):
        """A batch object once ended with the statement served after it, its
        root's anchor; that statement is the anchor itself, so the layout
        no longer sends it and those bytes are refused wherever a batch
        object is read."""
        for issuance in ISSUANCES:
            retired = encode_issuance(issuance) + issuance.signed_root.anchor
            with pytest.raises(TLSError, match="trailing bytes"):
                decode(retired)

    def test_a_per_delta_object_is_a_value_up_to_32_bytes_and_a_batch_beyond(self):
        value = FULL.latest_freshness.value
        assert decode_delta_object(value) == FULL.latest_freshness
        assert decode_delta_object(bytes(32)).value == bytes(32)
        for junk in (bytes(33), b"\xff" * 40, value * 2):
            with pytest.raises(TLSError):
                decode_delta_object(junk)
        with pytest.raises(TLSError):
            decode_delta_object(b"")

    @pytest.mark.parametrize(
        "junk", [b"\x00", bytes(12), b"\xff" * 20], ids=["1-byte", "12-bytes", "20-bytes"]
    )
    def test_trailing_bytes_inside_a_status_frame(self, junk):
        """The value ends where the root's anchor width says, so bytes after
        it inside the status's frame are refused, not read as a wider value."""
        grown = encode_status(STATUSES[1]) + junk
        with pytest.raises(TLSError, match="trailing bytes"):
            decode_status_bundle(b"\x01" + len(grown).to_bytes(2, "big") + grown)

    @pytest.mark.parametrize("hello", HELLOS, ids=["client", "server"])
    def test_trailing_bytes_after_a_hello_extensions_block(self, hello):
        body = hello.to_bytes()[4:]
        assert type(hello).from_body(body) == hello
        with pytest.raises(TLSError, match="trailing bytes"):
            type(hello).from_body(body + b"junk")

    def test_odd_client_hello_cipher_suites_length(self):
        """Used to read its last "suite" across the compression-length byte."""
        hello = ClientHello(random=bytes(32), cipher_suites=(0xC02F,))
        body = hello.to_bytes()[4:]
        suites_at = 2 + 32 + 1
        assert body[suites_at : suites_at + 4] == b"\x00\x02\xc0\x2f"
        odd = body[:suites_at] + b"\x00\x01\xc0" + body[suites_at + 4 :]
        with pytest.raises(TLSError, match="odd"):
            ClientHello.from_body(odd)

    def test_session_ticket_length_must_match_its_body(self):
        body = NewSessionTicket(1, b"abc").to_bytes()[4:]
        assert NewSessionTicket.from_body(body).ticket == b"abc"
        for declared in (2, 4, 50):
            with pytest.raises(TLSError, match="length"):
                NewSessionTicket.from_body(body[:4] + declared.to_bytes(2, "big") + b"abc")

    @pytest.mark.parametrize("hello", HELLOS, ids=["client", "server"])
    def test_hello_fields_the_model_does_not_carry_have_one_value(self, hello):
        """Legacy version and compression are not fields of either hello, so
        any other value on the wire would re-encode to different bytes."""
        body = hello.to_bytes()[4:]
        with pytest.raises(TLSError, match="version"):
            type(hello).from_body(b"\x03\x01" + body[2:])
        extensions_at = len(body) - len(encode_extensions(hello.extensions))
        compression_at = extensions_at - 1
        assert body[compression_at] == 0
        with pytest.raises(TLSError, match="compression"):
            type(hello).from_body(body[:compression_at] + b"\x01" + body[extensions_at:])


def _named(value, name: str):
    """``value`` (a frozen dataclass) under CA name ``name``, memo-free: its
    own name field, its signed root's and its batch's, whichever it has."""
    names = {spec.name for spec in dataclasses.fields(value)}
    changes = {"ca_name": name} if "ca_name" in names else {}
    for field in ("signed_root", "batch"):
        if field in names:
            changes[field] = _named(getattr(value, field), name)
    return dataclasses.replace(value, **changes)


#: Every RITM object whose first field is a name: (encode, decode, value).
#: A head and a batch open with their signed root, and so with the root's
#: name.
NAMED = {
    "signed_root": (encode_signed_root, decode_signed_root, FULL.signed_root),
    "head": (encode_head, lambda data: (decode_head(data), len(data)), HEADS[0]),
    "issuance": (encode_issuance, decode_issuance, ISSUANCES[1]),
    "shard_index": (
        encode_shard_index,
        lambda data: (decode_shard_index(data), len(data)),
        SHARD_INDEXES[-1],
    ),
    # One announcement: a one-link chain without its u16 count.
    "key_announcement": (
        lambda announcement: encode_key_announcements((announcement,))[2:],
        lambda data: (decode_key_announcements(b"\x00\x01" + data)[0], len(data)),
        KEY_CHAINS[-1][-1],
    ),
}


class TestNameCap:
    """A name field holds at most :data:`MAX_NAME_BYTES` (255) UTF-8 bytes, so
    every name-prefixed object opens with ``0x00``: a longer name is refused
    by every encoder and rejected by every decoder before it is decoded."""

    @pytest.mark.parametrize("kind", sorted(NAMED))
    def test_a_name_of_255_bytes_round_trips_and_opens_with_zero(self, kind):
        encode, decode, value = NAMED[kind]
        named = _named(value, "n" * MAX_NAME_BYTES)
        data = encode(named)
        assert data[:3] == b"\x00\xffn"
        assert decode(data)[0] == named

    @pytest.mark.parametrize("name", ["n" * 256, "é" * 128], ids=["ascii", "two-byte-utf8"])
    @pytest.mark.parametrize("kind", sorted(NAMED))
    def test_a_name_of_256_bytes_is_refused_by_the_encoder(self, kind, name):
        encode, _, value = NAMED[kind]
        with pytest.raises(TLSError, match=str(MAX_NAME_BYTES)):
            encode(_named(value, name))

    @pytest.mark.parametrize("kind", sorted(NAMED))
    def test_a_name_of_256_bytes_is_rejected_by_the_decoder(self, kind):
        encode, decode, value = NAMED[kind]
        data = encode(_named(value, "n" * MAX_NAME_BYTES))
        longer = (MAX_NAME_BYTES + 1).to_bytes(2, "big") + b"n" + data[2:]
        with pytest.raises(TLSError, match="longer than"):
            decode(longer)

    def test_a_key_announcement_name_is_capped_too(self):
        announcement = KEY_CHAINS[-1][0]
        assert _named(announcement, "n" * MAX_NAME_BYTES).payload().count(b"n") >= MAX_NAME_BYTES
        with pytest.raises(TLSError, match=str(MAX_NAME_BYTES)):
            _named(announcement, "n" * 256).payload()


#: A name with no UTF-8 form: a lone surrogate.
NO_UTF8 = "\ud800"


def _beyond_u64(value):
    """``value`` (a batch) as the last batch of a dictionary of 2⁶⁴ serials,
    a size no u64 holds."""
    root = dataclasses.replace(value.signed_root, size=2**64)
    return dataclasses.replace(value, signed_root=root, first_number=2**64 - len(value.serials) + 1)


def _status_with_root(**root_fields):
    status = STATUSES[0]
    return dataclasses.replace(
        status, signed_root=dataclasses.replace(status.signed_root, **root_fields)
    )


#: For every RITM codec in :data:`CODECS`, a value it would encode but for a
#: name with no UTF-8 form (``None``: the layout holds no name), and one but
#: for a value out of its field's range: an integer, or where the layout
#: holds none of its own (a statement; a proof, whose position is a shape
#: error, ``ProofError``), a byte field longer than the layout allows.
UNENCODABLE = {
    "signed_root": (
        _named(FULL.signed_root, NO_UTF8),
        dataclasses.replace(FULL.signed_root, size=2**64),
    ),
    "delta_object": (_named(ISSUANCES[0], NO_UTF8), FreshnessStatement(bytes(33))),
    "proof": (None, dataclasses.replace(STATUSES[0].proof, key=bytes(0x10000))),
    "status_bundle": (
        [_status_with_root(ca_name=NO_UTF8)],
        [_status_with_root(timestamp=-1)],
    ),
    "head": (
        _named(HEADS[0], NO_UTF8),
        dataclasses.replace(
            HEADS[0], signed_root=dataclasses.replace(HEADS[0].signed_root, size=2**64)
        ),
    ),
    "issuance": (_named(ISSUANCES[0], NO_UTF8), _beyond_u64(ISSUANCES[0])),
    "shard_index": (
        _named(SHARD_INDEXES[1], NO_UTF8),
        dataclasses.replace(SHARD_INDEXES[1], width_seconds=2**32),
    ),
    "key_announcements": (
        (_named(KEY_CHAINS[1][0], NO_UTF8),),
        (dataclasses.replace(KEY_CHAINS[1][0], key_epoch=-1),),
    ),
    "sync_response": (
        _named(SYNC_RESPONSES[1], NO_UTF8),
        SyncResponse(_beyond_u64(SYNC_RESPONSES[1].batch), SYNC_RESPONSES[1].freshness),
    ),
    # The TLS layouts hold no name: a u8 session-id length, a u16 field, a
    # protocol version byte.
    "tls_records": (None, [TLSRecord(ContentType.ALERT, b"", version=(3, 256))]),
    "handshake_flight": (
        None,
        [(HandshakeType.CLIENT_HELLO, ClientHello(random=bytes(32), session_id=bytes(256)))],
    ),
    "client_hello": (None, ClientHello(random=bytes(32), session_id=bytes(256))),
    "server_hello": (None, ServerHello(random=bytes(32), cipher_suite=2**16)),
    "new_session_ticket": (None, NewSessionTicket(2**32, b"")),
    "extensions": (None, (Extension(2**16),)),
}
#: The X.509 codecs in :data:`CODECS`, whose rejection is a ``CertificateError``.
CERTIFICATE_CODECS = {"certificate", "chain"}


def test_every_ritm_and_tls_codec_has_an_unencodable_case():
    assert set(UNENCODABLE) == set(CODECS) - CERTIFICATE_CODECS


@pytest.mark.parametrize(
    "codec, value",
    [
        pytest.param(codec, value, id=f"{codec}-{case}")
        for codec, values in sorted(UNENCODABLE.items())
        for case, value in zip(("name", "out-of-range"), values)
        if value is not None
    ],
)
def test_a_value_with_no_wire_form_is_a_tls_error(codec, value):
    """Every encoder is total: a value its layout cannot say is refused as a
    malformed message, never a bare ``struct.error``, ``ValueError`` or
    ``UnicodeEncodeError``."""
    with pytest.raises(TLSError):
        CODECS[codec][1](value)


@pytest.mark.parametrize(
    "message",
    [
        NewSessionTicket(2**32, b""),
        NewSessionTicket(1, bytes(0x10000)),
        ClientHello(session_id=b"x" * 300),
        ServerHello(session_id=b"x" * 300),
    ],
    ids=["ticket-lifetime", "ticket-length", "client-session-id", "server-session-id"],
)
def test_a_tls_message_whose_field_overflows_is_a_tls_error(message):
    with pytest.raises(TLSError, match="no wire form"):
        message.to_bytes()
