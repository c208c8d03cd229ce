"""Canonical encodings: every accepted byte string re-encodes to itself.

Certificates, chains, signed roots, freshness statements, Merkle proofs and
issuance objects keep their wire form once it is known, and
``Certificate.from_bytes`` / ``CertificateChain.from_bytes`` /
``decode_issuance`` seed it with the bytes they accepted.  That is
sound only if no decoder accepts two byte strings for one value, so this
suite pins it: whatever a decoder accepts — valid encodings and bit flips,
length-field edits, splices, cuts and extensions of them — re-encodes, from a
field-for-field copy that retains no bytes, to exactly the bytes consumed.

The TLS record, hello, session-ticket and extension parsers are held to the
same property: the RA's DPI and both endpoints read every flight through them.
So is the segment decoder: a receiver verifies a segment's signature over
the bytes it re-encodes.
"""

import dataclasses
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.signing import KeyPair
from repro.dictionary.authdict import CADictionary
from repro.dictionary.sync import SyncRequest, SyncResponse, SyncServer
from repro.errors import CertificateError, TLSError
from repro.pki.certificate import Certificate, CertificateChain
from repro.pki.serial import SerialNumber
from repro.store import create_store
from repro.ritm.messages import (
    DictionaryHead,
    decode_freshness,
    decode_freshness_object,
    decode_head,
    decode_issuance,
    decode_proof,
    decode_signed_root,
    decode_status_bundle,
    decode_sync_response,
    encode_freshness,
    encode_head,
    encode_issuance,
    encode_proof,
    encode_signed_root,
    encode_status_bundle,
    encode_sync_response,
)
from repro.ritm.replication import SEGMENT_MAGIC, build_segment, decode_segment, encode_segment
from repro.tls.extensions import (
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
    DictionaryHead(
        ca_name=dictionary.ca_name,
        size=dictionary.size,
        signed_root=dictionary.signed_root,
        freshness=dictionary.latest_freshness,
        sequence=sequence,
    )
    for dictionary, sequence in ((FULL, 9), (EMPTY, 0))
]
_ISSUER = CADictionary("Canon-CA", KeyPair.generate(b"canonical"), delta=10, chain_length=8)
ISSUANCES = [
    _ISSUER.insert([SerialNumber(n) for n in serials], now=1000 + 10 * batch)
    for batch, serials in enumerate([(7,), (300, 2, 70_000), range(1000, 1020)])
]
SEGMENTS = [
    build_segment(issuance, _ISSUER.latest_freshness, number, KeyPair.generate(b"canonical"))
    for number, issuance in enumerate(ISSUANCES, 1)
]
_SYNC_SERVER = SyncServer(_ISSUER)
for _issuance in ISSUANCES:
    _SYNC_SERVER.record_issuance(_issuance)
#: Nothing missing (root only), the whole history (what a checkpoint holds), a
#: suffix without its freshness statement, and a suffix with it.
SYNC_RESPONSES = [
    SyncResponse("Canon-CA", 1, (), EMPTY.signed_root, EMPTY.latest_freshness),
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


def _checksummed(body: bytes) -> bytes:
    """A segment frame without its CRC32, framed again with a correct one."""
    return body + zlib.crc32(body).to_bytes(4, "big")


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
    "freshness": (
        decode_freshness,
        encode_freshness,
        TLSError,
        [encode_freshness(dictionary.latest_freshness) for dictionary in (FULL, EMPTY)],
    ),
    # What an RA reads every Δ: one statement, the whole object.
    "freshness_object": (
        _whole(decode_freshness_object),
        encode_freshness,
        TLSError,
        [encode_freshness(dictionary.latest_freshness) for dictionary in (FULL, EMPTY)],
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
    "issuance": (
        _whole(decode_issuance),
        encode_issuance,
        TLSError,
        [encode_issuance(issuance) for issuance in ISSUANCES],
    ),
    # A segment's trailing CRC32 is a function of the bytes before it, so the
    # harness edits those and re-checksums them: a mutation reaches the parser
    # instead of stopping at the checksum (which has its own test below).
    "segment": (
        lambda body: (decode_segment(_checksummed(body)), len(body)),
        lambda segment: encode_segment(segment)[:-4],
        TLSError,
        [encode_segment(segment)[:-4] for segment in SEGMENTS],
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


def test_every_single_bit_flip_of_a_segment_fails_its_checksum():
    data = encode_segment(SEGMENTS[-1])
    decode_segment(data)
    for bit in range(8 * len(SEGMENT_MAGIC), 8 * len(data)):
        with pytest.raises(TLSError, match="checksum"):
            decode_segment(flip_bit(data, bit))


class TestSecondEncodingsClosed:
    """Byte strings that used to decode to a value some other bytes also give."""

    def test_audit_step_side_byte_above_one(self):
        proof = STATUSES[0].proof  # presence: tag, key, value, index/size/count, steps
        data = encode_proof(proof)
        side_at = 1 + 2 + len(proof.key) + 2 + len(proof.value) + 18
        assert data[side_at] in (0, 1)
        for side in (2, 3, 0x80, 0xFF):
            with pytest.raises(TLSError, match="audit step side"):
                decode_proof(data[:side_at] + bytes([side]) + data[side_at + 1 :])

    def test_a_path_that_is_not_one_width_decodes_step_by_step(self):
        """A path is read at a fixed stride when every sibling has the width
        of the first and that width is a digest's; one short sibling, or a
        width no tree has, is still a proof (of nothing) decoded byte for byte."""
        proof = STATUSES[0].proof
        assert {len(step.sibling) for step in proof.path} == {20} and len(proof.path) > 3

        def with_path(path):
            return dataclasses.replace(proof, path=tuple(path))

        short = proof.path[2]._replace(sibling=proof.path[2].sibling[:7])
        variants = [
            with_path(proof.path[:2] + (short,) + proof.path[3:]),
            with_path((short,) + proof.path[1:]),
            with_path(step._replace(sibling=step.sibling * 2) for step in proof.path),  # 40 bytes
            with_path(step._replace(sibling=b"") for step in proof.path),
        ]
        for variant in variants:
            data = encode_proof(variant)
            assert decode_proof(data) == (variant, len(data))
            assert decode_proof(data + bytes(41)) == (variant, len(data))

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
    def test_trailing_bytes_after_a_head_or_an_issuance_object(self, junk):
        with pytest.raises(TLSError, match="trailing bytes"):
            decode_freshness_object(encode_freshness(FULL.latest_freshness) + junk)
        with pytest.raises(TLSError, match="trailing bytes"):
            decode_head(encode_head(HEADS[0]) + junk)
        with pytest.raises(TLSError, match="trailing bytes"):
            decode_issuance(encode_issuance(ISSUANCES[1]) + junk)

    @pytest.mark.parametrize(
        "encode, decode, value",
        [(encode_head, decode_head, HEADS[0]), (encode_issuance, decode_issuance, ISSUANCES[0])],
        ids=["head", "issuance"],
    )
    def test_trailing_bytes_inside_a_dissemination_object_root_frame(self, encode, decode, value):
        data = encode(value)
        root = encode_signed_root(value.signed_root)
        at = data.index(root) - 2
        padded = (len(root) + 1).to_bytes(2, "big") + root + b"\x00"
        with pytest.raises(TLSError, match="trailing bytes inside"):
            decode(data[:at] + padded + data[at + 2 + len(root) :])

    def test_trailing_bytes_inside_a_status_field(self):
        status = STATUSES[1]
        data = encode_status_bundle([status])
        proof = encode_proof(status.proof)
        at = data.index(proof) - 2
        padded = (len(proof) + 1).to_bytes(2, "big") + proof + b"\x00"
        grown = data[:at] + padded + data[at + 2 + len(proof) :]
        # Re-frame the one status for its new length; the bundle has one entry.
        grown = grown[:1] + (len(grown) - 3).to_bytes(2, "big") + grown[3:]
        with pytest.raises(TLSError, match="trailing bytes"):
            decode_status_bundle(grown)

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
