"""Binary wire formats for RITM messages.

Two kinds of messages leave a process in RITM and therefore need a byte
encoding:

* the *revocation status* (Eq. 3) an RA piggybacks on TLS traffic towards the
  client — carried in a dedicated ``RITM_STATUS`` TLS record;
* the *dissemination objects* a CA publishes to the CDN for RAs to pull: the
  "freshness" object (the current freshness statement alone, polled every
  Δ), per-batch "issuance" objects with the newly revoked serials and the
  root signed after them, and a small "head" object (dictionary size, signed
  root, current freshness statement) read when a statement links to no root
  the RA holds.

The encodings are simple length-prefixed structures; their sizes are what the
paper's communication-overhead numbers (Fig. 7, §VII-D) are about, so the
codec is also the source of truth for the analysis module.
"""

from __future__ import annotations

import functools
import json
import struct
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple, Union

from repro.crypto.merkle import AbsenceProof, AuditStep, PresenceProof, new_step
from repro.dictionary.authdict import RevocationIssuance
from repro.dictionary.freshness import FreshnessStatement
from repro.dictionary.proofs import RevocationStatus
from repro.dictionary.signed_root import SignedRoot
from repro.dictionary.sync import SyncResponse
from repro.errors import ProofError, TLSError
from repro.pki.serial import SerialNumber


_FIELD_LENGTH = struct.Struct(">H")


def _pack_bytes(data: bytes) -> bytes:
    return _FIELD_LENGTH.pack(len(data)) + data


def _unpack_bytes(buffer: bytes, offset: int) -> Tuple[bytes, int]:
    size = len(buffer)
    start = offset + 2
    if start > size:
        raise TLSError("truncated RITM field")
    end = start + _FIELD_LENGTH.unpack_from(buffer, offset)[0]
    if end > size:
        raise TLSError("truncated RITM field body")
    return buffer[start:end], end


def _unpack_name(buffer: bytes, offset: int) -> Tuple[str, int]:
    """A length-prefixed UTF-8 name; undecodable bytes are a malformed field."""
    raw, offset = _unpack_bytes(buffer, offset)
    try:
        return raw.decode("utf-8"), offset
    except UnicodeDecodeError:
        raise TLSError("RITM name field is not valid UTF-8") from None


def parse_serial(raw: bytes) -> SerialNumber:
    """A serial number off the wire; a bad encoding is a malformed message."""
    try:
        return SerialNumber.from_bytes(raw)
    except ValueError as exc:
        raise TLSError(f"malformed serial number: {exc}") from None


def _wire_once(encoder):
    """Memoise ``encoder`` on the frozen value object it encodes.

    The bytes ride in the instance ``__dict__``, not in a dataclass field, so
    ``==``, ``hash``, ``repr`` and ``dataclasses.replace`` never see them and
    they live exactly as long as the object (a cached proof's encoding is
    evicted and invalidated with the proof).
    """

    @functools.wraps(encoder)
    def encode(value) -> bytes:
        memo = vars(value)
        wire = memo.get("_wire")
        if wire is None:
            wire = memo["_wire"] = encoder(value)
        return wire

    return encode


def _decode_whole(decoder, frame: bytes):
    """Decode a framed sub-object that must fill its frame exactly."""
    value, end = decoder(frame)
    if end != len(frame):
        raise TLSError("trailing bytes inside an RITM field")
    return value


# -- signed roots -------------------------------------------------------------


@_wire_once
def encode_signed_root(root: SignedRoot) -> bytes:
    return b"".join(
        [
            _pack_bytes(root.ca_name.encode("utf-8")),
            _pack_bytes(root.root),
            struct.pack(">QQQ", root.size, root.timestamp, root.chain_length),
            _pack_bytes(root.anchor),
            _pack_bytes(root.signature),
        ]
    )


def decode_signed_root(data: bytes, offset: int = 0) -> Tuple[SignedRoot, int]:
    ca_name, offset = _unpack_name(data, offset)
    root, offset = _unpack_bytes(data, offset)
    if offset + 24 > len(data):
        raise TLSError("truncated signed root")
    size, timestamp, chain_length = struct.unpack_from(">QQQ", data, offset)
    offset += 24
    anchor, offset = _unpack_bytes(data, offset)
    signature, offset = _unpack_bytes(data, offset)
    return (
        SignedRoot(
            ca_name=ca_name,
            root=root,
            size=size,
            anchor=anchor,
            timestamp=timestamp,
            chain_length=chain_length,
            signature=signature,
        ),
        offset,
    )


# -- freshness statements -------------------------------------------------------


@_wire_once
def encode_freshness(statement: FreshnessStatement) -> bytes:
    return b"".join(
        [
            _pack_bytes(statement.ca_name.encode("utf-8")),
            _pack_bytes(statement.value),
            struct.pack(">Q", statement.dictionary_size),
        ]
    )


def decode_freshness(data: bytes, offset: int = 0) -> Tuple[FreshnessStatement, int]:
    ca_name, offset = _unpack_name(data, offset)
    value, offset = _unpack_bytes(data, offset)
    if offset + 8 > len(data):
        raise TLSError("truncated freshness statement")
    (size,) = struct.unpack_from(">Q", data, offset)
    offset += 8
    return (
        FreshnessStatement(ca_name=ca_name, value=value, dictionary_size=size),
        offset,
    )


def decode_freshness_object(data: bytes) -> FreshnessStatement:
    """The per-Δ freshness object a CA publishes beside each head: one
    :func:`encode_freshness`, whole."""
    statement, end = decode_freshness(data)
    if end != len(data):
        raise TLSError("trailing bytes after freshness object")
    return statement


# -- Merkle proofs ----------------------------------------------------------------

_PRESENCE_TAG = 1
_ABSENCE_TAG = 2
_STEP_HEADER = struct.Struct(">BH")  # sibling side, sibling length
_PROOF_SHAPE = struct.Struct(">QQH")  # leaf index, tree size, path length
#: A whole step — side, length, sibling — per sibling width a tree can have
#: (``digest_size`` is 1–32 bytes).
_WHOLE_STEP = [struct.Struct(f">BH{width}s") for width in range(33)]


def _encode_presence(proof: PresenceProof) -> bytes:
    parts = [
        _pack_bytes(proof.key),
        _pack_bytes(proof.value),
        _PROOF_SHAPE.pack(proof.leaf_index, proof.tree_size, len(proof.path)),
    ]
    for step in proof.path:
        parts.append(struct.pack(">B", int(step.sibling_is_left)))
        parts.append(_pack_bytes(step.sibling))
    return b"".join(parts)


def _uniform_steps(data: bytes, offset: int, count: int) -> Optional[List[AuditStep]]:
    """``count`` canonical steps of one sibling width starting at ``offset``, or ``None``.

    Every digest of one tree has the same width, so an honest path is a
    fixed-stride array and is read as one.  Anything else — mixed widths, a
    side byte above 1, a short buffer — is left to the step-by-step walk,
    which decodes what is decodable and names what is wrong with the rest.
    """
    if not count or offset + _STEP_HEADER.size > len(data):
        return None
    width = _STEP_HEADER.unpack_from(data, offset)[1]
    if width >= len(_WHOLE_STEP):
        return None
    step = _WHOLE_STEP[width]
    end = offset + count * step.size
    if end > len(data):
        return None
    steps = [
        new_step(AuditStep, (sibling, side == 1))
        for side, length, sibling in step.iter_unpack(data[offset:end])
        if length == width and side <= 1
    ]
    return steps if len(steps) == count else None


def _decode_presence(data: bytes, offset: int) -> Tuple[PresenceProof, int]:
    key, offset = _unpack_bytes(data, offset)
    value, offset = _unpack_bytes(data, offset)
    size = len(data)
    if offset + _PROOF_SHAPE.size > size:
        raise TLSError("truncated presence proof")
    leaf_index, tree_size, path_len = _PROOF_SHAPE.unpack_from(data, offset)
    offset += _PROOF_SHAPE.size
    steps = _uniform_steps(data, offset, path_len)
    if steps is not None:
        offset += path_len * (_STEP_HEADER.size + len(steps[0].sibling))
    else:
        steps = []
        for _ in range(path_len):
            if offset + 3 > size:
                raise TLSError("truncated audit step")
            side, length = _STEP_HEADER.unpack_from(data, offset)
            offset += 3
            if side > 1:
                # ``bool(side)`` would make every non-zero byte a second
                # accepted encoding of the same step.
                raise TLSError("non-canonical audit step side")
            if offset + length > size:
                raise TLSError("truncated audit step sibling")
            steps.append(AuditStep(data[offset : offset + length], side == 1))
            offset += length
    return (
        PresenceProof(
            key=key,
            value=value,
            leaf_index=leaf_index,
            tree_size=tree_size,
            path=tuple(steps),
        ),
        offset,
    )


@_wire_once
def encode_proof(proof: Union[PresenceProof, AbsenceProof]) -> bytes:
    if isinstance(proof, PresenceProof):
        return struct.pack(">B", _PRESENCE_TAG) + _encode_presence(proof)
    if isinstance(proof, AbsenceProof):
        parts = [struct.pack(">B", _ABSENCE_TAG), _pack_bytes(proof.key)]
        parts.append(struct.pack(">Q", proof.tree_size))
        flags = (1 if proof.left is not None else 0) | (2 if proof.right is not None else 0)
        parts.append(struct.pack(">B", flags))
        if proof.left is not None:
            parts.append(_encode_presence(proof.left))
        if proof.right is not None:
            parts.append(_encode_presence(proof.right))
        return b"".join(parts)
    raise ProofError(f"cannot encode proof of type {type(proof).__name__}")


def decode_proof(data: bytes, offset: int = 0) -> Tuple[Union[PresenceProof, AbsenceProof], int]:
    if offset + 1 > len(data):
        raise TLSError("truncated proof tag")
    tag = data[offset]
    offset += 1
    if tag == _PRESENCE_TAG:
        return _decode_presence(data, offset)
    if tag == _ABSENCE_TAG:
        key, offset = _unpack_bytes(data, offset)
        if offset + 9 > len(data):
            raise TLSError("truncated absence proof header")
        (tree_size,) = struct.unpack_from(">Q", data, offset)
        offset += 8
        flags = data[offset]
        offset += 1
        if flags > 3:
            raise TLSError("non-canonical absence proof flags")
        left: Optional[PresenceProof] = None
        right: Optional[PresenceProof] = None
        if flags & 1:
            left, offset = _decode_presence(data, offset)
        if flags & 2:
            right, offset = _decode_presence(data, offset)
        return AbsenceProof(key=key, tree_size=tree_size, left=left, right=right), offset
    raise TLSError(f"unknown proof tag {tag}")


# -- revocation status (Eq. 3) ----------------------------------------------------


def encode_status(status: RevocationStatus) -> bytes:
    """Serialize a revocation status for a ``RITM_STATUS`` TLS record.

    The freshness statement is the last field, :func:`freshness_field`: the
    four before it are fixed by the signed root and the serial, so an RA
    that keeps them re-encodes only this one as the hash chain advances.
    """
    return b"".join(
        [
            _pack_bytes(status.ca_name.encode("utf-8")),
            _pack_bytes(status.serial.to_bytes()),
            _pack_bytes(encode_proof(status.proof)),
            _pack_bytes(encode_signed_root(status.signed_root)),
            freshness_field(status.freshness),
        ]
    )


def freshness_field(freshness: FreshnessStatement) -> bytes:
    """The last field of :func:`encode_status`: the framed freshness statement."""
    return _pack_bytes(encode_freshness(freshness))


def decode_status(data: bytes, offset: int = 0) -> Tuple[RevocationStatus, int]:
    ca_name, offset = _unpack_name(data, offset)
    serial_bytes, offset = _unpack_bytes(data, offset)
    proof_bytes, offset = _unpack_bytes(data, offset)
    root_bytes, offset = _unpack_bytes(data, offset)
    freshness_bytes, offset = _unpack_bytes(data, offset)
    return (
        RevocationStatus(
            ca_name=ca_name,
            serial=parse_serial(serial_bytes),
            proof=_decode_whole(decode_proof, proof_bytes),
            signed_root=_decode_whole(decode_signed_root, root_bytes),
            freshness=_decode_whole(decode_freshness, freshness_bytes),
        ),
        offset,
    )


def encode_status_bundle(statuses: List[RevocationStatus]) -> bytes:
    """Several statuses in one record (certificate-chain proving, §VIII)."""
    return frame_status_bundle([encode_status(status) for status in statuses])


def frame_status_bundle(encoded: List[bytes]) -> bytes:
    """The bundle of statuses already encoded by :func:`encode_status`."""
    parts = [struct.pack(">B", len(encoded))]
    for status in encoded:
        parts.append(_pack_bytes(status))
    return b"".join(parts)


def decode_status_bundle(data: bytes) -> List[RevocationStatus]:
    if not data:
        raise TLSError("empty RITM status record")
    count = data[0]
    offset = 1
    statuses: List[RevocationStatus] = []
    for _ in range(count):
        status_bytes, offset = _unpack_bytes(data, offset)
        statuses.append(_decode_whole(decode_status, status_bytes))
    if offset != len(data):
        raise TLSError("trailing bytes after RITM status bundle")
    return statuses


# -- dissemination objects -----------------------------------------------------------


@dataclass(frozen=True)
class DictionaryHead:
    """The small per-dictionary object an RA reads when it holds no root yet,
    or when the polled freshness statement links to no root it holds.

    Contains everything needed to bring the replica current: the dictionary
    size, the latest signed root, and the latest freshness statement.
    ``sequence`` is the CA's per-dictionary publication counter;
    it is *not* covered by the root signature (a CDN could not update it
    anyway) but lets RAs detect that an attacker is re-presenting a
    recorded head from many publications ago (see
    :class:`repro.ritm.dissemination.RADisseminationClient`).
    """

    ca_name: str
    size: int
    signed_root: SignedRoot
    freshness: FreshnessStatement
    sequence: int = 0


def encode_head(head: DictionaryHead) -> bytes:
    return b"".join(
        [
            _pack_bytes(head.ca_name.encode("utf-8")),
            struct.pack(">Q", head.size),
            _pack_bytes(encode_signed_root(head.signed_root)),
            _pack_bytes(encode_freshness(head.freshness)),
            struct.pack(">Q", head.sequence),
        ]
    )


def decode_head(data: bytes) -> DictionaryHead:
    offset = 0
    ca_name, offset = _unpack_name(data, offset)
    if offset + 8 > len(data):
        raise TLSError("truncated dictionary head")
    (size,) = struct.unpack_from(">Q", data, offset)
    offset += 8
    root_bytes, offset = _unpack_bytes(data, offset)
    freshness_bytes, offset = _unpack_bytes(data, offset)
    if offset + 8 > len(data):
        raise TLSError("truncated dictionary head sequence")
    if offset + 8 != len(data):
        raise TLSError("trailing bytes after dictionary head")
    (sequence,) = struct.unpack_from(">Q", data, offset)
    return DictionaryHead(
        ca_name=ca_name,
        size=size,
        signed_root=_decode_whole(decode_signed_root, root_bytes),
        freshness=_decode_whole(decode_freshness, freshness_bytes),
        sequence=sequence,
    )


#: Serials one issuance object can carry (its count field is 16 bits).
MAX_ISSUANCE_SERIALS = 0xFFFF


@_wire_once
def encode_issuance(issuance: RevocationIssuance) -> bytes:
    if len(issuance.serials) > MAX_ISSUANCE_SERIALS:
        raise TLSError(
            f"an issuance object carries at most {MAX_ISSUANCE_SERIALS} serials, "
            f"got {len(issuance.serials)}"
        )
    parts = [
        _pack_bytes(issuance.ca_name.encode("utf-8")),
        struct.pack(">QH", issuance.first_number, len(issuance.serials)),
    ]
    for serial in issuance.serials:
        parts.append(_pack_bytes(serial.to_bytes()))
    parts.append(_pack_bytes(encode_signed_root(issuance.signed_root)))
    return b"".join(parts)


@dataclass(frozen=True)
class ShardIndex:
    """The per-CA shard discovery object of sharded mode (§VIII).

    RAs pull this small object every Δ to learn which expiry shards the CA
    currently maintains (``live``), then pull one freshness object per live
    shard.
    Replicas of passed windows are pruned by the RA's own clock, so the index
    names no retired ones.  ``width_seconds`` lets an RA map a certificate
    expiry to a shard index without further round trips.
    """

    ca_name: str
    width_seconds: int
    live: Tuple[int, ...]
    #: Per-CA publication counter (unauthenticated, replay detection only).
    sequence: int = 0


def encode_shard_index(index: ShardIndex) -> bytes:
    """Serialize a shard index for publication on the CDN."""
    return json.dumps(
        {
            "ca": index.ca_name,
            "width_seconds": index.width_seconds,
            "live": list(index.live),
            "sequence": index.sequence,
        },
        sort_keys=True,
    ).encode("utf-8")


def decode_shard_index(data: bytes) -> ShardIndex:
    """Parse a shard index object, rejecting malformed payloads."""
    try:
        payload = json.loads(data.decode("utf-8"))
        width_seconds = int(payload["width_seconds"])
        if width_seconds <= 0:
            # The index is unauthenticated; a forged zero width must not
            # reach ShardKey arithmetic (or overwrite the agent's width).
            raise ValueError(f"shard width must be positive, got {width_seconds}")
        sequence = int(payload["sequence"])
        if sequence < 0:
            raise ValueError(f"shard index sequence must be non-negative, got {sequence}")
        return ShardIndex(
            ca_name=payload["ca"],
            width_seconds=width_seconds,
            live=tuple(int(i) for i in payload["live"]),
            sequence=sequence,
        )
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise TLSError(f"malformed shard index object: {exc}") from None


# -- key-rotation announcements ------------------------------------------------------


@dataclass(frozen=True)
class KeyAnnouncement:
    """One link of a CA's key-rotation chain, published on the CDN.

    Epoch 0 announces the CA's genesis key and is validated against the
    out-of-band trust anchor RAs are configured with; every later epoch is
    signed by the key of the *previous* epoch, so the full chain extends
    trust from the anchor to the current key without any further
    out-of-band channel.  ``overlap_seconds`` is the grace window granted to
    the key this announcement retires.
    """

    ca_name: str
    key_epoch: int
    public_key_bytes: bytes
    activated_at: int
    overlap_seconds: int
    signature: bytes = b""

    def payload(self) -> bytes:
        """The byte string covered by the previous key's signature."""
        name = self.ca_name.encode("utf-8")
        return b"".join(
            [
                b"ritm-key-announcement:",
                struct.pack(">H", len(name)),
                name,
                struct.pack(">Q", self.key_epoch),
                _pack_bytes(self.public_key_bytes),
                struct.pack(">QQ", self.activated_at, self.overlap_seconds),
            ]
        )


def encode_key_announcements(announcements: Tuple[KeyAnnouncement, ...]) -> bytes:
    """Serialize a CA's full announcement chain for CDN publication."""
    return json.dumps(
        [
            {
                "ca": announcement.ca_name,
                "epoch": announcement.key_epoch,
                "public_key": announcement.public_key_bytes.hex(),
                "activated_at": announcement.activated_at,
                "overlap_seconds": announcement.overlap_seconds,
                "signature": announcement.signature.hex(),
            }
            for announcement in announcements
        ],
        sort_keys=True,
    ).encode("utf-8")


def _u64(value) -> int:
    """A JSON integer field that :meth:`KeyAnnouncement.payload` packs as u64."""
    value = int(value)
    if not 0 <= value < 1 << 64:
        raise ValueError(f"announcement field {value} does not fit in 64 bits")
    return value


def _field_bytes(hex_text: str) -> bytes:
    """A hex field that :func:`_pack_bytes` frames with a u16 length."""
    raw = bytes.fromhex(hex_text)
    if len(raw) > 0xFFFF:
        raise ValueError(f"announcement field of {len(raw)} bytes exceeds 65535")
    return raw


def decode_key_announcements(data: bytes) -> Tuple[KeyAnnouncement, ...]:
    """Parse an announcement chain, rejecting malformed payloads.

    Every announcement returned has a :meth:`KeyAnnouncement.payload`: its
    name is a string of at most 65535 UTF-8 bytes, its integers fit in 64
    unsigned bits and its key and signature in 65535 bytes each.
    """
    try:
        payload = json.loads(data.decode("utf-8"))
        if not isinstance(payload, list):
            raise ValueError("announcement chain must be a list")
        announcements = []
        for entry in payload:
            ca_name = entry["ca"]
            if not isinstance(ca_name, str) or len(ca_name.encode("utf-8")) > 0xFFFF:
                raise ValueError("announcement CA name must be a short string")
            announcements.append(
                KeyAnnouncement(
                    ca_name=ca_name,
                    key_epoch=_u64(entry["epoch"]),
                    public_key_bytes=_field_bytes(entry["public_key"]),
                    activated_at=_u64(entry["activated_at"]),
                    overlap_seconds=_u64(entry["overlap_seconds"]),
                    signature=_field_bytes(entry["signature"]),
                )
            )
        return tuple(announcements)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise TLSError(f"malformed key announcement chain: {exc}") from None


def _decode_issuance_at(data: bytes, offset: int) -> Tuple[RevocationIssuance, int]:
    """One issuance object starting at ``offset``; returns it and where it ends."""
    ca_name, offset = _unpack_name(data, offset)
    if offset + 10 > len(data):
        raise TLSError("truncated issuance header")
    first_number, count = struct.unpack_from(">QH", data, offset)
    offset += 10
    serials = []
    for _ in range(count):
        serial_bytes, offset = _unpack_bytes(data, offset)
        serials.append(parse_serial(serial_bytes))
    root_bytes, offset = _unpack_bytes(data, offset)
    issuance = RevocationIssuance(
        ca_name=ca_name,
        serials=tuple(serials),
        first_number=first_number,
        signed_root=_decode_whole(decode_signed_root, root_bytes),
    )
    return issuance, offset


def decode_issuance(data: bytes) -> RevocationIssuance:
    issuance, offset = _decode_issuance_at(data, 0)
    if offset != len(data):
        raise TLSError("trailing bytes after issuance object")
    vars(issuance)["_wire"] = bytes(data)  # canonical: the one encoding
    return issuance


def encode_sync_response(response: SyncResponse) -> bytes:
    """A sync response on the wire: what :meth:`SyncResponse.as_issuance`
    says it is — consecutive issuance objects of at most
    :data:`MAX_ISSUANCE_SERIALS` serials (one, possibly empty, carries the
    root) — then the freshness statement, if any.

    Read back by :func:`decode_sync_response`.  Two things use the bytes:
    the RA's resync accounting (their length is what a resync downloads)
    and RA checkpoints (:mod:`repro.ritm.persistence` stores each replica
    as its sync response from position 0).
    """
    whole = response.as_issuance()
    parts = []
    for start in range(0, max(len(whole.serials), 1), MAX_ISSUANCE_SERIALS):
        serials = whole.serials[start : start + MAX_ISSUANCE_SERIALS]
        chunk = replace(whole, serials=serials, first_number=whole.first_number + start)
        parts.append(encode_issuance(chunk))
    if response.freshness is not None:
        parts.append(encode_freshness(response.freshness))
    return b"".join(parts)


def decode_sync_response(data: bytes) -> SyncResponse:
    """Parse what :func:`encode_sync_response` wrote, and nothing else.

    The chunks are not counted on the wire: every one carries the same
    signed root, and they end where that root's ``size`` says the history
    does — the chunk whose last serial is number ``size`` is the last.
    Every earlier chunk must be full and the chunks must be consecutive
    pieces of one dictionary's history under one root, so no two byte
    strings decode to the same response.  Whatever follows the last chunk
    is the freshness statement, whole.
    """
    first, offset = _decode_issuance_at(data, 0)
    size = first.signed_root.size
    serials = list(first.serials)
    chunk = first
    held = first.first_number + len(serials) - 1  # number of the last serial read
    while held != size:
        if len(chunk.serials) != MAX_ISSUANCE_SERIALS or held > size:
            raise TLSError("sync response chunks do not end at the signed dictionary size")
        chunk, offset = _decode_issuance_at(data, offset)
        if (chunk.ca_name, chunk.first_number, chunk.signed_root) != (
            first.ca_name,
            held + 1,
            first.signed_root,
        ):
            raise TLSError("sync response chunks are not consecutive pieces of one response")
        serials.extend(chunk.serials)
        held += len(chunk.serials)
    freshness = None
    if offset != len(data):
        freshness = _decode_whole(decode_freshness, data[offset:])
    return SyncResponse(
        ca_name=first.ca_name,
        first_number=first.first_number,
        serials=tuple(serials),
        signed_root=first.signed_root,
        freshness=freshness,
    )
