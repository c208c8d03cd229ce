"""Binary wire formats for RITM messages.

Two kinds of messages leave a process in RITM and therefore need a byte
encoding:

* the *revocation status* (Eq. 3) an RA piggybacks on TLS traffic towards the
  client — carried in a dedicated ``RITM_STATUS`` TLS record;
* the *dissemination objects* a CA publishes to the CDN for RAs to pull: the
  current freshness statement (what the per-Δ object holds between
  batches), one *batch object* per revocation batch — the root signed
  after the batch and its serials, which is also the per-Δ object in the
  batch's Δ (:mod:`repro.ritm.replication`) — and a small "head" object
  (signed root, current freshness statement) read when a statement links
  to no root the RA holds.

The encodings are simple length-prefixed structures; their sizes are what the
paper's communication-overhead numbers (Fig. 7, §VII-D) are about, so the
codec is also the source of truth for the analysis module.  Each fact is
sent once, and only what a verifier cannot compute (RFC 6962 §2.1.1): a
freshness statement is its hash-chain value, as wide as the anchor of the
root it follows and so unframed; a status is proof ‖ signed root ‖ value
(its serial is the proof's key, its CA the root's); a head is signed root ‖
value; a batch object is signed root ‖ serials (the statement served
right after it is its root's anchor, period 0 of Eq. 2, so it is not
sent), and the per-Δ object between batches is the bare value (at most 32
bytes, so shorter than any batch object).  Every CA or dictionary
name field is a u16 length and at most :data:`MAX_NAME_BYTES` UTF-8 bytes:
the encoders refuse a longer name and the decoders reject one before
decoding it.  Every encoder is total: a value with no wire form (a name
that is not UTF-8, an integer outside its field, a byte field over 65,535
bytes) is a :class:`TLSError`.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from typing import List, Tuple, Union

from repro.crypto.hashing import FULL_DIGEST_SIZE
from repro.crypto.merkle import AbsenceProof, PresenceProof, expected_sides
from repro.dictionary.authdict import RevocationIssuance
from repro.dictionary.freshness import FreshnessStatement
from repro.dictionary.proofs import RevocationStatus
from repro.dictionary.signed_root import SignedRoot
from repro.dictionary.sync import SyncResponse
from repro.errors import ProofError, TLSError
from repro.pki.serial import MAX_SERIAL_BYTES, SerialNumber


_FIELD_LENGTH = struct.Struct(">H")


def _pack_bytes(data: bytes) -> bytes:
    return _FIELD_LENGTH.pack(len(data)) + data


def _total(encoder):
    """``encoder``, raising :class:`TLSError` for a value with no wire form
    where ``struct`` or the UTF-8 codec would raise their own errors."""

    @functools.wraps(encoder)
    def encode(value):
        try:
            return encoder(value)
        except (struct.error, UnicodeEncodeError) as exc:
            raise TLSError(f"{encoder.__name__}: a field has no wire form: {exc}") from None

    return encode


def _unpack_bytes(buffer: bytes, offset: int) -> Tuple[bytes, int]:
    size = len(buffer)
    start = offset + 2
    if start > size:
        raise TLSError("truncated RITM field")
    end = start + _FIELD_LENGTH.unpack_from(buffer, offset)[0]
    if end > size:
        raise TLSError("truncated RITM field body")
    return buffer[start:end], end


#: Bytes a RITM name field (a CA or dictionary name) may hold; its u16
#: length prefix then always starts with ``0x00``.
MAX_NAME_BYTES = 255


def _pack_name(name: str) -> bytes:
    """A name field: u16 length + UTF-8, at most :data:`MAX_NAME_BYTES`."""
    try:
        raw = name.encode("utf-8")
    except UnicodeEncodeError:
        raise TLSError(f"RITM name {name!r} has no UTF-8 encoding") from None
    if len(raw) > MAX_NAME_BYTES:
        raise TLSError(
            f"a RITM name holds at most {MAX_NAME_BYTES} UTF-8 bytes, got {len(raw)}"
        )
    return _pack_bytes(raw)


def _unpack_name(buffer: bytes, offset: int) -> Tuple[str, int]:
    """A length-prefixed UTF-8 name; one longer than :data:`MAX_NAME_BYTES`
    (rejected before it is decoded) or undecodable is a malformed field."""
    if offset < len(buffer) and buffer[offset]:  # a u16 length of 256 or more
        raise TLSError(f"RITM name field is longer than {MAX_NAME_BYTES} bytes")
    raw, offset = _unpack_bytes(buffer, offset)
    try:
        return raw.decode("utf-8"), offset
    except UnicodeDecodeError:
        raise TLSError("RITM name field is not valid UTF-8") from None


def _is_serial(raw: bytes) -> bool:
    """Whether ``raw`` is a serial number's encoding: 1–20 bytes, not all
    zero (what :meth:`SerialNumber.from_bytes` accepts)."""
    return 1 <= len(raw) <= MAX_SERIAL_BYTES and any(raw)


def _wire_once(encoder):
    """Memoise ``encoder`` (made :func:`_total`) on the frozen value object
    it encodes.

    The bytes ride in the instance ``__dict__``, not in a dataclass field, so
    ``==``, ``hash``, ``repr`` and ``dataclasses.replace`` never see them and
    they live exactly as long as the object (a cached proof's encoding is
    evicted and invalidated with the proof).
    """
    total = _total(encoder)

    @functools.wraps(encoder)
    def encode(value) -> bytes:
        memo = vars(value)
        wire = memo.get("_wire")
        if wire is None:
            wire = memo["_wire"] = total(value)
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
    """Serialize a signed root; the bytes are memoized on it.

    Layout: CA name (u16 length + UTF-8), root digest (u16 length + bytes),
    dictionary size, timestamp and hash-chain length (u64 each), chain anchor
    (u16 length + bytes), signature (u16 length + bytes).  Each byte field
    holds at most 65,535 bytes and each integer must fit 64 unsigned bits.
    """
    return b"".join(
        [
            _pack_name(root.ca_name),
            _pack_bytes(root.root),
            struct.pack(">QQQ", root.size, root.timestamp, root.chain_length),
            _pack_bytes(root.anchor),
            _pack_bytes(root.signature),
        ]
    )


def decode_signed_root(data: bytes, offset: int = 0) -> Tuple[SignedRoot, int]:
    """Parse one :func:`encode_signed_root` layout at ``offset``; return the
    root and where it ends (bytes after it are the caller's).

    Raises :class:`TLSError` on a truncated field or a CA name that is not
    UTF-8.  Checks no signature and no digest width: that is the verifier's.
    """
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


def encode_freshness(statement: FreshnessStatement) -> bytes:
    """Serialize a freshness statement: its hash-chain value, 1–32 bytes,
    and nothing else (Eq. 2).

    The value is as wide as the anchor of the root it links to, so every
    object that carries a statement after a signed root sends no length
    (:func:`_statement_under`); the per-Δ object between batches is this
    value alone.
    """
    value = statement.value
    if not 1 <= len(value) <= FULL_DIGEST_SIZE:
        raise TLSError(f"a freshness value of {len(value)} bytes is no chain link (1–32)")
    return value


def decode_freshness(data: bytes, offset: int, width: int) -> Tuple[FreshnessStatement, int]:
    """Parse one :func:`encode_freshness` value of ``width`` bytes at
    ``offset``; return the statement and where it ends.  Raises
    :class:`TLSError` for a width outside 1–32 or fewer bytes than it;
    whether the statement links to a root is the verifier's check."""
    if not 1 <= width <= FULL_DIGEST_SIZE:
        raise TLSError(f"a freshness value of {width} bytes is no chain link (1–32)")
    end = offset + width
    if end > len(data):
        raise TLSError("truncated freshness statement")
    return FreshnessStatement(data[offset:end]), end


def _statement_under(root: SignedRoot, statement: FreshnessStatement) -> bytes:
    """:func:`encode_freshness` of a statement sent right after ``root``,
    whose reader takes the value's width from the root's anchor."""
    value = encode_freshness(statement)
    if len(value) != len(root.anchor):
        raise TLSError(
            f"a freshness value of {len(value)} bytes under an anchor of {len(root.anchor)}"
        )
    return value


# -- Merkle proofs ----------------------------------------------------------------
#
# A proof carries only what a verifier cannot compute (the audit paths of RFC
# 6962 §2.1.1 carry siblings alone).  How many siblings a path has and the side
# of each follow from (leaf index, tree size) — :func:`expected_sides`, the
# function ``PresenceProof.verify`` holds every path to — so neither is sent.
# Every digest of one tree has the same width, sent once.

_PRESENCE_TAG = 1
_ABSENCE_TAG = 2
_U64 = struct.Struct(">Q")
_POSITION = struct.Struct(">QQ")  # leaf index, tree size
_ABSENCE_HEAD = struct.Struct(">QB")  # tree size, neighbour flags
_LEFT, _RIGHT = 1, 2  # neighbour flags


def _sibling_width(*paths: Tuple[bytes, ...]) -> int:
    """The one sibling width of ``paths``: 0 when they hold no sibling."""
    widths = {len(sibling) for path in paths for sibling in path}
    if not widths:
        return 0
    if len(widths) > 1:
        raise ProofError("an audit path's siblings are not all one digest width")
    (width,) = widths
    if not 0 < width <= FULL_DIGEST_SIZE:
        raise ProofError(f"a sibling of {width} bytes is no digest a tree has (1–32)")
    return width


def _check_shape(proof: PresenceProof) -> None:
    """Raise :class:`ProofError` unless the proof's position lies in its tree
    and its path holds one sibling per side of that position, as
    ``PresenceProof.verify`` requires: nothing else is sent."""
    if not 0 <= proof.leaf_index < proof.tree_size < 1 << 64:
        raise ProofError(
            f"leaf index {proof.leaf_index} lies outside a tree of {proof.tree_size} leaves"
        )
    if len(proof.path) != len(expected_sides(proof.leaf_index, proof.tree_size)):
        raise ProofError("audit path length does not match its leaf index and tree size")


def _leaf(proof: PresenceProof) -> bytes:
    return _pack_bytes(proof.key) + _pack_bytes(proof.value)


def _siblings(path: Tuple[bytes, ...]) -> bytes:
    return b"".join(path)


def _encode_presence(proof: PresenceProof) -> bytes:
    _check_shape(proof)
    return b"".join(
        [
            bytes([_PRESENCE_TAG]),
            _leaf(proof),
            _POSITION.pack(proof.leaf_index, proof.tree_size),
            bytes([_sibling_width(proof.path)]),
            _siblings(proof.path),
        ]
    )


def _encode_absence(proof: AbsenceProof) -> bytes:
    left, right, size = proof.left, proof.right, proof.tree_size
    flags = (_LEFT if left is not None else 0) | (_RIGHT if right is not None else 0)
    head = [bytes([_ABSENCE_TAG]), _pack_bytes(proof.key)]
    if not flags:
        if size != 0:
            raise ProofError(f"an absence proof in a tree of {size} leaves names no neighbour")
        return b"".join([*head, _ABSENCE_HEAD.pack(0, 0)])
    for neighbour in (left, right):
        if neighbour is not None:
            if neighbour.tree_size != size:
                raise ProofError("absence proof neighbours disagree on the tree size")
            _check_shape(neighbour)
    head.append(_ABSENCE_HEAD.pack(size, flags))
    if flags != _LEFT | _RIGHT:
        lone = left if right is None else right
        if lone.leaf_index != (size - 1 if right is None else 0):
            raise ProofError("a lone neighbour must be the last leaf (left) or leaf 0 (right)")
        width = _sibling_width(lone.path)
        return b"".join([*head, bytes([width]), _leaf(lone), _siblings(lone.path)])
    if right.leaf_index != left.leaf_index + 1:
        raise ProofError("absence proof neighbours are not adjacent leaves")
    # The leaves become siblings at the fork, the lowest set bit of the right
    # index: above it both paths are the same siblings, sent once, as the end
    # of the right path.
    fork = (right.leaf_index & -right.leaf_index).bit_length()
    above = left.path[fork:]
    if right.path[len(right.path) - len(above) :] != above:
        raise ProofError("absence proof neighbours disagree above their fork")
    return b"".join(
        [
            *head,
            _U64.pack(left.leaf_index),
            bytes([_sibling_width(left.path, right.path)]),
            _leaf(left),
            _leaf(right),
            _siblings(left.path[:fork]),
            _siblings(right.path),
        ]
    )


@_wire_once
def encode_proof(proof: Union[PresenceProof, AbsenceProof]) -> bytes:
    """Serialize a Merkle proof; the bytes are memoized on the proof.

    Presence (tag 1): key and value (each u16 length + bytes), leaf index
    (u64), tree size (u64), sibling width (u8), then the path's siblings back
    to back, leaf first.  Absence (tag 2): key (u16 length + bytes), tree
    size (u64), flags (u8: 1 = left neighbour, 2 = right neighbour), and for
    a tree of no leaves nothing more.  Otherwise the left neighbour's index
    (u64) only when both neighbours are present — the right one's is that
    plus one, a lone left neighbour is leaf ``size - 1`` and a lone right one
    leaf 0 — then the sibling width (u8), each neighbour's key and value,
    and the siblings: a lone neighbour's whole path; for two, the left
    path's siblings up to and including the fork level, the right path's
    likewise, then the siblings above the fork they share, once.  Path
    lengths and sides are :func:`repro.crypto.merkle.expected_sides` of
    (index, size) and are not sent.

    Raises :class:`ProofError` for a proof its shape alone would fail: a
    leaf index outside ``[0, size)``, a size of 2⁶⁴ or more, a path with
    more or fewer siblings than its position has sides, siblings of mixed
    widths or a width outside 1–32, neighbours that disagree on the size,
    are not adjacent, are not the first / last leaf when alone, or whose
    paths differ above their fork; an absence proof in a non-empty tree
    with no neighbour, or of an empty one with any.  A key or value over
    65,535 bytes does not fit its length field.
    """
    if isinstance(proof, PresenceProof):
        return _encode_presence(proof)
    if isinstance(proof, AbsenceProof):
        return _encode_absence(proof)
    raise ProofError(f"cannot encode proof of type {type(proof).__name__}")


def _read_leaf(data: bytes, offset: int) -> Tuple[bytes, bytes, int]:
    key, offset = _unpack_bytes(data, offset)
    value, offset = _unpack_bytes(data, offset)
    return key, value, offset


def _read_width(data: bytes, offset: int, digests: int) -> int:
    """The sibling width byte at ``offset``: 0 exactly when no digest follows."""
    if offset >= len(data):
        raise TLSError("truncated proof sibling width")
    width = data[offset]
    if digests and not 0 < width <= FULL_DIGEST_SIZE:
        raise TLSError(f"proof sibling width {width} is no digest width (1–32)")
    if not digests and width:
        raise TLSError("proof sibling width must be 0 on a proof with no siblings")
    return width


def _read_steps(data: bytes, offset: int, width: int, count: int) -> Tuple[Tuple[bytes, ...], int]:
    """``count`` siblings of ``width`` bytes at ``offset``."""
    if not count:  # ``width`` is 0 too
        return (), offset
    end = offset + width * count
    if end > len(data):
        raise TLSError("truncated audit path")
    return tuple([data[at : at + width] for at in range(offset, end, width)]), end


def _decode_presence(data: bytes, offset: int) -> Tuple[PresenceProof, int]:
    key, value, offset = _read_leaf(data, offset)
    if offset + _POSITION.size > len(data):
        raise TLSError("truncated presence proof")
    index, size = _POSITION.unpack_from(data, offset)
    offset += _POSITION.size
    if index >= size:
        raise TLSError(f"leaf index {index} lies outside a tree of {size} leaves")
    count = len(expected_sides(index, size))
    width = _read_width(data, offset, count)
    path, offset = _read_steps(data, offset + 1, width, count)
    return PresenceProof(key, value, index, size, path), offset


def _decode_absence(data: bytes, offset: int) -> Tuple[AbsenceProof, int]:
    key, offset = _unpack_bytes(data, offset)
    if offset + _ABSENCE_HEAD.size > len(data):
        raise TLSError("truncated absence proof header")
    size, flags = _ABSENCE_HEAD.unpack_from(data, offset)
    offset += _ABSENCE_HEAD.size
    if flags > _LEFT | _RIGHT:
        raise TLSError("non-canonical absence proof flags")
    if (size == 0) != (flags == 0):
        raise TLSError(f"absence proof flags {flags} do not fit a tree of {size} leaves")
    if not flags:
        return AbsenceProof(key=key, tree_size=0), offset
    if flags != _LEFT | _RIGHT:
        # One neighbour, whose position the flag implies: no index field.
        index = size - 1 if flags == _LEFT else 0
        count = len(expected_sides(index, size))
        width = _read_width(data, offset, count)
        leaf_key, leaf_value, offset = _read_leaf(data, offset + 1)
        path, offset = _read_steps(data, offset, width, count)
        neighbour = PresenceProof(leaf_key, leaf_value, index, size, path)
        if flags == _LEFT:
            return AbsenceProof(key=key, tree_size=size, left=neighbour), offset
        return AbsenceProof(key=key, tree_size=size, right=neighbour), offset
    if offset + _U64.size > len(data):
        raise TLSError("truncated absence proof neighbour index")
    (index,) = _U64.unpack_from(data, offset)
    if index >= size - 1:
        raise TLSError(f"neighbours {index} and {index + 1} lie outside a tree of {size} leaves")
    left_count = len(expected_sides(index, size))
    right_count = len(expected_sides(index + 1, size))
    # The left path's first ``fork`` siblings and the right path's first
    # ``below`` are their own; the rest of either is the siblings they share.
    fork = ((index + 1) & -(index + 1)).bit_length()
    below = right_count - left_count + fork
    width = _read_width(data, offset + _U64.size, left_count)
    left_key, left_value, offset = _read_leaf(data, offset + _U64.size + 1)
    right_key, right_value, offset = _read_leaf(data, offset)
    steps, offset = _read_steps(data, offset, width, fork + right_count)
    left_path, right_path = steps[:fork] + steps[fork + below :], steps[fork:]
    return (
        AbsenceProof(
            key=key,
            tree_size=size,
            left=PresenceProof(left_key, left_value, index, size, left_path),
            right=PresenceProof(right_key, right_value, index + 1, size, right_path),
        ),
        offset,
    )


def decode_proof(data: bytes, offset: int = 0) -> Tuple[Union[PresenceProof, AbsenceProof], int]:
    """Parse one :func:`encode_proof` encoding at ``offset``; return it and
    where it ends (bytes after it are the caller's).

    Rebuilds exactly the proof the store's prover makes: each path is its
    sibling digests, as many as :func:`~repro.crypto.merkle.expected_sides`
    gives the position sides, and for two neighbours the siblings above
    their fork are the *same* ``bytes`` objects on both paths.  Raises
    :class:`TLSError` on a truncated field, an unknown tag, flags above 3,
    flags that do not fit the tree size (none for 0 leaves, some
    otherwise), a leaf index outside the tree (two neighbours: the left
    index must be below ``size - 1``), and a sibling width that is 0 when
    siblings follow, above 32, or not 0 when none do.  So every byte string
    it accepts is the one :func:`encode_proof` writes for what it returns.
    """
    if offset >= len(data):
        raise TLSError("truncated proof tag")
    tag = data[offset]
    if tag == _PRESENCE_TAG:
        return _decode_presence(data, offset + 1)
    if tag == _ABSENCE_TAG:
        return _decode_absence(data, offset + 1)
    raise TLSError(f"unknown proof tag {tag}")


# -- revocation status (Eq. 3) ----------------------------------------------------


def encode_status(status: RevocationStatus) -> bytes:
    """Serialize a revocation status for a ``RITM_STATUS`` TLS record.

    Layout: proof (:func:`encode_proof`), signed root
    (:func:`encode_signed_root`), freshness value (:func:`encode_freshness`,
    as wide as the root's anchor).  Each part ends where its own layout
    says, so none is framed; the serial is the proof's key and the CA is the
    root's, so neither is sent again.  The statement is last: the parts
    before it are fixed by the signed root and the serial, so an RA that
    keeps them re-encodes only the value as the hash chain advances.
    """
    return b"".join(
        [
            encode_proof(status.proof),
            encode_signed_root(status.signed_root),
            _statement_under(status.signed_root, status.freshness),
        ]
    )


def decode_status(data: bytes, offset: int = 0) -> Tuple[RevocationStatus, int]:
    """Parse one :func:`encode_status` layout at ``offset``; return the
    status and where it ends.

    Reads the proof (:func:`decode_proof`), whose key must be a serial
    encoding (1–20 bytes, not zero), the signed root
    (:func:`decode_signed_root`), then as many value bytes as the root's
    anchor holds.  Raises :class:`TLSError` on a truncated part or any error
    of the part decoders.  Verifies nothing: :meth:`RevocationStatus.verify`
    does.
    """
    proof, offset = decode_proof(data, offset)
    if not _is_serial(proof.key):
        raise TLSError("malformed serial number: a status's proof key is not one")
    signed_root, offset = decode_signed_root(data, offset)
    freshness, offset = decode_freshness(data, offset, len(signed_root.anchor))
    return RevocationStatus(proof, signed_root, freshness), offset


def encode_status_bundle(statuses: List[RevocationStatus]) -> bytes:
    """Several statuses in one record (certificate-chain proving, §VIII), as
    :func:`frame_status_bundle` lays them out: at most 255."""
    return frame_status_bundle([encode_status(status) for status in statuses])


@_total
def frame_status_bundle(encoded: List[bytes]) -> bytes:
    """The bundle of statuses already encoded by :func:`encode_status`: a
    count (u8, so at most 255 statuses), then each status u16-framed (at most
    65,535 bytes each)."""
    parts = [struct.pack(">B", len(encoded))]
    for status in encoded:
        parts.append(_pack_bytes(status))
    return b"".join(parts)


def decode_status_bundle(data: bytes) -> List[RevocationStatus]:
    """Parse a whole ``RITM_STATUS`` record body: a status count (u8), then
    that many u16-framed :func:`decode_status` layouts, each filling its
    frame.  Raises :class:`TLSError` on an empty record, a truncated frame,
    trailing bytes inside a frame, or bytes after the last status."""
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

    Contains everything needed to bring the replica current: the latest
    signed root (whose size says how far to walk) and the latest freshness
    statement.  It carries nothing unsigned that orders it: an RA ranks a
    head by its signed root's size and timestamp
    (:class:`repro.ritm.dissemination.RADisseminationClient`).
    """

    signed_root: SignedRoot
    freshness: FreshnessStatement


def encode_head(head: DictionaryHead) -> bytes:
    """Serialize a dictionary head for the CDN: signed root
    (:func:`encode_signed_root`), then the freshness value, as wide as the
    root's anchor.  The dictionary's name and size are the root's."""
    return encode_signed_root(head.signed_root) + _statement_under(
        head.signed_root, head.freshness
    )


def decode_head(data: bytes) -> DictionaryHead:
    """Parse a whole :func:`encode_head` object.

    Raises :class:`TLSError` on a truncated field, a CA name that is not
    UTF-8, a value of other than the anchor's width, or bytes after it.
    Verifies nothing: the replica does.
    """
    signed_root, offset = decode_signed_root(data)
    freshness, offset = decode_freshness(data, offset, len(signed_root.anchor))
    if offset != len(data):
        raise TLSError("trailing bytes after dictionary head")
    return DictionaryHead(signed_root, freshness)


@dataclass(frozen=True)
class ShardIndex:
    """The per-CA shard discovery object of sharded mode (§VIII).

    RAs pull this small object every Δ to learn which expiry shards the CA
    currently maintains (``live``), then pull one freshness object per live
    shard.
    Replicas of passed windows are pruned by the RA's own clock, so the index
    names no retired ones.  ``width_seconds`` lets an RA map a certificate
    expiry to a shard index without further round trips.  Nothing orders
    one index against another: it only directs an RA towards shards.
    """

    ca_name: str
    width_seconds: int
    live: Tuple[int, ...]


_INDEX_HEADER = struct.Struct(">IH")


@_total
def encode_shard_index(index: ShardIndex) -> bytes:
    """Serialize a shard index for publication on the CDN.

    Layout: CA name (u16 length + UTF-8), shard width in seconds (u32),
    window count (u16), then each window index (i64), in ``live``'s order.
    """
    return b"".join(
        [
            _pack_name(index.ca_name),
            _INDEX_HEADER.pack(index.width_seconds, len(index.live)),
            struct.pack(f">{len(index.live)}q", *index.live),
        ]
    )


def decode_shard_index(data: bytes) -> ShardIndex:
    """Parse a whole :func:`encode_shard_index` object.

    Raises :class:`TLSError` on a truncated field, a CA name that is not
    UTF-8, a zero width (the index is unauthenticated, so a forged one must
    not reach shard arithmetic), or bytes after the last window index.
    """
    ca_name, offset = _unpack_name(data, 0)
    if offset + _INDEX_HEADER.size > len(data):
        raise TLSError("truncated shard index")
    width_seconds, count = _INDEX_HEADER.unpack_from(data, offset)
    offset += _INDEX_HEADER.size
    if width_seconds == 0:
        raise TLSError("shard index advertises a zero shard width")
    end = offset + 8 * count
    if end > len(data):
        raise TLSError("truncated shard index windows")
    if end != len(data):
        raise TLSError("trailing bytes after shard index")
    return ShardIndex(
        ca_name=ca_name,
        width_seconds=width_seconds,
        live=struct.unpack_from(f">{count}q", data, offset),
    )


# -- key-rotation announcements ------------------------------------------------------


_EPOCH = struct.Struct(">Q")
_KEY_TIMES = struct.Struct(">QQ")


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

    @_total
    def fields(self) -> bytes:
        """Every field but the signature, as the chain carries them: CA name
        (u16 length + UTF-8), key epoch (u64), public key (u16-framed),
        activation time and overlap (u64 each)."""
        return b"".join(
            [
                _pack_name(self.ca_name),
                _EPOCH.pack(self.key_epoch),
                _pack_bytes(self.public_key_bytes),
                _KEY_TIMES.pack(self.activated_at, self.overlap_seconds),
            ]
        )

    def payload(self) -> bytes:
        """The byte string covered by the previous key's signature."""
        return b"ritm-key-announcement:" + self.fields()


def _unpack_fixed(layout: struct.Struct, data: bytes, offset: int) -> Tuple[tuple, int]:
    """A fixed-width field at ``offset``; returns its values and its end."""
    end = offset + layout.size
    if end > len(data):
        raise TLSError("truncated RITM field")
    return layout.unpack_from(data, offset), end


@_total
def encode_key_announcements(announcements: Tuple[KeyAnnouncement, ...]) -> bytes:
    """Serialize a CA's full announcement chain for CDN publication.

    Layout: announcement count (u16), then each announcement's
    :meth:`KeyAnnouncement.fields` and its signature (u16-framed).
    """
    return _FIELD_LENGTH.pack(len(announcements)) + b"".join(
        announcement.fields() + _pack_bytes(announcement.signature)
        for announcement in announcements
    )


def decode_key_announcements(data: bytes) -> Tuple[KeyAnnouncement, ...]:
    """Parse a whole :func:`encode_key_announcements` chain.

    Raises :class:`TLSError` on a truncated field, a CA name longer than
    :data:`MAX_NAME_BYTES` or not UTF-8, or bytes after the last
    announcement.  Verifies nothing: the agent validates the chain from its
    genesis anchor.
    """
    announcements = []
    try:
        (count,), offset = _unpack_fixed(_FIELD_LENGTH, data, 0)
        for _ in range(count):
            ca_name, offset = _unpack_name(data, offset)
            (key_epoch,), offset = _unpack_fixed(_EPOCH, data, offset)
            public_key_bytes, offset = _unpack_bytes(data, offset)
            (activated_at, overlap_seconds), offset = _unpack_fixed(_KEY_TIMES, data, offset)
            signature, offset = _unpack_bytes(data, offset)
            announcements.append(
                KeyAnnouncement(
                    ca_name, key_epoch, public_key_bytes, activated_at, overlap_seconds, signature
                )
            )
        if offset != len(data):
            raise TLSError("trailing bytes after the last announcement")
    except TLSError as exc:
        raise TLSError(f"malformed key announcement chain: {exc}") from None
    return tuple(announcements)


# -- batch objects ------------------------------------------------------------------
#
# A revocation batch crosses the wire as one layout wherever it goes: at its
# CDN path, as its stream's per-Δ object, from a peer's relay archive
# (:mod:`repro.ritm.replication`), and as the body of a sync response and of
# a checkpoint's replica record.  The root the CA signed after the batch
# names the dictionary and gives its size, so the batch's first serial
# number is ``size - count + 1``; the object sends neither.

#: Serials one revocation batch may carry: the CA's cap on one ``revoke``.
#: The count field is 32 bits wide, so a sync response — one batch however
#: much history it holds — is not bound by this cap.
MAX_ISSUANCE_SERIALS = 0xFFFF

_SERIAL_COUNT = struct.Struct(">I")


@_wire_once
def encode_issuance(issuance: RevocationIssuance) -> bytes:
    """Serialize a batch's body; the bytes are memoized on it.

    Layout: the signed root after the batch (:func:`encode_signed_root`),
    the serial count (u32), then each serial as a u8 length (1–20) and its
    bytes.  An issuance whose dictionary name is not its root's, or whose
    first number is not ``root.size - count + 1``, has no encoding: the
    decoder reads both off the root.
    """
    root, count = issuance.signed_root, len(issuance.serials)
    if (issuance.ca_name, issuance.first_number) != (root.ca_name, root.size - count + 1):
        raise TLSError(
            f"a batch of {count} serials of {issuance.ca_name!r} from number "
            f"{issuance.first_number} is not the batch its root over {root.size} "
            f"serials of {root.ca_name!r} ends"
        )
    wire = bytearray(encode_signed_root(root))
    wire += _SERIAL_COUNT.pack(count)
    for serial in issuance.serials:
        raw = serial.to_bytes()
        wire.append(len(raw))
        wire += raw
    return bytes(wire)


def decode_issuance(data: bytes, offset: int = 0) -> Tuple[RevocationIssuance, int]:
    """Parse one :func:`encode_issuance` layout at ``offset``; return the
    batch, its memo seeded with the bytes read, and where it ends.

    Raises :class:`TLSError` on any error of :func:`decode_signed_root`, a
    count above the root's size or above what the remaining bytes could hold
    (refused before anything is allocated), and a serial of 0 or of a length
    outside 1–20.  Verifies nothing: the replica does.
    """
    start = offset
    signed_root, offset = decode_signed_root(data, offset)
    (count,), offset = _unpack_fixed(_SERIAL_COUNT, data, offset)
    if count > signed_root.size:
        raise TLSError(f"a batch of {count} serials under a root over {signed_root.size}")
    if 2 * count > len(data) - offset:  # each serial takes two bytes or more
        raise TLSError(f"truncated batch: {count} serials cannot fit its bytes")
    serials = []
    for _ in range(count):
        end = offset + 1 + (data[offset] if offset < len(data) else 0)
        raw = data[offset + 1 : end]
        if end > len(data) or not _is_serial(raw):
            raise TLSError("malformed serial number: not 1–20 bytes of a positive number")
        serials.append(SerialNumber(int.from_bytes(raw, "big"), len(raw)))
        offset = end
    issuance = RevocationIssuance(
        ca_name=signed_root.ca_name,
        serials=tuple(serials),
        first_number=signed_root.size - count + 1,
        signed_root=signed_root,
    )
    vars(issuance)["_wire"] = bytes(data[start:offset])  # canonical: the one encoding
    return issuance, offset


def encode_sync_response(response: SyncResponse) -> bytes:
    """A sync response on the wire: :func:`encode_issuance` of its batch,
    then its statement, if any, as wide as the root's anchor.

    Two things use the bytes: the RA's resync accounting (their length is
    what a resync downloads) and RA checkpoints
    (:mod:`repro.ritm.persistence` stores each replica as its sync response
    to ``have_count = 0``).
    """
    body = encode_issuance(response.batch)
    if response.freshness is None:
        return body
    return body + _statement_under(response.batch.signed_root, response.freshness)


def decode_sync_response(data: bytes) -> SyncResponse:
    """Parse what :func:`encode_sync_response` wrote: the batch, and its
    statement (``None`` when the batch fills the bytes).  Whatever follows
    the batch must be exactly one value of the root's anchor width."""
    batch, offset = decode_issuance(data)
    if offset == len(data):
        return SyncResponse(batch, None)
    freshness, offset = decode_freshness(data, offset, len(batch.signed_root.anchor))
    if offset != len(data):
        raise TLSError("trailing bytes after sync response")
    return SyncResponse(batch, freshness)
