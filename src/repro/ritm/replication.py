"""Streaming WAL replication: CA→RA segment shipping and RA→RA anti-entropy.

The Δ-periodic pull path (``repro.ritm.dissemination``) makes every lagging
RA fetch its missing issuance batches — or a full cold sync — from the CA's
distribution point.  That keeps the CA the single egress bottleneck: a
region-wide RA outage ends in N simultaneous cold syncs against one origin.
This module turns PR 5's durable WAL into the fleet-wide dissemination
transport instead:

* the CA publishes every revocation batch of a stream as a
  sequence-numbered **WAL segment** — the durable engine's CRC'd record
  frames wrapped in a CA-signed header carrying ``(ca, shard,
  segment_number, first_seq, last_seq, root_after, freshness_after)``;
* any RA that verified a segment keeps its raw bytes, so a lagging or
  freshly-restored agent can catch up **peer-to-peer** from a regional
  neighbour (chosen via :mod:`repro.cdn.geography`) instead of hitting the
  CA — peers relay segments unmodified, and every hop re-verifies the CA
  signature, the per-record CRCs, and the post-apply root, so a relaying
  peer can delay or drop segments but never alter or forge one.

Segments are self-authenticating: applying one goes through the same
``ReplicaDictionary.update_many`` transaction as the ordinary pull path
(signature check up front, recomputed root against ``root_after``, rollback
on mismatch), so a tampered segment can never mutate a replica, and a
sequence gap degrades *explicitly* to the sync protocol rather than being
papered over.  The wire format, failure matrix, and tuning knobs are
documented in ``docs/REPLICATION.md``.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

from repro.cdn.geography import GeoLocation, region_distance
from repro.crypto.signing import KeyPair
from repro.dictionary.authdict import RevocationIssuance
from repro.dictionary.freshness import FreshnessStatement
from repro.dictionary.signed_root import SignedRoot
from repro.errors import TLSError
from repro.ritm.messages import (
    _pack_bytes,
    _unpack_bytes,
    _unpack_name,
    decode_freshness,
    decode_signed_root,
    encode_freshness,
    encode_signed_root,
    parse_serial,
)

# The segment body reuses the durable engine's record framing verbatim
# (seq u64 | type u8 | payload length u32 | payload | CRC32) — the whole
# point of shipping the WAL is that the records are already CRC'd and
# idempotent, so the replication plane adds only the signed header.
from repro.store.durable import (  # noqa: F401 - re-exported record framing
    _RECORD_CRC as RECORD_CRC,
    _RECORD_HEADER as RECORD_HEADER,
    _RECORD_INSERT as RECORD_INSERT,
    decode_leaf_pairs,
    encode_leaf_pairs,
)

#: Magic prefix of every encoded WAL segment (format 1).
SEGMENT_MAGIC = b"RITMSEG1"

#: Leaf-value width: the revocation number as 4 big-endian bytes, matching
#: the dictionary's leaf encoding so segment records ARE dictionary leaves.
VALUE_WIDTH = 4


def segment_path(ca_name: str, segment_number: int) -> str:
    """CDN path of one published WAL segment (CA-direct replication)."""
    return f"/ritm/{ca_name}/segment/{segment_number}"


@dataclass(frozen=True)
class WALSegment:
    """One sequence-numbered, CA-signed slice of the revocation WAL.

    ``items`` are dictionary leaves ``(serial bytes, revocation number as 4
    big-endian bytes)`` in revocation order covering exactly the numbers
    ``first_seq..last_seq``; ``root_after``/``freshness_after`` are the
    signed root and freshness statement the dictionary served immediately
    after this batch, so a replica that applies the segment reaches the
    byte-identical state a head-pulling replica would.
    """

    ca_name: str
    #: Reserved, always empty: every stream — a whole-CA dictionary or one
    #: expiry shard — is addressed by its dictionary name in ``ca_name``.
    #: The field stays in the signed header so format-1 bytes are unchanged.
    shard: str
    #: Position in the CA's segment stream (1-based, gap-free).
    segment_number: int
    first_seq: int
    last_seq: int
    root_after: SignedRoot
    freshness_after: FreshnessStatement
    items: Tuple[Tuple[bytes, bytes], ...]
    #: CA signature over :func:`segment_header_payload`.
    signature: bytes = b""

    def issuance(self) -> RevocationIssuance:
        """The batch this segment carries, as the issuance message the
        replica's ``update_many`` transaction consumes.

        Record keys are only CRC'd, not signed, so a key that is not a
        serial encoding is a malformed message (:class:`TLSError`).
        """
        return RevocationIssuance(
            ca_name=self.ca_name,
            serials=tuple(parse_serial(key) for key, _ in self.items),
            first_number=self.first_seq,
            signed_root=self.root_after,
        )


def segment_header_payload(segment: WALSegment) -> bytes:
    """The exact bytes the CA signs: identity, cursor range, and end state.

    The signature covers the *claimed range and outcome*, not the record
    bytes — record integrity is enforced by the per-record CRCs plus the
    ``update_many`` recomputed-root check against ``root_after``, which the
    signature does cover.  A relay can therefore neither alter records
    (root check fails) nor re-scope an honest segment (header check fails).
    """
    return b"".join(
        [
            _pack_bytes(segment.ca_name.encode("utf-8")),
            _pack_bytes(segment.shard.encode("utf-8")),
            struct.pack(
                ">QQQ", segment.segment_number, segment.first_seq, segment.last_seq
            ),
            encode_signed_root(segment.root_after),
            encode_freshness(segment.freshness_after),
        ]
    )


def _encode_records(items: Sequence[Tuple[bytes, bytes]], first_seq: int) -> bytes:
    """Frame leaves as durable-WAL insert records, one leaf per record."""
    body = bytearray()
    for offset, item in enumerate(items):
        payload = encode_leaf_pairs([item])
        header = RECORD_HEADER.pack(first_seq + offset, RECORD_INSERT, len(payload))
        body += header
        body += payload
        body += RECORD_CRC.pack(zlib.crc32(header + payload))
    return bytes(body)


def _decode_records(
    data: bytes, first_seq: int, last_seq: int
) -> Tuple[Tuple[bytes, bytes], ...]:
    """Parse and CRC-check the record frames of one segment body."""
    items: List[Tuple[bytes, bytes]] = []
    offset = 0
    expected_seq = first_seq
    while offset < len(data):
        if offset + RECORD_HEADER.size > len(data):
            raise TLSError("truncated WAL segment record header")
        seq, record_type, payload_length = RECORD_HEADER.unpack_from(data, offset)
        end = offset + RECORD_HEADER.size + payload_length + RECORD_CRC.size
        if end > len(data):
            raise TLSError("truncated WAL segment record body")
        (stored_crc,) = RECORD_CRC.unpack_from(data, end - RECORD_CRC.size)
        if zlib.crc32(data[offset : end - RECORD_CRC.size]) != stored_crc:
            raise TLSError(f"WAL segment record {seq} failed its CRC")
        if record_type != RECORD_INSERT:
            raise TLSError(f"WAL segment record {seq} has unsupported type {record_type}")
        if seq != expected_seq:
            raise TLSError(
                f"WAL segment records out of order: expected seq {expected_seq}, got {seq}"
            )
        payload = data[offset + RECORD_HEADER.size : end - RECORD_CRC.size]
        decoded, consumed = decode_leaf_pairs(payload, 0, 1)
        if consumed != len(payload):
            raise TLSError(f"WAL segment record {seq} has trailing payload bytes")
        key, value = decoded[0]
        if len(value) != VALUE_WIDTH or int.from_bytes(value, "big") != seq:
            raise TLSError(
                f"WAL segment record {seq} carries a leaf value that does not "
                f"encode its own sequence number"
            )
        items.append((key, value))
        expected_seq += 1
        offset = end
    if expected_seq != last_seq + 1:
        raise TLSError(
            f"WAL segment covers {first_seq}..{last_seq} but carries "
            f"{len(items)} records"
        )
    return tuple(items)


def encode_segment(segment: WALSegment) -> bytes:
    """Serialize one segment: magic, signed header, records, trailing CRC32."""
    header = segment_header_payload(segment)
    records = _encode_records(segment.items, segment.first_seq)
    body = bytearray()
    body += SEGMENT_MAGIC
    body += struct.pack(">I", len(header))
    body += header
    body += _pack_bytes(segment.signature)
    body += struct.pack(">I", len(records))
    body += records
    body += struct.pack(">I", zlib.crc32(bytes(body)))
    return bytes(body)


def decode_segment(data: bytes) -> WALSegment:
    """Parse one encoded segment, checking framing and every CRC.

    Structural and integrity failures raise :class:`~repro.errors.TLSError`;
    the CA signature is *not* checked here — callers verify it against their
    own trust anchor via :func:`verify_segment` before applying anything.
    """
    floor = len(SEGMENT_MAGIC) + 4 + 2 + 4 + 4
    if len(data) < floor or not data.startswith(SEGMENT_MAGIC):
        raise TLSError("not a RITM WAL segment")
    (stored_crc,) = struct.unpack_from(">I", data, len(data) - 4)
    if zlib.crc32(data[:-4]) != stored_crc:
        raise TLSError("WAL segment failed its checksum")
    offset = len(SEGMENT_MAGIC)
    (header_length,) = struct.unpack_from(">I", data, offset)
    offset += 4
    if offset + header_length > len(data) - 4:
        raise TLSError("truncated WAL segment header")
    header = data[offset : offset + header_length]
    offset += header_length
    signature, offset = _unpack_bytes(data, offset)
    if offset + 4 > len(data) - 4:
        raise TLSError("truncated WAL segment body length")
    (body_length,) = struct.unpack_from(">I", data, offset)
    offset += 4
    if offset + body_length != len(data) - 4:
        raise TLSError("WAL segment body length does not match the frame")
    records = data[offset : offset + body_length]

    # -- header fields ------------------------------------------------------
    hoff = 0
    ca_name, hoff = _unpack_name(header, hoff)
    shard, hoff = _unpack_name(header, hoff)
    if hoff + 24 > len(header):
        raise TLSError("truncated WAL segment cursor range")
    segment_number, first_seq, last_seq = struct.unpack_from(">QQQ", header, hoff)
    hoff += 24
    root_after, hoff = decode_signed_root(header, hoff)
    freshness_after, hoff = decode_freshness(header, hoff)
    if hoff != len(header):
        raise TLSError("WAL segment header has trailing bytes")
    if segment_number < 1 or first_seq < 1 or last_seq < first_seq:
        raise TLSError("WAL segment header carries an implausible cursor range")
    items = _decode_records(records, first_seq, last_seq)
    return WALSegment(
        ca_name=ca_name,
        shard=shard,
        segment_number=segment_number,
        first_seq=first_seq,
        last_seq=last_seq,
        root_after=root_after,
        freshness_after=freshness_after,
        items=items,
        signature=signature,
    )


def verify_segment(segment: WALSegment, verifier) -> bool:
    """Check the segment header's CA signature against a trust anchor.

    ``verifier`` is a bare :class:`~repro.crypto.signing.PublicKey` or a
    time-scoped :class:`~repro.crypto.signing.CAKeyring` — both expose
    ``verify``.  Relayed segments are verified against the *receiver's own*
    anchor, never the relay's claims, so a peer cannot launder a forgery.
    """
    return bool(verifier.verify(segment_header_payload(segment), segment.signature))


def build_segment(
    issuance: RevocationIssuance,
    freshness: FreshnessStatement,
    segment_number: int,
    signer: KeyPair,
) -> WALSegment:
    """CA-side: wrap one issuance batch as a signed WAL segment."""
    items = tuple(
        (serial.to_bytes(), number.to_bytes(VALUE_WIDTH, "big"))
        for number, serial in issuance.numbered_serials()
    )
    segment = WALSegment(
        ca_name=issuance.ca_name,
        shard="",
        segment_number=segment_number,
        first_seq=issuance.first_number,
        last_seq=issuance.first_number + len(items) - 1,
        root_after=issuance.signed_root,
        freshness_after=freshness,
        items=items,
        signature=b"",
    )
    return replace(segment, signature=signer.sign(segment_header_payload(segment)))


def rank_peers(
    location: GeoLocation, peers: Sequence[Tuple[object, GeoLocation]]
) -> List[object]:
    """Order anti-entropy candidates nearest-first for an RA at ``location``.

    Distance is the coarse inter-region RTT proxy from
    :func:`repro.cdn.geography.region_distance` (0 within a region), with
    the within-region ``distance_factor`` and the input order as
    deterministic tie-breakers — same-region peers always rank before any
    cross-region peer, which is what keeps a region outage's recovery
    traffic off the CA's transit links.
    """
    decorated = [
        (region_distance(location.region, peer_location.region),
         abs(location.distance_factor - peer_location.distance_factor),
         index,
         peer)
        for index, (peer, peer_location) in enumerate(peers)
    ]
    decorated.sort(key=lambda entry: entry[:3])
    return [peer for _, _, _, peer in decorated]
