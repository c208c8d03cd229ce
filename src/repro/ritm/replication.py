"""Streaming replication: CA→RA segment shipping and RA→RA anti-entropy.

The Δ-periodic pull path (``repro.ritm.dissemination``) makes every lagging
RA fetch its missing issuance batches — or a full cold sync — from the CA's
distribution point.  That keeps the CA the single egress bottleneck: a
region-wide RA outage ends in N simultaneous cold syncs against one origin.
This module lets RAs carry the stream for each other instead:

* the CA publishes every revocation batch of a stream as a
  sequence-numbered **segment**: the batch's issuance object byte for byte
  (the bytes at ``/issuance/<n>``), its number, the freshness statement the
  dictionary served right after it, and one CA signature over every byte
  before that signature;
* any RA that verified a segment keeps its raw bytes, so a lagging or
  freshly-restored agent can catch up **peer-to-peer** from a regional
  neighbour (chosen via :mod:`repro.cdn.geography`) instead of hitting the
  CA — peers relay segments unmodified, and every hop re-verifies the CA
  signature against its own anchor and the post-apply root, so a relaying
  peer can delay or drop segments but never alter or forge one.

Segments are self-authenticating: the signature covers every serial, so a
tampered segment is rejected before the replica's store is touched, and
applying an honest one goes through the same
``ReplicaDictionary.update_many`` transaction as the ordinary pull path.
A sequence gap degrades *explicitly* to the sync protocol rather than
being papered over.  The wire format, failure matrix, and tuning knobs are
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
from repro.errors import TLSError
from repro.ritm.messages import (
    _pack_bytes,
    _unpack_bytes,
    decode_freshness,
    decode_issuance,
    encode_freshness,
    encode_issuance,
)

#: Magic prefix of every encoded segment (format 2).
SEGMENT_MAGIC = b"RITMSEG2"

#: Segment number, then the length of the issuance object that follows.
_SEGMENT_HEADER = struct.Struct(">QI")
_SEGMENT_CRC = struct.Struct(">I")


def segment_path(ca_name: str, segment_number: int) -> str:
    """CDN path of one published segment (CA-direct replication)."""
    return f"/ritm/{ca_name}/segment/{segment_number}"


@dataclass(frozen=True)
class WALSegment:
    """One sequence-numbered, CA-signed revocation batch.

    ``issuance`` is the batch exactly as issuance object ``segment_number``
    carries it; ``freshness_after`` is the statement the dictionary served
    immediately after this batch, so a replica that applies the segment
    reaches the byte-identical state a head-pulling replica would.
    """

    #: Position in the CA's stream (1-based, gap-free), shared with the
    #: issuance objects.
    segment_number: int
    issuance: RevocationIssuance
    freshness_after: FreshnessStatement
    #: CA signature over :func:`segment_payload`.
    signature: bytes = b""

    @property
    def ca_name(self) -> str:
        """The dictionary (stream) this batch belongs to."""
        return self.issuance.ca_name


def segment_payload(segment: WALSegment) -> bytes:
    """The exact bytes the CA signs: every frame byte before the signature.

    The issuance object is :func:`~repro.ritm.messages.encode_issuance`'s,
    which a batch keeps once encoded, so the CA encodes each batch once for
    both objects and a receiver re-reads the bytes it decoded.
    """
    issuance = encode_issuance(segment.issuance)
    return b"".join(
        [
            SEGMENT_MAGIC,
            _SEGMENT_HEADER.pack(segment.segment_number, len(issuance)),
            issuance,
            encode_freshness(segment.freshness_after),
        ]
    )


def encode_segment(segment: WALSegment) -> bytes:
    """Serialize one segment: the signed payload, signature, trailing CRC32."""
    body = segment_payload(segment) + _pack_bytes(segment.signature)
    return body + _SEGMENT_CRC.pack(zlib.crc32(body))


def decode_segment(data: bytes) -> WALSegment:
    """Parse one encoded segment, checking its framing, CRC and every length.

    Structural failures raise :class:`~repro.errors.TLSError`; the embedded
    issuance object goes through the canonical issuance decoder, so a
    serial that is no serial encoding is one too.  The CA signature is
    *not* checked here — callers verify it against their own trust anchor
    via :func:`verify_segment` before applying anything.
    """
    start = len(SEGMENT_MAGIC) + _SEGMENT_HEADER.size
    if len(data) < start + _SEGMENT_CRC.size or not data.startswith(SEGMENT_MAGIC):
        raise TLSError("not a RITM segment")
    body = data[: -_SEGMENT_CRC.size]
    if zlib.crc32(body) != _SEGMENT_CRC.unpack_from(data, len(body))[0]:
        raise TLSError("segment failed its checksum")
    segment_number, length = _SEGMENT_HEADER.unpack_from(body, len(SEGMENT_MAGIC))
    if segment_number < 1:
        raise TLSError("segment number 0: the stream is numbered from 1")
    if start + length > len(body):
        raise TLSError("truncated segment issuance object")
    issuance = decode_issuance(body[start : start + length])
    freshness_after, offset = decode_freshness(body, start + length)
    signature, offset = _unpack_bytes(body, offset)
    if offset != len(body):
        raise TLSError("segment has trailing bytes before its checksum")
    return WALSegment(segment_number, issuance, freshness_after, signature)


def verify_segment(segment: WALSegment, verifier) -> bool:
    """Check the segment's CA signature against a trust anchor.

    ``verifier`` is a bare :class:`~repro.crypto.signing.PublicKey` or a
    time-scoped :class:`~repro.crypto.signing.CAKeyring` — both expose
    ``verify``.  Relayed segments are verified against the *receiver's own*
    anchor, never the relay's claims, so a peer cannot launder a forgery.
    """
    return bool(verifier.verify(segment_payload(segment), segment.signature))


def build_segment(
    issuance: RevocationIssuance,
    freshness: FreshnessStatement,
    segment_number: int,
    signer: KeyPair,
) -> WALSegment:
    """CA-side: sign one issuance batch as segment ``segment_number``."""
    segment = WALSegment(segment_number, issuance, freshness)
    return replace(segment, signature=signer.sign(segment_payload(segment)))


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
