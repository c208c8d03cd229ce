"""Streaming replication: the batch object, and RA→RA anti-entropy.

The Δ-periodic pull path (``repro.ritm.dissemination``) makes every lagging
RA fetch its missing batches — or a full cold sync — from the CA's
distribution point.  That keeps the CA the single egress bottleneck: a
region-wide RA outage ends in N simultaneous cold syncs against one origin.
This module lets RAs carry the stream for each other instead:

* the CA publishes every revocation batch of a stream as one **batch
  object** (:class:`BatchObject`), addressed by the batch's first serial
  number ``n``: the root the CA signed after the batch, the batch's
  serials, and the freshness value the dictionary served right after it
  (:func:`~repro.ritm.messages.encode_batch`).  Until the stream's next
  refresh the same bytes are also its per-Δ object
  (:func:`decode_delta_object`), so an RA that was current reads the batch
  with its one poll;
* an RA that archives batches (``segment_streaming``) keeps the raw bytes
  of every batch object it applied, so a lagging or freshly-restored agent
  can catch up **peer-to-peer** from a regional neighbour (chosen via
  :mod:`repro.cdn.geography`) instead of hitting the CA — peers relay the
  bytes unmodified.

A batch object carries no signature of its own and needs none: the root it
embeds is CA-signed and commits to the dictionary after the batch, so the
replica's ``update_many`` verifies that signature, applies the batch, and
rolls it back unless the recomputed root is the signed one.  A relaying
peer or an edge can delay, drop or tamper with a batch, and a tampered one
costs the receiver one insert and one rollback before it degrades
*explicitly* to the sync protocol — never a wrong state.  The wire format,
failure matrix and reject costs are documented in ``docs/REPLICATION.md``.
(``encode_segment`` / ``decode_segment`` and ``segment_streaming`` keep the
names of the signed segments this object replaced.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from repro.cdn.geography import GeoLocation, region_distance
from repro.crypto.hashing import FULL_DIGEST_SIZE
from repro.dictionary.authdict import RevocationIssuance
from repro.dictionary.freshness import FreshnessStatement
from repro.errors import TLSError
from repro.ritm.messages import decode_batch, decode_freshness, encode_batch


@dataclass(frozen=True)
class BatchObject:
    """One revocation batch as the CA publishes it.

    ``issuance`` is the batch, whose ``first_number`` is its address;
    ``freshness_after`` is the statement the dictionary served immediately
    after it (a link of the chain the batch's root anchors), so a replica
    that applies the object reaches the byte-identical state a
    head-pulling replica would.
    """

    issuance: RevocationIssuance
    freshness_after: FreshnessStatement


def encode_segment(batch: BatchObject) -> bytes:
    """Serialize one batch object (:func:`~repro.ritm.messages.encode_batch`)."""
    return encode_batch(batch.issuance, batch.freshness_after)


def decode_segment(data: bytes) -> BatchObject:
    """Parse one whole batch object, statement included.

    Raises :class:`~repro.errors.TLSError` on any error of
    :func:`~repro.ritm.messages.decode_batch` and on an object that ends
    without its statement.  Verifies nothing: the replica's ``update_many``
    checks the root's signature and the batch against it.
    """
    issuance, freshness = decode_batch(data)
    if freshness is None:
        raise TLSError("batch object ends without the statement served after its batch")
    return BatchObject(issuance, freshness)


def is_batch_object(data: bytes) -> bool:
    """Whether a per-Δ object is read as a batch object: a freshness value
    is at most 32 bytes, and a batch object, which opens with a signed
    root, is longer."""
    return len(data) > FULL_DIGEST_SIZE


def decode_delta_object(data: bytes) -> Union[FreshnessStatement, BatchObject]:
    """Parse a stream's per-Δ object (``freshness_path``) in either form.

    In a Δ with a batch the CA publishes that batch's object there, byte for
    byte the object at its batch path; otherwise the bare freshness value.
    :func:`is_batch_object` picks the form.  Any failure of the form's
    decoder (an empty object included) is a
    :class:`~repro.errors.TLSError`.  Verifies nothing.
    """
    if is_batch_object(data):
        return decode_segment(data)
    return decode_freshness(data, 0, len(data))[0]


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
