"""Freshness statements (Eq. 2 of the paper) and the acceptance policies.

Every Δ seconds in which no new revocation is issued, a CA releases the next
pre-image of the hash chain whose anchor is embedded in its latest signed
root.  Holding the signed root, anyone can check that a statement is both
authentic (it links to the anchor) and recent (it links in ``p' - 1``, ``p'``
or ``p' + 1`` hash applications, where ``p'`` is the number of Δ periods
elapsed since the root's timestamp) — giving the effective 2Δ attack window
of §V.

Each verifier hashes only as far as its own clock lets a statement be
(NOVOMODO's one hash per elapsed period):

* a client (:func:`statement_is_fresh`) hashes a statement at most
  ``p' +`` :data:`~repro.crypto.hashchain.TOLERANCE_PERIODS` times toward
  the anchor, and refuses a statement from further in its future than that;
* an RA's replica (``ReplicaDictionary.offer_freshness``) hashes a new
  statement toward the one it holds, at most the periods its clock allows
  since then plus :data:`~repro.crypto.hashchain.TOLERANCE_PERIODS`, and
  the held one at most :data:`REPLAY_WINDOW` times toward a stale one.  A
  statement found by neither walk links to nothing the replica holds,
  however it was made.  That bounds the per-Δ poll only: a head, a sync
  response or a checkpoint (``ReplicaDictionary.apply_freshness``) links
  over the root's whole chain, so an honest statement is never refused for
  the CA's Δ or clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashchain import verify_freshness
from repro.dictionary.signed_root import SignedRoot


@dataclass(frozen=True)
class FreshnessStatement:
    """A released hash-chain pre-image ``H^(m-p)(v)`` for one CA dictionary.

    The value is the whole statement.  Which dictionary and which root it
    speaks for is what it hashes to: the anchor of the signed root it is
    checked against, which a new root replaces with a new chain's.
    """

    value: bytes


def periods_elapsed(root_timestamp: int, now: int, delta: int) -> int:
    """``p' = floor((now - t) / Δ)`` as used in the paper's client check."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if now < root_timestamp:
        return 0
    return (now - root_timestamp) // delta


#: How many hash-chain periods behind the statement a replica holds a polled
#: statement may be and still be recognised as that chain's (benign CDN
#: staleness, skipped).  The replica hashes its statement this many times at
#: most looking for it; an older statement links to nothing it holds.
REPLAY_WINDOW = 2


def statement_is_fresh(
    signed_root: SignedRoot,
    statement: FreshnessStatement,
    now: int,
    delta: int,
) -> bool:
    """The client acceptance check of §III step 5c.

    :func:`~repro.crypto.hashchain.verify_freshness` with ``p'`` from the
    client's clock and the root's chain length: the statement of period
    ``p'``, one period older, or one period newer (the CA's clock ahead of
    the client's) is accepted, after at most ``p' +``
    :data:`~repro.crypto.hashchain.TOLERANCE_PERIODS` hashes truncated to
    the anchor's width.  A value not as wide as the anchor is refused
    unhashed.
    """
    anchor = signed_root.anchor
    if len(statement.value) != len(anchor):
        return False
    return verify_freshness(
        anchor,
        statement.value,
        periods_elapsed(signed_root.timestamp, now, delta),
        signed_root.chain_length,
        len(anchor),
    )
