"""Freshness statements (Eq. 2 of the paper) and the client acceptance policy.

Every Δ seconds in which no new revocation is issued, a CA releases the next
pre-image of the hash chain whose anchor is embedded in its latest signed
root.  Holding the signed root, anyone can check that a statement is both
authentic (it links to the anchor) and recent (it links in at most
``p' + 1`` hash applications, where ``p'`` is the number of Δ periods elapsed
since the root's timestamp) — giving the effective 2Δ attack window of §V.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crypto.hashchain import statement_age
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


def statement_period(signed_root: SignedRoot, statement: FreshnessStatement) -> Optional[int]:
    """The Δ period after ``signed_root`` in which the CA released
    ``statement``: the applications of the chain hash, truncated to the
    anchor's width, that take its value to the anchor.  ``None`` when the
    value is not as wide as the anchor or reaches it in no ``chain_length``
    applications."""
    anchor = signed_root.anchor
    if len(statement.value) != len(anchor):
        return None
    return statement_age(anchor, statement.value, signed_root.chain_length, len(anchor))


#: Δ periods a statement may trail the client's clock: one, for the
#: pull-based CDN, which yields the paper's 2Δ attack window (§V).
TOLERANCE_PERIODS = 1


def statement_is_fresh(
    signed_root: SignedRoot,
    statement: FreshnessStatement,
    now: int,
    delta: int,
) -> bool:
    """The client acceptance check of §III step 5c.

    The statement's :func:`statement_period` must be at least ``p' -``
    :data:`TOLERANCE_PERIODS`: the statement of period ``p'``, or one
    period older.
    """
    elapsed = periods_elapsed(signed_root.timestamp, now, delta)
    # The statement proves the dictionary was intact at (timestamp + age*Δ);
    # the client requires that moment to be no older than the tolerance
    # before now, i.e. age >= elapsed - tolerance.
    age = statement_period(signed_root, statement)
    if age is None:
        return False
    return age >= elapsed - TOLERANCE_PERIODS
