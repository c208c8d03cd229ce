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
from repro.errors import StaleStatusError


@dataclass(frozen=True)
class FreshnessStatement:
    """A released hash-chain pre-image ``H^(m-p)(v)`` for one CA dictionary."""

    ca_name: str
    value: bytes
    #: The dictionary size the statement refers to; lets RAs detect that they
    #: missed a revocation-issuance message (the size advanced) even when no
    #: new root reaches them.
    dictionary_size: int = 0


def periods_elapsed(root_timestamp: int, now: int, delta: int) -> int:
    """``p' = floor((now - t) / Δ)`` as used in the paper's client check."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if now < root_timestamp:
        return 0
    return (now - root_timestamp) // delta


def statement_is_fresh(
    signed_root: SignedRoot,
    statement: FreshnessStatement,
    now: int,
    delta: int,
    tolerance_periods: int = 1,
) -> bool:
    """The client acceptance check of §III step 5c.

    The statement must hash to the root's anchor within ``p'`` applications,
    or ``p' + tolerance_periods`` applications (one extra Δ of tolerance for
    the pull-based CDN, yielding the paper's 2Δ window).
    """
    elapsed = periods_elapsed(signed_root.timestamp, now, delta)
    # The statement proves the dictionary was intact at (timestamp + age*Δ);
    # the client requires that moment to be no older than tolerance periods
    # before now, i.e. age >= elapsed - tolerance.
    age = statement_age(signed_root.anchor, statement.value, signed_root.chain_length)
    if age is None:
        return False
    return age >= elapsed - tolerance_periods


def require_fresh(
    signed_root: SignedRoot,
    statement: FreshnessStatement,
    now: int,
    delta: int,
    tolerance_periods: int = 1,
) -> None:
    """Raise :class:`StaleStatusError` unless the statement passes the 2Δ check."""
    if not statement_is_fresh(signed_root, statement, now, delta, tolerance_periods):
        raise StaleStatusError(
            f"freshness statement for {signed_root.ca_name!r} is stale or unlinked "
            f"(root timestamp {signed_root.timestamp}, now {now}, delta {delta})"
        )


def statement_period(signed_root: SignedRoot, statement: FreshnessStatement) -> Optional[int]:
    """How many Δ periods after the root's signing this statement was released."""
    age = statement_age(signed_root.anchor, statement.value, signed_root.chain_length)
    return age
