"""Hash chains and freshness statements (paper §II, §III, Fig. 2).

A CA that signs a dictionary root also commits to the anchor ``H^m(v)`` of a
hash chain of length ``m`` built from a random seed ``v``.  Each subsequent
period Δ in which no new revocation is issued, the CA releases the next
pre-image ``H^(m-p)(v)`` as a *freshness statement*: a short, unforgeable
proof that the CA still considers the signed root current ``p`` periods after
it was signed.

Anyone holding the anchor can verify a freshness statement by re-hashing it
``p`` times and comparing against the anchor; the client's check
(:func:`verify_freshness`, paper §III step 5c) accepts a statement one period
either side of its clock's.  Nobody but the
CA can produce the next statement, because doing so would require inverting
the hash function.

Linking costs one hash per period between two values of one chain, and
:func:`statement_age` hashes no further than the bound its caller passes: a
value that links to nothing costs exactly that bound.  The client and the
RA's per-Δ poll bound it by their clocks (``repro.dictionary.freshness``),
so a forged value costs them what an honest value of the latest period
their clock allows would, whatever the chain's length.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.hashing import DEFAULT_DIGEST_SIZE, hash_chain_link
from repro.errors import HashChainError


def chain_apply(value: bytes, times: int, digest_size: int = DEFAULT_DIGEST_SIZE) -> bytes:
    """Apply the chain hash ``times`` times to ``value`` (``H^times(value)``)."""
    if times < 0:
        raise ValueError("cannot apply a hash chain a negative number of times")
    current = value
    for _ in range(times):
        current = hash_chain_link(current, digest_size)
    return current


@dataclass
class HashChain:
    """A CA-side hash chain of length ``m`` anchored at ``H^m(seed)``.

    Parameters
    ----------
    length:
        The chain length ``m``: the number of freshness statements that can be
        released before a new signed root (and new chain) is required.
    seed:
        The random value ``v``.  Generated with :func:`os.urandom` if omitted.
    digest_size:
        Size of each chain link in bytes.
    """

    length: int
    seed: bytes = field(default_factory=lambda: os.urandom(32))
    digest_size: int = DEFAULT_DIGEST_SIZE

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("hash chain length must be at least 1")
        # Pre-compute every link once: CAs release links in reverse order, so
        # caching them avoids O(m^2) work.  The chain is not short: m is
        # ``RITMConfig.chain_length`` (8,640 by default, a day of 10 s
        # periods) and every signed root builds one, m SHA-256 calls on the
        # CA's write path (docs/PERFORMANCE.md).
        links = [self.seed]
        for _ in range(self.length):
            links.append(hash_chain_link(links[-1], self.digest_size))
        self._links = links

    @property
    def anchor(self) -> bytes:
        """The public anchor ``H^m(v)`` embedded in the signed root."""
        return self._links[self.length]

    def statement(self, period: int) -> bytes:
        """Return the freshness statement ``H^(m-period)(v)`` for period ``period``.

        ``period`` 0 is the anchor itself (the moment the root was signed);
        the last releasable statement is ``period == length`` (the seed).
        """
        if not 0 <= period <= self.length:
            raise HashChainError(
                f"period {period} outside the chain's range [0, {self.length}]"
            )
        return self._links[self.length - period]

    def remaining(self, period: int) -> int:
        """Number of further statements available after ``period``."""
        return max(0, self.length - period)


#: Δ periods a statement may trail the client's clock: one, for the
#: pull-based CDN, which yields the paper's 2Δ attack window (§V).  It is
#: also how far a statement may lead the verifier's clock (the CA's clock
#: may run ahead of it); a statement further ahead is refused.
TOLERANCE_PERIODS = 1


def verify_freshness(
    anchor: bytes,
    statement: bytes,
    periods_elapsed: int,
    chain_length: int,
    digest_size: int = DEFAULT_DIGEST_SIZE,
) -> bool:
    """The client check of paper §III step 5c, on the chain values.

    ``statement`` is accepted when its period — the chain-hash applications
    that take it to ``anchor`` — is within :data:`TOLERANCE_PERIODS` of
    ``periods_elapsed`` (``p'``): the statement of period ``p'``, one period
    older or one period newer.  It is hashed at most ``p' +``
    :data:`TOLERANCE_PERIODS` times and never past ``chain_length``, so a
    forged value costs no more than an honest one of the newest period
    accepted.  A negative ``p'`` (a root from the future) is refused.
    """
    if periods_elapsed < 0:
        return False
    latest = min(periods_elapsed + TOLERANCE_PERIODS, chain_length)
    current = statement
    age = 0
    while current != anchor:
        if age == latest:
            return False
        current = hash_chain_link(current, digest_size)
        age += 1
    # The statement proves the dictionary was intact at (timestamp + age*Δ);
    # the client requires that moment to be no older than the tolerance
    # before now.
    return age >= periods_elapsed - TOLERANCE_PERIODS


def statement_age(
    anchor: bytes,
    statement: bytes,
    max_periods: int,
    digest_size: int = DEFAULT_DIGEST_SIZE,
) -> Optional[int]:
    """Return how many periods old ``statement`` is, or ``None`` if unlinked.

    The age is the number of chain-hash applications that take
    ``statement`` to ``anchor`` — any earlier value of the same chain, not
    only a root's anchor — looked for up to ``max_periods``: at most that
    many hashes, exactly that many when the value links nowhere.
    """
    current = statement
    if current == anchor:
        return 0
    for age in range(1, max_periods + 1):
        current = hash_chain_link(current, digest_size)
        if current == anchor:
            return age
    return None
