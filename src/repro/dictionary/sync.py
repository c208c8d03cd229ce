"""Replica synchronization protocol (paper §III, "Dissemination").

Every revocation-issuance message carries the dictionary size ``n``, so an RA
can detect that its replica fell behind (e.g. it missed a CDN object while
offline).  To recover, the RA tells an edge server (or the CA's distribution
point) how many *valid consecutive revocations* it has observed, and receives
every later revocation, in order, plus the current signed root.

The CA keeps the full ordered revocation history, so serving a sync request
is a slice operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.dictionary.authdict import CADictionary, ReplicaDictionary, RevocationIssuance
from repro.dictionary.freshness import FreshnessStatement
from repro.dictionary.signed_root import SignedRoot
from repro.errors import DesynchronizedError
from repro.pki.serial import SerialNumber


@dataclass(frozen=True)
class SyncRequest:
    """An RA's request: "I hold ``have_count`` consecutive revocations of ``ca_name``"."""

    ca_name: str
    have_count: int


@dataclass(frozen=True)
class SyncResponse:
    """The missing suffix of the revocation history plus the current root."""

    ca_name: str
    first_number: int
    serials: Tuple[SerialNumber, ...]
    signed_root: SignedRoot
    freshness: Optional[FreshnessStatement] = None

    def as_issuance(self) -> RevocationIssuance:
        """Repackage the missing suffix as an ordinary issuance message."""
        return RevocationIssuance(
            ca_name=self.ca_name,
            serials=self.serials,
            first_number=self.first_number,
            signed_root=self.signed_root,
        )


class SyncServer:
    """Serves sync requests from the CA's master dictionary and history."""

    def __init__(self, dictionary: CADictionary) -> None:
        self._dictionary = dictionary
        self._history: List[SerialNumber] = []

    def record_issuance(self, issuance: RevocationIssuance) -> None:
        """Track the ordered revocation history as the CA issues revocations."""
        if issuance.first_number != len(self._history) + 1:
            raise DesynchronizedError(
                "sync server history out of order with the CA dictionary"
            )
        self._history.extend(issuance.serials)

    def history_length(self) -> int:
        return len(self._history)

    def serve(self, request: SyncRequest) -> SyncResponse:
        """Return everything the requester is missing."""
        if request.ca_name != self._dictionary.ca_name:
            raise DesynchronizedError(
                f"sync request for {request.ca_name!r} served by {self._dictionary.ca_name!r}"
            )
        if not 0 <= request.have_count <= len(self._history):
            raise DesynchronizedError(
                f"requester claims {request.have_count} revocations; the CA has "
                f"issued {len(self._history)}"
            )
        signed_root = self._dictionary.signed_root
        if signed_root is None:
            raise DesynchronizedError("CA has not signed a root yet; nothing to sync")
        missing = tuple(self._history[request.have_count :])
        return SyncResponse(
            ca_name=request.ca_name,
            first_number=request.have_count + 1,
            serials=missing,
            signed_root=signed_root,
            freshness=self._dictionary.latest_freshness,
        )


def held_state(replica: ReplicaDictionary) -> SyncResponse:
    """What ``replica`` holds, as the answer to ``have_count = 0``.

    The store's leaf values are the revocation numbers, so sorting the
    leaves by value is the revocation order.  This is the serve half a
    replica can do for itself — what an RA checkpoint persists — and
    :func:`apply_sync_response` onto an empty replica is its inverse.
    Requires a verified root.
    """
    ordered = sorted(replica.leaf_items(), key=lambda item: item[1])
    return SyncResponse(
        ca_name=replica.ca_name,
        first_number=1,
        serials=tuple(SerialNumber.from_bytes(key) for key, _ in ordered),
        signed_root=replica.signed_root,
        freshness=replica.latest_freshness,
    )


def apply_sync_response(replica: ReplicaDictionary, response: SyncResponse) -> None:
    """Apply a sync response to ``replica`` — from the CA's endpoint or from
    the RA's own checkpoint, the checks are ``update_many``'s,
    ``install_root``'s and ``apply_freshness``'s either way."""
    if response.serials:
        replica.update(response.as_issuance())
    else:
        replica.install_root(response.signed_root)
    if response.freshness is not None:
        replica.apply_freshness(response.freshness)


def resynchronize(replica: ReplicaDictionary, server: SyncServer) -> SyncResponse:
    """Bring ``replica`` up to date against ``server``; returns the response applied."""
    response = server.serve(SyncRequest(ca_name=replica.ca_name, have_count=replica.size))
    apply_sync_response(replica, response)
    return response
