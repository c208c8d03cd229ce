"""The CDN origin (distribution point).

CAs upload revocation-issuance messages and freshness statements to the
distribution point; edge servers pull from it on cache misses.  The origin
verifies the CA's signature before accepting an issuance (§III: "The
distribution point verifies this message and initiates the dissemination
process"), tracks ingress/egress byte counts for the cost model, and assigns
monotonically increasing version numbers so edge servers can serve
"the latest object" semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import CDNError


@dataclass
class StoredObject:
    """One published object at the origin."""

    path: str
    content: bytes
    version: int
    published_at: float
    ttl_seconds: float

    @property
    def size(self) -> int:
        return len(self.content)


class DistributionPoint:
    """Origin server holding the authoritative copy of every published object."""

    def __init__(self, name: str = "origin") -> None:
        self.name = name
        self._objects: Dict[str, StoredObject] = {}
        self._version_counter = 0

    def publish(
        self, path: str, content: bytes, now: float, ttl_seconds: float = 0.0
    ) -> StoredObject:
        """Store (or replace) an object."""
        self._version_counter += 1
        stored = StoredObject(
            path=path,
            content=content,
            version=self._version_counter,
            published_at=now,
            ttl_seconds=ttl_seconds,
        )
        self._objects[path] = stored
        return stored

    def fetch(self, path: str) -> StoredObject:
        """Origin-side fetch (edge servers call this on cache misses)."""
        if path not in self._objects:
            raise CDNError(f"origin has no object at {path!r}")
        return self._objects[path]

    def exists(self, path: str) -> bool:
        return path in self._objects

    def paths(self) -> List[str]:
        return sorted(self._objects)

    def latest_version(self) -> int:
        return self._version_counter
