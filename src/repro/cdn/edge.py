"""CDN edge servers with TTL + LRU caching.

Edge servers replicate origin content on demand (the pull model of §II) and
cache it for the origin-specified TTL.  The paper's Fig. 5 measurement turns
caching *off* (TTL = 0) to measure the worst case; the ablation benches keep
it on to show the effect on origin load.

The edge's object cache is part of the hot-path verification engine
(docs/PERFORMANCE.md): the objects it holds — head, issuance, and shard
index objects — are exactly the proof-bearing material every RA pulls each
Δ, so during a flash crowd of pulls the edge is the first cache layer the
read path hits.  The cache is a bounded LRU
(:class:`~repro.perf.cache.LRUCache`) with the engine's uniform
hit/miss/eviction/invalidation counters, so scenario reports and benchmarks
can aggregate edge behaviour next to the RA-side caches.

Each edge belongs to a pricing region and records the bytes it serves, which
is exactly what the CDN bills the CA for (§VII-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cdn.geography import Region
from repro.cdn.origin import DistributionPoint, StoredObject
from repro.net.link import Link
from repro.perf import CacheStats, LRUCache

#: Default bound on cached objects per edge.  RITM's working set is small
#: (one head per dictionary plus recent issuance batches), so the bound only
#: matters when a misbehaving origin publishes unbounded object names.
DEFAULT_MAX_OBJECTS = 65_536


@dataclass
class CachedObject:
    """An object replica held by an edge server."""

    stored: StoredObject
    fetched_at: float

    def is_fresh(self, now: float) -> bool:
        """Whether the origin-assigned TTL still covers this copy at ``now``."""
        if self.stored.ttl_seconds <= 0:
            return False
        return now - self.fetched_at < self.stored.ttl_seconds


@dataclass
class EdgeFetchResult:
    """Outcome of serving one request at an edge server."""

    content: bytes
    version: int
    cache_hit: bool
    origin_bytes: int
    origin_latency: float
    served_bytes: int


class EdgeServer:
    """One CDN point of presence."""

    def __init__(
        self,
        name: str,
        region: Region,
        origin: DistributionPoint,
        origin_link: Optional[Link] = None,
        max_objects: Optional[int] = DEFAULT_MAX_OBJECTS,
    ) -> None:
        self.name = name
        self.region = region
        self.origin = origin
        #: Edge↔origin links are fast, well-provisioned backbone paths.
        self.origin_link = origin_link if origin_link is not None else Link(
            latency_seconds=0.030, bandwidth_bytes_per_second=50_000_000.0, name="edge-origin"
        )
        self._cache = LRUCache(maxsize=max_objects)
        self.bytes_served = 0
        self.bytes_from_origin = 0
        self.requests_served = 0

    @property
    def cache_stats(self) -> CacheStats:
        """Freshness-aware cache counters in the engine's uniform shape."""
        return self._cache.stats

    @property
    def cache_hits(self) -> int:
        """Requests answered from a fresh cached copy."""
        return self._cache.stats.hits

    def serve(self, path: str, now: float) -> EdgeFetchResult:
        """Serve ``path`` to a client, pulling from the origin when needed."""
        self.requests_served += 1
        # A TTL-expired entry is a miss, not a hit: the freshness-aware
        # lookup drops the dead copy (counted as an invalidation).
        cached = self._cache.get(path, is_valid=lambda entry: entry.is_fresh(now))
        if cached is not None:
            self.bytes_served += cached.stored.size
            return EdgeFetchResult(
                content=cached.stored.content,
                version=cached.stored.version,
                cache_hit=True,
                origin_bytes=0,
                origin_latency=0.0,
                served_bytes=cached.stored.size,
            )
        stored = self.origin.fetch(path)
        self._cache.put(path, CachedObject(stored=stored, fetched_at=now))
        self.bytes_from_origin += stored.size
        self.bytes_served += stored.size
        origin_latency = self.origin_link.round_trip_time(
            request_bytes=len(path), response_bytes=stored.size
        )
        return EdgeFetchResult(
            content=stored.content,
            version=stored.version,
            cache_hit=False,
            origin_bytes=stored.size,
            origin_latency=origin_latency,
            served_bytes=stored.size,
        )

    def plant_object(
        self, path: str, content: bytes, now: float, ttl_seconds: float
    ) -> None:
        """Inject a forged object into this edge's cache (attack modelling).

        Models a compromised point of presence (or a CA colluding with one
        region's edges, §V "Misbehaving CA"): clients resolving to this edge
        are served ``content`` for ``ttl_seconds`` while every other edge and
        the origin keep the honest copy.  The planted copy advertises a
        version past anything the origin has issued so it masquerades as the
        newest publication.  Used by the adversarial scenario injectors in
        :mod:`repro.scenarios.faults`; the origin is never touched.
        """
        stored = StoredObject(
            path=path,
            content=content,
            version=self.origin.latest_version() + 1_000_000,
            published_at=now,
            ttl_seconds=ttl_seconds,
        )
        self._cache.put(path, CachedObject(stored=stored, fetched_at=now))

    def invalidate(self, path: Optional[str] = None) -> None:
        """Drop one path (or the whole cache) — models origin-driven purges."""
        if path is None:
            self._cache.clear()
        else:
            self._cache.discard(path)
