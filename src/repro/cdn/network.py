"""The CDN fabric: an origin plus regional edge servers, with client-side timing.

This is the dissemination network of §III: CAs publish to the origin, RAs
pull from the edge server closest to them.  Besides moving bytes, the fabric
computes the client-observed download latency (edge RTT + transfer time +
origin fetch on a cache miss) — the quantity measured in Fig. 5 — and
accumulates per-region usage for the pricing model of Fig. 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cdn.edge import EdgeFetchResult, EdgeServer
from repro.cdn.geography import (
    GeoLocation,
    Region,
    all_regions,
    nearest_regions,
    region_distance,
)
from repro.cdn.origin import DistributionPoint
from repro.cdn.pricing import BillingCycleUsage
from repro.errors import CDNError

#: Bytes every GET adds on the wire beyond the object (request line and
#: headers, response headers): part of each download's ``bytes_on_wire``.
REQUEST_OVERHEAD_BYTES = 200


@dataclass
class DownloadResult:
    """A client-observed download: the content and where the time went."""

    content: bytes
    version: int
    latency_seconds: float
    cache_hit: bool
    bytes_on_wire: int


class CDNNetwork:
    """Origin + edge servers + per-region usage accounting."""

    def __init__(
        self,
        origin: Optional[DistributionPoint] = None,
        edges_per_region: int = 1,
        regions: Optional[List[Region]] = None,
    ) -> None:
        self.origin = origin if origin is not None else DistributionPoint()
        self._edges: Dict[Region, List[EdgeServer]] = {}
        self.usage = BillingCycleUsage()
        #: Regions whose edge presence is currently down (region failover).
        self._failed_regions: set = set()
        #: Origin (CA) egress attributed per caller-supplied source label —
        #: the accounting behind the "replication beats N cold syncs" verdict.
        self.origin_bytes_by_source: Dict[str, int] = {}
        for region in regions if regions is not None else list(all_regions()):
            self._edges[region] = [
                EdgeServer(f"edge-{region.name.lower()}-{index}", region, self.origin)
                for index in range(edges_per_region)
            ]

    # -- publication --------------------------------------------------------

    def publish(self, path: str, content: bytes, now: float, ttl_seconds: float = 0.0):
        """CA-side upload to the distribution point."""
        return self.origin.publish(path, content, now, ttl_seconds)

    def invalidate(self, path: Optional[str] = None) -> None:
        for edges in self._edges.values():
            for edge in edges:
                edge.invalidate(path)

    # -- topology -----------------------------------------------------------

    def regions(self) -> List[Region]:
        return list(self._edges)

    def edges_in(self, region: Region) -> List[EdgeServer]:
        if region not in self._edges:
            raise CDNError(f"the CDN has no presence in {region.value}")
        return self._edges[region]

    def fail_region(self, region: Region) -> None:
        """Take a region's edge presence down (region-outage modelling).

        Clients in the region transparently fail over: DNS resolution via
        :meth:`edge_for` re-routes them to the nearest healthy region, at
        the cost of the extra inter-region RTT.
        """
        self._failed_regions.add(region)

    def restore_region(self, region: Region) -> None:
        """Bring a failed region's edge presence back."""
        self._failed_regions.discard(region)

    def _routed_region(self, region: Region) -> Region:
        """The region a client actually reaches: its own, or failover."""
        if region in self._edges and region not in self._failed_regions:
            return region
        healthy = [r for r in self._edges if r not in self._failed_regions]
        if not healthy:
            raise CDNError("every CDN region is failed; nothing to fail over to")
        return nearest_regions(region, healthy)[0]

    def edge_for(self, location: GeoLocation, index_hint: int = 0) -> EdgeServer:
        """The edge server a client at ``location`` resolves to (via DNS).

        When the client's own region is failed, resolution falls back to
        the nearest healthy region (by the coarse inter-region RTT proxy).
        """
        edges = self.edges_in(self._routed_region(location.region))
        return edges[index_hint % len(edges)]

    def all_edges(self) -> List[EdgeServer]:
        return [edge for edges in self._edges.values() for edge in edges]

    # -- client-side fetch -----------------------------------------------------

    def download(
        self,
        path: str,
        location: GeoLocation,
        now: float,
        edge_index_hint: int = 0,
        request_bytes: int = REQUEST_OVERHEAD_BYTES,
        source: str = "",
    ) -> DownloadResult:
        """Fetch ``path`` as a client at ``location`` would, with timing.

        The latency model is one RTT to the edge for the HTTP GET, the body
        transfer at the client's downstream bandwidth, and — on a cache miss —
        the edge's round trip to the origin.  A failed-over client (its own
        region down) additionally pays the inter-region RTT to the edge it
        was re-routed to.  ``source`` (optional) attributes any origin bytes
        this fetch caused to a caller-chosen label in
        :attr:`origin_bytes_by_source`.
        """
        edge = self.edge_for(location, edge_index_hint)
        result: EdgeFetchResult = edge.serve(path, now)

        rtt = location.rtt_to_edge()
        bandwidth = location.bandwidth_to_edge()
        latency = rtt  # request + first-byte
        latency += region_distance(location.region, edge.region)  # failover detour
        latency += result.origin_latency  # zero on a cache hit
        latency += len(result.content) / bandwidth

        self.usage.add(edge.region, result.served_bytes + request_bytes, requests=1)
        if source:
            self.origin_bytes_by_source[source] = (
                self.origin_bytes_by_source.get(source, 0) + result.origin_bytes
            )
        return DownloadResult(
            content=result.content,
            version=result.version,
            latency_seconds=latency,
            cache_hit=result.cache_hit,
            bytes_on_wire=result.served_bytes + request_bytes,
        )

    # -- accounting -------------------------------------------------------------

    def total_origin_bytes(self) -> int:
        return sum(edge.bytes_from_origin for edge in self.all_edges())
