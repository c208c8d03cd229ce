"""Tests for the CDN substrate: origin, edges, fabric, geography."""

import pytest

from repro.cdn.edge import EdgeServer
from repro.cdn.geography import GeoLocation, Region, all_regions
from repro.cdn.network import CDNNetwork
from repro.cdn.origin import DistributionPoint
from repro.errors import CDNError


class TestDistributionPoint:
    def test_publish_and_fetch(self):
        origin = DistributionPoint()
        origin.publish("/a", b"content-a", now=0.0)
        assert origin.fetch("/a").content == b"content-a"

    def test_versions_increase(self):
        origin = DistributionPoint()
        first = origin.publish("/a", b"v1", now=0.0)
        second = origin.publish("/a", b"v2", now=1.0)
        assert second.version > first.version
        assert origin.latest_version() == second.version

    def test_missing_object(self):
        with pytest.raises(CDNError):
            DistributionPoint().fetch("/nope")

    def test_paths_listing(self):
        origin = DistributionPoint()
        origin.publish("/b", b"x", now=0.0)
        origin.publish("/a", b"y", now=0.0)
        assert origin.paths() == ["/a", "/b"]


class TestEdgeServer:
    def make_edge(self, ttl: float):
        origin = DistributionPoint()
        origin.publish("/object", b"\x01" * 1000, now=0.0, ttl_seconds=ttl)
        return origin, EdgeServer("edge-1", Region.EUROPE, origin)

    def test_ttl_zero_always_misses(self):
        origin, edge = self.make_edge(ttl=0.0)
        edge.serve("/object", now=1.0)
        edge.serve("/object", now=2.0)
        assert edge.cache_hits == 0
        assert edge.bytes_from_origin == 2000

    def test_ttl_caching_hits_within_ttl(self):
        origin, edge = self.make_edge(ttl=60.0)
        first = edge.serve("/object", now=1.0)
        second = edge.serve("/object", now=30.0)
        third = edge.serve("/object", now=100.0)
        assert not first.cache_hit and second.cache_hit and not third.cache_hit
        assert edge.bytes_from_origin == 2000
        assert edge.bytes_served == 3000

    def test_cache_hit_has_no_origin_latency(self):
        origin, edge = self.make_edge(ttl=60.0)
        edge.serve("/object", now=1.0)
        hit = edge.serve("/object", now=2.0)
        assert hit.origin_latency == 0.0 and hit.origin_bytes == 0

    def test_invalidate_forces_refetch(self):
        origin, edge = self.make_edge(ttl=3600.0)
        edge.serve("/object", now=1.0)
        edge.invalidate("/object")
        result = edge.serve("/object", now=2.0)
        assert not result.cache_hit


class TestGeography:
    def test_all_regions_have_parameters(self):
        from repro.cdn.geography import EDGE_RTT_SECONDS, FIRST_TIER_PRICE_PER_GB, POPULATION_SHARE

        for region in all_regions():
            assert region in EDGE_RTT_SECONDS
            assert region in FIRST_TIER_PRICE_PER_GB
            assert region in POPULATION_SHARE

    def test_population_shares_sum_to_one(self):
        from repro.cdn.geography import POPULATION_SHARE

        assert sum(POPULATION_SHARE.values()) == pytest.approx(1.0, abs=0.01)

    def test_distance_factor_moves_rtt(self):
        near = GeoLocation(Region.EUROPE, distance_factor=0.0)
        far = GeoLocation(Region.EUROPE, distance_factor=1.0)
        assert near.rtt_to_edge() < far.rtt_to_edge()
        assert near.bandwidth_to_edge() > far.bandwidth_to_edge()


class TestCDNNetwork:
    def test_download_returns_content_and_latency(self):
        cdn = CDNNetwork()
        cdn.publish("/x", b"\x02" * 5_000, now=0.0)
        result = cdn.download("/x", GeoLocation(Region.UNITED_STATES), now=1.0)
        assert result.content == b"\x02" * 5_000
        assert result.latency_seconds > 0
        assert not result.cache_hit

    def test_edge_selection_by_region(self):
        cdn = CDNNetwork(edges_per_region=2)
        edge = cdn.edge_for(GeoLocation(Region.JAPAN), index_hint=1)
        assert edge.region == Region.JAPAN

    def test_unknown_region_rejected(self):
        cdn = CDNNetwork(regions=[Region.EUROPE])
        with pytest.raises(CDNError):
            cdn.edges_in(Region.JAPAN)

    def test_usage_accounting(self):
        cdn = CDNNetwork()
        cdn.publish("/x", b"\x00" * 1_000, now=0.0)
        cdn.download("/x", GeoLocation(Region.EUROPE), now=1.0)
        cdn.download("/x", GeoLocation(Region.INDIA), now=2.0)
        assert sum(region.requests for region in cdn.usage.per_region.values()) == 2
        assert cdn.usage.total_bytes() > 2_000

    def test_larger_objects_take_longer(self):
        cdn = CDNNetwork()
        cdn.publish("/small", b"\x00" * 100, now=0.0)
        cdn.publish("/large", b"\x00" * 1_000_000, now=0.0)
        location = GeoLocation(Region.EUROPE, distance_factor=0.5)
        small = cdn.download("/small", location, now=1.0)
        large = cdn.download("/large", location, now=2.0)
        assert large.latency_seconds > small.latency_seconds

    def test_cached_download_is_faster(self):
        cdn = CDNNetwork()
        cdn.publish("/x", b"\x00" * 100_000, now=0.0, ttl_seconds=600.0)
        location = GeoLocation(Region.EUROPE)
        cold = cdn.download("/x", location, now=1.0)
        warm = cdn.download("/x", location, now=2.0)
        assert warm.cache_hit
        assert warm.latency_seconds < cold.latency_seconds


class TestPricing:
    def test_first_tier_price(self):
        from repro.cdn.pricing import GB, BillingCycleUsage, PricingModel

        pricing = PricingModel(include_request_fees=False)
        usage = BillingCycleUsage()
        usage.add(Region.UNITED_STATES, int(100 * GB), requests=0)
        assert pricing.monthly_bill(usage) == pytest.approx(100 * 0.085, rel=0.01)

    def test_tier_discount_applies_to_large_volumes(self):
        from repro.cdn.pricing import GB, PricingModel

        pricing = PricingModel(include_request_fees=False)
        small = pricing.transfer_cost(Region.UNITED_STATES, int(10_240 * GB))
        large = pricing.transfer_cost(Region.UNITED_STATES, int(20_480 * GB))
        # The second 10 TB is cheaper per GB than the first.
        assert large < 2 * small

    def test_regional_prices_differ(self):
        from repro.cdn.pricing import GB, PricingModel

        pricing = PricingModel(include_request_fees=False)
        us = pricing.transfer_cost(Region.UNITED_STATES, int(GB))
        brazil = pricing.transfer_cost(Region.SOUTH_AMERICA, int(GB))
        assert brazil > us

    def test_request_fees(self):
        from repro.cdn.pricing import BillingCycleUsage, PricingModel

        pricing = PricingModel(include_request_fees=True)
        usage = BillingCycleUsage()
        usage.add(Region.UNITED_STATES, 0, requests=1_000_000)
        assert pricing.monthly_bill(usage) == pytest.approx(100 * 0.01, rel=0.01)

    def test_negotiated_discount(self):
        from repro.cdn.pricing import GB, BillingCycleUsage, PricingModel

        usage = BillingCycleUsage()
        usage.add(Region.EUROPE, int(10 * GB))
        list_price = PricingModel().monthly_bill(usage)
        discounted = PricingModel(negotiated_discount=0.5).monthly_bill(usage)
        assert discounted == pytest.approx(list_price * 0.5)

    def test_invalid_discount_rejected(self):
        from repro.cdn.pricing import PricingModel

        with pytest.raises(ValueError):
            PricingModel(negotiated_discount=1.5)


class TestEdgeObjectCacheBound:
    """The edge object cache is a bounded LRU with uniform counters."""

    def _edge(self, max_objects=None):
        origin = DistributionPoint()
        for index in range(6):
            origin.publish(f"/object-{index}", b"x" * 10, now=0.0, ttl_seconds=60.0)
        kwargs = {} if max_objects is None else {"max_objects": max_objects}
        return EdgeServer("edge-lru", Region.EUROPE, origin, **kwargs)

    def test_lru_bound_evicts_cold_objects(self):
        edge = self._edge(max_objects=2)
        for index in range(4):
            edge.serve(f"/object-{index}", now=1.0)
        assert edge.cache_stats.evictions == 2
        # The most recent two still hit; the evicted ones refetch.
        assert edge.serve("/object-3", now=2.0).cache_hit
        assert not edge.serve("/object-0", now=2.0).cache_hit

    def test_ttl_expiry_counts_as_miss_and_invalidation(self):
        edge = self._edge()
        edge.serve("/object-0", now=1.0)
        assert edge.serve("/object-0", now=10.0).cache_hit
        stale = edge.serve("/object-0", now=120.0)  # beyond the 60 s TTL
        assert not stale.cache_hit
        assert edge.cache_stats.invalidations == 1
        assert edge.cache_stats.hits == edge.cache_hits == 1
        assert edge.cache_hits / edge.requests_served == pytest.approx(1 / 3)

    def test_invalidate_counts(self):
        edge = self._edge()
        edge.serve("/object-0", now=1.0)
        edge.serve("/object-1", now=1.0)
        edge.invalidate("/object-0")
        assert edge.cache_stats.invalidations == 1
        edge.invalidate()
        assert not edge.serve("/object-1", now=2.0).cache_hit
        assert edge.cache_stats.invalidations == 2
