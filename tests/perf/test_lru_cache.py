"""Tests for the shared LRU cache primitive and its counters."""

import pytest

from repro.perf import CacheStats, LRUCache


class TestCacheStats:
    def test_hit_rate_without_lookups(self):
        assert CacheStats().hit_rate() == 0.0

    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate() == 0.75

    def test_as_dict_shape(self):
        payload = CacheStats(hits=1, misses=1, evictions=2, invalidations=3).as_dict()
        assert payload == {
            "hits": 1,
            "misses": 1,
            "evictions": 2,
            "invalidations": 3,
            "hit_rate": 0.5,
        }


class TestLRUCache:
    def test_get_put_counts(self):
        cache = LRUCache(maxsize=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_eviction_order_is_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b becomes LRU
        cache.put("c", 3)
        assert cache.stats.evictions == 1
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_put_existing_key_updates_without_evicting(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert cache.stats.evictions == 0
        assert cache.get("a") == 10

    def test_maxsize_zero_disables(self):
        cache = LRUCache(maxsize=0)
        cache.put("a", 1)
        assert len(cache) == 0
        assert cache.get("a") is None
        assert cache.stats.misses == 1

    def test_maxsize_none_is_unbounded(self):
        cache = LRUCache(maxsize=None)
        for index in range(10_000):
            cache.put(index, index)
        assert len(cache) == 10_000
        assert cache.stats.evictions == 0

    def test_negative_maxsize_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=-1)

    def test_peek_does_not_count_or_reorder(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert cache.stats.lookups == 0
        cache.put("c", 3)  # "a" is still LRU because peek did not refresh it
        assert cache.peek("a") is None

    def test_discard_and_clear_count_invalidations(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.discard("a")
        assert not cache.discard("missing")
        assert cache.clear() == 1
        assert cache.stats.invalidations == 2
        assert len(cache) == 0

    def test_discard_of_an_entry_holding_none_is_counted(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", None)
        assert cache.discard("a")
        assert cache.stats.invalidations == 1
        assert "a" not in cache
        assert not cache.discard("a")
        assert cache.stats.invalidations == 1

    def test_get_with_validity_predicate_treats_dead_entry_as_miss(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", {"expires": 10})
        assert cache.get("a", is_valid=lambda entry: entry["expires"] > 5) == {
            "expires": 10
        }
        assert cache.get("a", is_valid=lambda entry: entry["expires"] > 20) is None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.invalidations == 1
        assert len(cache) == 0  # the dead entry was dropped
