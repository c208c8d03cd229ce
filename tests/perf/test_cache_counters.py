"""The counters `metrics.hot_path` pins, stated literally for one scripted
sequence per cache — and the caches own nothing but their live entries."""

from dataclasses import replace
from types import SimpleNamespace

from repro.crypto.signing import KeyPair
from repro.perf import CacheStats, ProofCache, VerifiedRootCache

from tests.conftest import sized_attributes
from tests.perf.test_proof_cache import ROOT_A, ROOT_B
from tests.perf.test_root_cache import make_root

SHARD = "CA-B#expiry-1"


def containers_held(cache):
    """Length of every container ``cache`` owns."""
    return list(sized_attributes(cache).values())


def test_proof_cache_scripted_sequence():
    cache = ProofCache(maxsize=3)
    assert cache.get("CA-A", "", ROOT_A, 1) is None
    cache.put("CA-A", "", ROOT_A, 1, "a1")
    cache.put("CA-A", "", ROOT_A, 2, "a2")
    cache.put("CA-B", SHARD, ROOT_B, 1, "b1")
    assert containers_held(cache) == [3]
    assert cache.get("CA-A", "", ROOT_A, 1) == "a1"  # a2 becomes the LRU entry
    cache.put("CA-A", "", ROOT_A, 3, "a3")  # evicts a2
    cache.put("CA-A", "", ROOT_A, 1, "a1'")  # overwrite: no eviction
    assert cache.stats == CacheStats(hits=1, misses=1, evictions=1, invalidations=0)

    assert cache.invalidate_dictionary("CA-B") == 0  # b1 belongs to the shard
    assert cache.invalidate_dictionary("CA-A") == 2
    assert cache.invalidate_dictionary("CA-A") == 0
    assert cache.invalidate_dictionary(SHARD) == 1
    assert containers_held(cache) == [0]
    cache.put("CA-A", "", ROOT_B, 1, "a1")
    cache.put("CA-B", SHARD, ROOT_B, 2, "b2")
    assert cache.clear() == 2
    assert cache.stats == CacheStats(hits=1, misses=1, evictions=1, invalidations=5)
    assert cache.stats.as_dict()["hit_rate"] == 0.5


def test_root_cache_scripted_sequence():
    keys = KeyPair.generate(b"cache-counters")
    cache = VerifiedRootCache(maxsize=2)
    a1 = make_root(keys, ca_name="CA-A", size=1)
    a2 = make_root(keys, ca_name="CA-A", size=2)
    b1 = make_root(keys, ca_name="CA-B", size=1)
    assert cache.verify(a1, keys.public)
    assert cache.verify(a1, keys.public)
    assert cache.verify(b1, keys.public)
    assert cache.verify(a2, keys.public)  # evicts a1
    # The status memo: one record under each CA (all a memo entry's value is
    # read for is each status's root).
    cache.statuses.put(b"record-a", [SimpleNamespace(signed_root=a2)])
    cache.statuses.put(b"record-b", [SimpleNamespace(signed_root=b1)])
    assert cache.statuses.get(b"record-a") is not None
    assert containers_held(cache) == [2, 2]
    assert cache.stats == CacheStats(hits=1, misses=3, evictions=1, invalidations=0)

    assert cache.invalidate_ca("CA-A") == 1  # counts verdicts; the memo is not counted
    assert cache.statuses.keys() == [b"record-b"]
    assert cache.invalidate_ca("CA-A") == 0
    assert not cache.verify(replace(b1, size=9), keys.public)  # forged: never cached
    assert containers_held(cache) == [1, 1]
    assert cache.clear() == 1
    assert containers_held(cache) == [0, 0]
    assert cache.stats == CacheStats(hits=1, misses=4, evictions=1, invalidations=2)
