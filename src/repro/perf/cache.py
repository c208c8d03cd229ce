"""Shared cache primitives: hit/miss/eviction counters and a bounded LRU.

Every cache in the hot-path engine (verified roots, Merkle proofs, chain
validations, CDN edge objects) reports the same :class:`CacheStats` shape,
so benchmarks, ``PullResult`` metrics, and :class:`ScenarioReport` sections
can aggregate them uniformly.  :class:`LRUCache` is the one bounded map:
the proof, chain-validation and edge-object caches are built on it, and
none of them keeps an index beside it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional


#: "No such entry", for the lookup whose cached values may be ``None``.
_MISSING = object()


@dataclass
class CacheStats:
    """Operational counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        """Total counted lookups (hits + misses)."""
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Hits as a fraction of counted lookups (0.0 when never queried)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready representation, including the derived hit rate."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate(), 4),
        }


class LRUCache:
    """A bounded least-recently-used map with :class:`CacheStats` counters.

    ``maxsize`` bounds the number of entries; ``0`` disables the cache
    entirely (every :meth:`get` misses, every :meth:`put` is a no-op), which
    is the supported way to switch a hot-path cache off for ablations, and
    ``None`` means unbounded — for callers whose entries already expire some
    other way (e.g. by TTL) and who accept unbounded growth; the CDN edge
    bounds its object cache at ``DEFAULT_MAX_OBJECTS`` instead.
    """

    def __init__(self, maxsize: Optional[int] = 1024) -> None:
        if maxsize is not None and maxsize < 0:
            raise ValueError("maxsize must be None (unbounded) or >= 0")
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable, is_valid=None) -> Optional[Any]:
        """Return the cached value (bumping recency) or ``None``; counted.

        ``is_valid`` (entry → bool) makes the lookup freshness-aware: a
        present-but-invalid entry — a TTL-expired CDN object, a chain
        validation outside its validity window — counts as a *miss*, and
        the dead entry is dropped (counted as an invalidation) so it cannot
        shadow the slot or inflate the hit rate.
        """
        try:
            value = self._entries[key]
        except KeyError:
            self.stats.misses += 1
            return None
        if is_valid is not None and not is_valid(value):
            del self._entries[key]
            self.stats.invalidations += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def peek(self, key: Hashable) -> Optional[Any]:
        """Like :meth:`get` but without touching recency or the counters."""
        return self._entries.get(key)

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/replace an entry, evicting the least recently used if full."""
        if self.maxsize == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        if self.maxsize is not None and len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def discard(self, key: Hashable) -> bool:
        """Drop one entry; returns whether it existed (counted as invalidation)."""
        if self._entries.pop(key, _MISSING) is _MISSING:
            return False
        self.stats.invalidations += 1
        return True

    def clear(self) -> int:
        """Drop every entry; returns how many were invalidated."""
        dropped = len(self._entries)
        self._entries.clear()
        self.stats.invalidations += dropped
        return dropped

    def keys(self):
        """The cached keys, least recently used first."""
        return list(self._entries.keys())
