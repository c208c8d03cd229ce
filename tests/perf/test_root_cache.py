"""Tests for the verified-root cache: memoization that cannot go stale."""

from repro.crypto.signing import CAKeyring, KeyPair
from repro.dictionary.signed_root import SignedRoot
from repro.errors import SignatureError
from repro.perf import VerifiedRootCache

import pytest


def make_root(keys: KeyPair, ca_name="Example CA", size=3, timestamp=1_400_000_000):
    unsigned = SignedRoot(
        ca_name=ca_name,
        root=b"\x11" * 20,
        size=size,
        anchor=b"\x22" * 20,
        timestamp=timestamp,
        chain_length=64,
    )
    return unsigned.sign(keys.private)


@pytest.fixture()
def keys():
    return KeyPair.generate(b"root-cache")


class TestVerifiedRootCache:
    def test_verifies_once_then_hits(self, keys):
        cache = VerifiedRootCache()
        root = make_root(keys)
        assert cache.verify(root, keys.public)
        assert cache.verify(root, keys.public)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_tampered_root_never_served_from_cache(self, keys):
        cache = VerifiedRootCache()
        root = make_root(keys)
        assert cache.verify(root, keys.public)
        # Same CA, same size, different content under the same signature:
        # the cache key covers the exact payload bytes, so this is a miss
        # and the full verification rejects it.
        forged = SignedRoot(
            ca_name=root.ca_name,
            root=b"\x99" * 20,
            size=root.size,
            anchor=root.anchor,
            timestamp=root.timestamp,
            chain_length=root.chain_length,
            signature=root.signature,
        )
        assert not cache.verify(forged, keys.public)
        with pytest.raises(SignatureError):
            cache.verify_or_raise(forged, keys.public)

    def test_failures_are_not_cached(self, keys):
        cache = VerifiedRootCache()
        bad = make_root(keys)
        bad = SignedRoot(
            ca_name=bad.ca_name,
            root=bad.root,
            size=bad.size,
            anchor=bad.anchor,
            timestamp=bad.timestamp,
            chain_length=bad.chain_length,
            signature=b"\x00" * 64,
        )
        assert not cache.verify(bad, keys.public)
        assert not cache.verify(bad, keys.public)
        assert len(cache) == 0
        assert cache.stats.misses == 2

    def test_wrong_length_signature_is_invalid_under_a_key_or_a_keyring(self, keys):
        # Wire decoders admit any signature length.  Under a two-key keyring
        # the overlap fallback re-verifies what the batch rejected; that path
        # must say "invalid" too, not raise mid-rotation.
        root = make_root(keys)
        fields = {name: getattr(root, name) for name in root.__dataclass_fields__}
        short = SignedRoot(**{**fields, "signature": root.signature[:-1]})
        keyring = CAKeyring.single(KeyPair.generate(b"retired").public)
        keyring.add_key(keys.public, activated_at=10, overlap_seconds=100)
        assert len(keyring.acceptable_keys()) == 2
        cache = VerifiedRootCache()
        assert cache.verify_many([short], keys.public) == [False]
        assert cache.verify_many([short, root], keyring) == [False, True]
        assert len(cache) == 1

    def test_different_key_is_a_different_entry(self, keys):
        other = KeyPair.generate(b"other")
        cache = VerifiedRootCache()
        root = make_root(keys)
        assert cache.verify(root, keys.public)
        assert not cache.verify(root, other.public)
        assert cache.stats.hits == 0

    def test_rotated_epoch_is_reverified(self, keys):
        cache = VerifiedRootCache()
        assert cache.verify(make_root(keys, timestamp=100), keys.public)
        assert cache.verify(make_root(keys, timestamp=200), keys.public)
        assert cache.stats.misses == 2

    def test_invalidate_ca_drops_only_that_ca(self, keys):
        cache = VerifiedRootCache()
        cache.verify(make_root(keys, ca_name="CA-A"), keys.public)
        cache.verify(make_root(keys, ca_name="CA-B"), keys.public)
        assert cache.invalidate_ca("CA-A") == 1
        assert cache.invalidate_ca("CA-A") == 0
        assert len(cache) == 1
        assert cache.stats.invalidations == 1
        # CA-B's verdict is still warm.
        cache.verify(make_root(keys, ca_name="CA-B"), keys.public)
        assert cache.stats.hits == 1

    def test_verify_many_mixes_hits_and_batch_misses(self, keys):
        cache = VerifiedRootCache()
        roots = [make_root(keys, size=size) for size in range(1, 6)]
        assert cache.verify(roots[0], keys.public)
        verdicts = cache.verify_many(roots, keys.public)
        assert verdicts == [True] * 5
        assert cache.stats.hits == 1
        assert len(cache) == 5

    def test_eviction_keeps_index_consistent(self, keys):
        cache = VerifiedRootCache(maxsize=2)
        for size in range(1, 5):
            cache.verify(make_root(keys, size=size), keys.public)
        assert len(cache) == 2
        assert cache.stats.evictions == 2
        # Index cleanup: invalidating the CA drops exactly the live entries.
        assert cache.invalidate_ca("Example CA") == 2
        assert len(cache) == 0

    def test_maxsize_zero_disables_memoization(self, keys):
        cache = VerifiedRootCache(maxsize=0)
        root = make_root(keys)
        assert cache.verify(root, keys.public)
        assert cache.verify(root, keys.public)
        assert cache.stats.misses == 2
        assert len(cache) == 0

    def test_clear(self, keys):
        cache = VerifiedRootCache()
        cache.verify(make_root(keys), keys.public)
        assert cache.clear() == 1
        assert len(cache) == 0
