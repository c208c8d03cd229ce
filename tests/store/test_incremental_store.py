"""Unit tests for the incremental engine's cached-level maintenance."""

import pytest

from repro.store import IncrementalMerkleStore, NaiveMerkleStore


def key(value: int) -> bytes:
    return value.to_bytes(3, "big")


def fresh_levels(store: IncrementalMerkleStore):
    """Recompute the hash levels from scratch through the oracle."""
    oracle = NaiveMerkleStore(digest_size=store.digest_size)
    oracle.insert_batch(zip(store.keys(), (store.get(k) for k in store.keys())))
    return oracle._hash_levels()


def assert_levels_fresh(store: IncrementalMerkleStore):
    assert store._hash_levels() == fresh_levels(store)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33])
def test_levels_match_oracle_after_appends(size):
    store = IncrementalMerkleStore()
    for value in range(1, size + 1):
        store.insert(key(value), b"val1")
    assert_levels_fresh(store)


@pytest.mark.parametrize("size", [2, 3, 5, 8, 13, 21, 34])
def test_levels_match_oracle_after_front_inserts(size):
    store = IncrementalMerkleStore()
    for value in range(size, 0, -1):
        store.insert(key(value), b"val1")
    assert_levels_fresh(store)


def test_levels_match_oracle_after_middle_inserts():
    store = IncrementalMerkleStore()
    store.insert_batch([(key(v), b"v") for v in range(0, 100, 10)])
    for value in (5, 55, 95, 41, 42, 43):
        store.insert(key(value), b"v")
        assert_levels_fresh(store)


@pytest.fixture
def node_hashes(monkeypatch):
    """Count the interior-node hashes the incremental engine computes.

    The level loop calls the module's ``raw_sha256`` alias directly, so the
    counter wraps that constructor; leaf hashes are computed in
    ``repro.store.base`` / ``repro.crypto.hashing`` and are not counted.
    """
    import repro.store.incremental as incremental_module

    real = incremental_module.raw_sha256
    counter = {"calls": 0}

    def counting(data):
        counter["calls"] += 1
        return real(data)

    monkeypatch.setattr(incremental_module, "raw_sha256", counting)
    return counter


def full_store(leaves: int = 1024) -> IncrementalMerkleStore:
    store = IncrementalMerkleStore()
    store.insert_batch([(key(v), b"v") for v in range(1, leaves + 1)])
    return store


def test_append_touches_only_logarithmic_path(node_hashes):
    """An append (key after every stored key) must not rehash the whole tree."""
    store = full_store()
    node_hashes["calls"] = 0
    store.insert(key(5000), b"v")
    # 1025 leaves → 11 levels; the right-edge path recomputes at most a
    # couple of nodes per level, nowhere near the ~1024 of a full rebuild.
    assert 0 < node_hashes["calls"] <= 2 * 11
    assert_levels_fresh(store)


@pytest.mark.parametrize("batch_size", [1, 7, 64, 300])
def test_append_batch_hashes_only_the_right_edge(node_hashes, batch_size):
    """``B`` leaves appended in one batch cost ≤ 2·B + 2·height node hashes:
    the B-wide suffix halves per level, plus one right-edge path to the root."""
    store = full_store()
    node_hashes["calls"] = 0
    store.insert_batch([(key(5000 + v), b"v") for v in range(batch_size)])
    height = len(store._hash_levels())
    assert 0 < node_hashes["calls"] <= 2 * batch_size + 2 * height
    assert_levels_fresh(store)


def test_append_batch_does_not_rebuild_the_leaf_row(node_hashes, monkeypatch):
    """Judged by work done, not by list identity: an append batch hashes its
    own ``B`` leaves and nothing that was already stored."""
    import repro.store.base as base_module

    leaf_calls = []
    real = base_module.raw_sha256

    def counting(data):
        leaf_calls.append(data)
        return real(data)

    store = full_store()
    monkeypatch.setattr(base_module, "raw_sha256", counting)
    node_hashes["calls"] = 0
    store.insert_batch([(key(5000 + v), b"v") for v in range(50)])
    assert len(leaf_calls) == 50
    assert node_hashes["calls"] < 1024 // 2  # level 1 alone, had it been rebuilt
    assert_levels_fresh(store)


@pytest.mark.parametrize("leaves", [1, 2, 7, 64, 333, 1024])
def test_insert_hashes_exactly_the_positional_suffix(node_hashes, leaves):
    """The engine does the minimum the tree shape allows, and the perf gates'
    ``suffix_hash_count`` (their floor's multiplier) counts that minimum."""
    from repro.analysis.timing import suffix_hash_count

    store = IncrementalMerkleStore()
    store.insert_batch([(key(2 * v), b"v") for v in range(1, leaves + 1)])
    for value in sorted({1, leaves | 1, 2 * leaves - 1, 2 * leaves + 1}):  # odd: all new
        node_hashes["calls"] = 0
        index = store.insert(key(value), b"v")
        assert node_hashes["calls"] == suffix_hash_count(len(store), index)


def test_batch_recomputes_only_dirty_suffix(node_hashes):
    """A batch landing at the far right must not rehash the left subtrees."""
    store = full_store()
    node_hashes["calls"] = 0
    store.insert_batch([(key(5000 + v), b"v") for v in range(64)])
    # 64 appended leaves dirty a 64-wide suffix: ~64+32+16+... ≈ 128 nodes,
    # plus one path to the root; a full rebuild would be ~1088.
    assert 0 < node_hashes["calls"] < 200


def test_root_is_served_from_cache(node_hashes):
    store = full_store(99)
    node_hashes["calls"] = 0
    for _ in range(3):
        assert store.root() == store.root()
        store.prove(key(50))
        store.prove(key(100000))
    assert node_hashes["calls"] == 0


def test_height_growth_and_single_leaf():
    store = IncrementalMerkleStore()
    store.insert(key(1), b"v")
    assert store.root() == fresh_levels(store)[-1][0]
    store.insert(key(2), b"v")
    assert_levels_fresh(store)


def sparse(stored):  # one key a gap, gaps of stored/9 leaves, shifts 1..8
    return [16 * ((j + 1) * stored // 9) + 1 for j in range(8)]


def dense(stored):  # every other gap: no run is long enough to follow
    return [16 * gap + 1 for gap in range(0, stored, 2)]


def aligned(stored):  # clusters of 8 in four gaps: every shift is a multiple of 8
    return [16 * ((c + 1) * stored // 5) + 1 + j for c in range(4) for j in range(8)]


def unaligned(stored):  # shifts 1, 2, 3 over runs that start off node boundaries
    return [16 * 7 + 3, 16 * 1_001 + 1, 16 * 2_222 + 5]


def lone(stored):
    return [16 * (stored // 3) + 1]


@pytest.mark.parametrize("stored", [4_096, 4_999])
@pytest.mark.parametrize("shape", [sparse, dense, aligned, unaligned, lone])
def test_batch_hashes_exactly_what_the_reuse_rule_leaves(node_hashes, shape, stored):
    """A batch hashes the positional suffix less the nodes it can take from
    the old tree, and ``shifted_hash_count`` states that count."""
    from bisect import bisect_left

    from repro.analysis.timing import shifted_hash_count, suffix_hash_count

    existing = [16 * (index + 1) for index in range(stored)]
    store = IncrementalMerkleStore()
    store.insert_batch([(key(v), b"v") for v in existing])
    batch = shape(stored)
    positions = [bisect_left(existing, value) for value in batch]
    node_hashes["calls"] = 0
    store.insert_batch([(key(v), b"v") for v in batch])
    expected = shifted_hash_count(stored, positions)
    suffix = suffix_hash_count(stored + len(batch), positions[0])
    assert node_hashes["calls"] == expected
    if shape in (lone, dense):  # a shift of 1 is odd; gaps of two leaves hold no run
        assert expected == suffix
    else:
        assert expected < suffix
    assert_levels_fresh(store)


def test_thousand_random_into_100k_hash_under_three_quarters_of_the_suffix(node_hashes):
    import random
    from bisect import bisect_left

    from repro.analysis.timing import shifted_hash_count, suffix_hash_count

    rng = random.Random(19)
    values = rng.sample(range(1, 2**24), 101_000)
    existing = sorted(values[:100_000])
    batch = sorted(values[100_000:])
    store = IncrementalMerkleStore()
    store.insert_batch([(key(v), b"v") for v in existing])
    positions = [bisect_left(existing, value) for value in batch]
    node_hashes["calls"] = 0
    store.insert_batch([(key(v), b"v") for v in batch])
    assert node_hashes["calls"] == shifted_hash_count(100_000, positions)
    assert node_hashes["calls"] <= 0.75 * suffix_hash_count(101_000, positions[0])
