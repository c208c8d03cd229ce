"""The default engine's write path: slice-spliced merge, append fast path,
slice-based rollback, and construction-time digest-size validation.

The merge in :meth:`SortedLeafStore._merge_into` places a batch by bisecting
each key and copying the gap slices between positions; these tests pin it to
two references for every batch shape it special-cases or could get wrong —
the same leaves inserted one at a time (``list.insert``, no merge at all)
and the naive engine's from-scratch rebuild — and check that a rejected
batch and a rolled-back batch leave no trace.
"""

import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, ProofError
from repro.store import ENGINES, create_store
from repro.store.base import SortedLeafStore

#: Variable-width keys: the merge must order by bytes, not by width.
keys_pools = st.lists(st.binary(min_size=1, max_size=4), unique=True, min_size=2, max_size=80)

SHAPES = (
    "before_first",
    "after_last",
    "interleaved",
    "one_gap",
    "batch_much_larger",
    "single",
    "into_empty",
    "random",
)


def value_of(key: bytes) -> bytes:
    return bytes([sum(key) % 251]) * (1 + len(key) % 3)


def split_pool(pool, shape, rng):
    """Partition a sorted key pool into (existing, batch) for ``shape``."""
    size = len(pool)
    cut = rng.randrange(1, size)
    if shape == "before_first":
        return pool[cut:], pool[:cut]
    if shape == "after_last":
        return pool[:cut], pool[cut:]
    if shape == "interleaved":
        return pool[::2], pool[1::2]
    if shape == "one_gap":  # a run of adjacent batch keys landing in one gap
        start = rng.randrange(0, cut)
        return pool[:start] + pool[cut:], pool[start:cut]
    if shape == "batch_much_larger":
        return pool[::10], [key for index, key in enumerate(pool) if index % 10]
    if shape == "single":
        return pool[:cut] + pool[cut + 1 :], [pool[cut]]
    if shape == "into_empty":
        return [], pool
    mask = [rng.random() < 0.5 for _ in pool]
    return (
        [key for key, keep in zip(pool, mask) if keep],
        [key for key, keep in zip(pool, mask) if not keep],
    )


def leaves(keys):
    return [(key, value_of(key)) for key in keys]


def state_of(store):
    """Everything a write may touch: keys, values and every level row."""
    levels = store._hash_levels() if len(store) else []
    return list(store.keys()), [v for _, v in store.items()], copy.deepcopy(levels)


@settings(max_examples=120, deadline=None)
@given(keys_pools, st.sampled_from(SHAPES), st.randoms(use_true_random=False))
def test_merged_batch_equals_single_inserts_and_fresh_build(pool, shape, rng):
    existing, batch = split_pool(sorted(pool), shape, rng)
    if not batch:
        return
    shuffled = leaves(batch)
    rng.shuffle(shuffled)

    oracle = create_store("naive")
    oracle.insert_batch(leaves(existing + batch))
    for engine in ("incremental", "compact"):
        merged = create_store(engine)
        one_by_one = create_store(engine)
        if existing:
            merged.insert_batch(leaves(existing))
            one_by_one.insert_batch(leaves(existing))
        assert merged.insert_batch(list(shuffled)) == len(batch)
        for key, value in shuffled:
            one_by_one.insert(key, value)
        assert state_of(merged) == state_of(one_by_one) == state_of(oracle)


@pytest.mark.parametrize("engine", ["naive", "incremental", "compact"])
@pytest.mark.parametrize("collision", ["inside_batch", "first", "middle", "last"])
def test_rejected_batch_leaves_no_trace(engine, collision):
    stored = [bytes([0, value]) for value in range(10, 200, 10)]
    store = create_store(engine)
    store.insert_batch(leaves(stored))
    before = state_of(store)
    fresh = [bytes([0, 5]), bytes([0, 105]), bytes([0, 250])]
    batch = {
        "inside_batch": fresh + [fresh[1]],
        "first": fresh + [stored[0]],
        "middle": fresh + [stored[len(stored) // 2]],
        "last": fresh + [stored[-1]],
    }[collision]
    with pytest.raises(ProofError):
        store.insert_batch(leaves(batch))
    assert state_of(store) == before


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_a_batch_is_placed_exactly_once(engine, tmp_path, monkeypatch):
    """place → (log) → merge: one ``_place_batch`` and one key search per key
    for every ``insert_batch`` of every engine, mid-tree or append, and for
    every record a durable engine replays."""
    durable = engine.startswith("durable")
    options = {"directory": tmp_path, "snapshot_every": 0} if durable else {}
    stored = [bytes([1, value]) for value in range(10, 250, 10)]
    middle = [bytes([1, value]) for value in range(15, 250, 40)]
    tail = [bytes([2, value]) for value in range(5)]
    store = create_store(engine, **options)
    store.insert_batch(leaves(stored))

    placements, probes = [], []
    place, owner = SortedLeafStore._place_batch, ENGINES[engine]
    search = owner._search  # the one search seam, as the engine resolves it

    def counted_place(self, items):
        placements.append(1)
        return place(self, items)

    def counted_search(self, key):
        probes.append(1)
        return search(self, key)

    monkeypatch.setattr(SortedLeafStore, "_place_batch", counted_place)
    monkeypatch.setattr(owner, "_search", counted_search)
    store.insert_batch(leaves(middle))
    store.insert_batch(leaves(tail))
    assert (len(placements), len(probes)) == (2, len(middle) + len(tail))
    if durable:
        expected = state_of(store)
        store.close()
        placements.clear()
        probes.clear()
        reopened = create_store(engine, **options)
        assert reopened.records_replayed == 3
        assert (len(placements), len(probes)) == (3, len(stored + middle + tail))
        assert state_of(reopened) == expected
        reopened.close()


def test_rollback_of_a_1000_serial_batch_restores_every_level():
    """``remove_batch`` of a just-merged 1,000-serial batch out of 100,000."""
    rng = random.Random(11)
    values = rng.sample(range(1, 2**24), 101_000)

    def to_leaf(value):
        return value.to_bytes(3, "big"), b"\x00\x00\x00\x01"

    store = create_store("incremental")
    store.insert_batch(map(to_leaf, values[:100_000]))
    keys, stored_values, levels = state_of(store)
    batch = [to_leaf(value) for value in values[100_000:]]
    store.insert_batch(batch)
    assert store.remove_batch([key for key, _ in batch]) == 1_000
    assert list(store.keys()) == keys
    assert [v for _, v in store.items()] == stored_values
    assert store._hash_levels() == levels


@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestDigestSizeIsValidatedAtConstruction:
    @pytest.mark.parametrize("digest_size", [0, -1, 33, 40])
    def test_unhashable_digest_size_is_a_configuration_error(self, engine, digest_size):
        with pytest.raises(ConfigurationError):
            create_store(engine, digest_size=digest_size)

    @pytest.mark.parametrize("digest_size", [1, 32])
    def test_extreme_valid_sizes_build_and_self_verify(self, engine, digest_size):
        with create_store(engine, digest_size=digest_size) as store:
            store.insert_batch(leaves([bytes([0, value]) for value in range(1, 40)]))
            root = store.root()
            assert len(root) == digest_size
            assert store.prove(bytes([0, 7])).verify(root, digest_size)
            assert store.prove(bytes([0, 77])).verify(root, digest_size)
