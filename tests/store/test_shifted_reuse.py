"""Differential tests that reach the level rebuild's subtree reuse.

After a batch merge the old leaves between two batch keys move right as one
run; where the run's shift is a multiple of ``2**l`` the level-``l`` nodes
inside it are old nodes and the engine copies them instead of hashing
(``IncrementalMerkleStore._rebuild_levels``).  ``test_write_path.py``'s pools
hold at most 80 keys, so no run there outlives level 2.  These pools hold
1,000-5,000 keys and place the batch so that shifts are aligned at some
levels and not at others, runs start and stop on and off node boundaries, the
old tree ends in a promoted odd node at several levels, and the height grows
inside the batch.  Every level row must equal both the same leaves inserted
one at a time (no merge, no runs) and the naive engine's from-scratch build;
removing the batch again must restore every row.
"""

import random

import pytest

from repro.store import create_store

#: Stored keys are the multiples of this, so up to 15 batch keys fit in any gap.
STRIDE = 16

#: 1,023 and 1,365 (0b10101010101) end in a promoted odd node at every and at
#: every other level; 1,023 + 2 and 4,096 + 1 grow the height inside the batch.
SIZES = (1_000, 1_023, 1_365, 4_096, 5_000)
BATCH_SIZES = (1, 2, 3, 4, 8, 15, 16, 17, 64)
PLACEMENTS = ("spread", "clusters_of_4", "front_and_back", "around_the_tail", "random")


def key_of(value: int) -> bytes:
    return value.to_bytes(3, "big")


def leaves(values):
    return [(key_of(value), bytes([value % 251])) for value in values]


def stored_values(size):
    return [STRIDE * (index + 1) for index in range(size)]


def batch_values(size, batch_size, placement, rng):
    """``batch_size`` new values for a ``size``-leaf pool, as ``(gap, slot)``:
    slot ``s`` of gap ``g`` sorts just before stored leaf ``g`` (gap ``size``
    is past the tail)."""
    if placement == "spread":  # one key a gap, gaps all alike: shift k after key k
        places = [((j + 1) * size // (batch_size + 1), 1) for j in range(batch_size)]
    elif placement == "clusters_of_4":  # shifts step by 4: every run survives level 2
        step = size // (batch_size // 4 + 2)
        places = [((j // 4 + 1) * step + 1, 1 + j % 4) for j in range(batch_size)]
    elif placement == "front_and_back":  # no reused prefix; the last runs one leaf long
        places = [(0, 1)] + [(size - 1 - j // 15, 1 + j % 15) for j in range(batch_size - 1)]
    elif placement == "around_the_tail":  # part merge (gaps of 12 leaves), part append
        places = [(size - 12 * (j // 2) * (j % 2), 1 + (j // 2) % 15) for j in range(batch_size)]
    else:
        places = [(rng.randrange(size + 1), rng.randrange(1, STRIDE)) for _ in range(batch_size)]
    return sorted({STRIDE * gap + slot for gap, slot in places})


def rows_of(store):
    return [list(row) for row in store._hash_levels()]


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("size", SIZES)
def test_batch_rows_equal_single_inserts_and_fresh_build(size, placement):
    rng = random.Random(size)
    existing = leaves(stored_values(size))
    before = create_store("naive")
    before.insert_batch(existing)
    for batch_size in BATCH_SIZES:
        batch = leaves(batch_values(size, batch_size, placement, rng))
        shuffled = rng.sample(batch, len(batch))

        oracle = create_store("naive")
        oracle.insert_batch(existing + batch)
        one_by_one = create_store("incremental")
        one_by_one.insert_batch(existing)
        for key, value in shuffled:
            one_by_one.insert(key, value)
        assert rows_of(one_by_one) == rows_of(oracle)

        for engine in ("incremental", "durable"):
            with create_store(engine) as merged:
                merged.insert_batch(existing)
                assert merged.insert_batch(shuffled) == len(batch)
                assert rows_of(merged) == rows_of(oracle), (engine, batch_size)
                assert merged.remove_batch(key for key, _ in shuffled) == len(batch)
                assert rows_of(merged) == rows_of(before), (engine, batch_size)
                assert list(merged.items()) == existing


@pytest.mark.parametrize("size,batch_size", [(1_023, 2), (4_096, 1)])
def test_height_grows_inside_the_batch(size, batch_size):
    store = create_store("incremental")
    store.insert_batch(leaves(stored_values(size)))
    height = len(store._hash_levels())
    batch = leaves(batch_values(size, batch_size, "spread", random.Random(0)))
    store.insert_batch(batch)
    assert len(store._hash_levels()) == height + 1
    oracle = create_store("naive")
    oracle.insert_batch(leaves(stored_values(size)) + batch)
    assert rows_of(store) == rows_of(oracle)
    store.remove_batch(key for key, _ in batch)
    assert len(store._hash_levels()) == height
