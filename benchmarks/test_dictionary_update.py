"""§VII-D dictionary-update timing, parameterized over every store engine.

The paper reports ~3 ms (CA insert) and ~3 ms (RA update+verify) for a batch
of 1,000 new revocations.  Beyond reproducing that batch path, this module
is the performance artifact for the `repro.store` engine seam:

* ``test_dictionary_update_1000`` — the paper's batch numbers, once per
  engine;
* ``test_single_serial_update_speedup`` — one-revocation-at-a-time updates
  against a 100,000-entry dictionary, the workload where the naive engine's
  full rebuild pays Θ(N) hashes per serial.  Asserts the incremental engine
  is ≥ 10× faster, both at the store level and end-to-end (tree + hash
  chain + Ed25519-signed root);
* ``test_dictionary_update_scaling_sweep`` — a size sweep over every engine
  emitting ``benchmarks/results/dictionary_update_scaling.json`` so the
  perf trajectory is tracked across PRs.  Always includes store-level
  10⁶-entry points for the ``incremental`` and ``compact`` engines; set
  ``RITM_BENCH_FULL=1`` to extend the dictionary-level sweep to 1M serials
  and add a store-level 10⁷-leaf ``compact`` point.

The last two are a minute of work, so they carry the ``sweep`` marker that
``pyproject.toml`` deselects by default (run them with ``-m sweep``); each has
a ``_smoke`` sibling at 2,000 entries that tier-1 runs and that writes no
artifact.

The store-level gates judge each engine against the **SHA-256 floor**, not
against the other engine.  Byte-identical tree semantics fix the hash count
of a suffix rehash — a random-position insert rehashes the Θ(N − i)
positional suffix in *every* engine, an append-ordered batch its own leaves
plus one right-edge path — so the sweep measures what that many level-loop
hashes cost in the same process, right beside each timed trial, and reports
each engine's time over it (``single_random_over_floor``,
``batch_append_over_floor``, ``batch_random_over_floor``; 1.0 = nothing but
a suffix rehash).  An engine that merges per element, copies O(N) on an
append or calls a Python function per node leaves that envelope.  A
1,000-serial random batch is also stated over the tree's *own* suffix rehash
— one single insert just left of it, timed right before it
(``batch_random_over_suffix``): ``incremental`` reads below 1.0 there
because the old leaves between two batch keys move as one run and aligned
subtrees inside it are copied, not hashed, and back above 1.0 if that reuse
is lost.  See ``OVER_FLOOR_CEILINGS`` in :mod:`repro.analysis.timing`.
"""

import cProfile
import os

import pytest

from repro.analysis.reporting import format_table
from repro.analysis.timing import (
    OVER_FLOOR_CEILINGS,
    sweep_dictionary_update,
    time_dictionary_single_updates,
    time_dictionary_update,
    time_store_single_updates,
)

from repro.crypto import ed25519
from repro.crypto.signing import KeyPair
from repro.dictionary.authdict import CADictionary, ReplicaDictionary
from repro.pki.serial import SerialNumber
from repro.store import ENGINES as STORE_ENGINES
from repro.store.base import SortedLeafStore
from repro.workloads import serials_for_count

from bench_harness import write_json_result, write_result

ENGINES = tuple(sorted(STORE_ENGINES))

#: Entry count for the single-serial acceptance comparison.
SINGLE_UPDATE_DICTIONARY_SIZE = 100_000
#: Required incremental-over-naive advantage for single-serial updates.
REQUIRED_SINGLE_UPDATE_SPEEDUP = 10.0
#: Store-level scaling point the over-the-floor gates are read at.
STORE_POINT_ENTRIES = 1_000_000
#: Dictionary size of the smoke siblings tier-1 runs (the full sizes are
#: marked ``sweep`` and deselected by default; CI's perf-regression job passes ``-m sweep``).
SMOKE_ENTRIES = 2_000
#: What one dictionary update is counted in: batch placements into the store,
#: Ed25519 signings, Ed25519 verifications.
UPDATE_COUNTED = (
    SortedLeafStore._place_batch.__code__,
    ed25519.sign.__code__,
    ed25519.verify.__code__,
)


def _update_counts(engine, existing=SMOKE_ENTRIES, batch_size=100):
    """``UPDATE_COUNTED`` for one CA insert and for the RA update applying it."""
    keys = KeyPair.generate(b"dict-update-counts")
    dictionary = CADictionary("Update-CA", keys, delta=10, chain_length=64, engine=engine)
    replica = ReplicaDictionary("Update-CA", keys.public, engine=engine)
    values = serials_for_count(existing + batch_size, seed=17)
    replica.update(dictionary.insert([SerialNumber(v) for v in values[:existing]], now=0))

    def counted(operation):
        profile = cProfile.Profile()
        profile.enable()
        result = operation()
        profile.disable()
        calls = {entry.code: entry.callcount for entry in profile.getstats()}
        return result, tuple(calls.get(code, 0) for code in UPDATE_COUNTED)

    batch = [SerialNumber(v) for v in values[existing:]]
    issuance, ca_insert = counted(lambda: dictionary.insert(batch, now=1))
    _, ra_update = counted(lambda: replica.update(issuance))
    return ca_insert, ra_update


@pytest.mark.parametrize("engine", ENGINES)
def test_dictionary_update_1000(benchmark, engine):
    timing = benchmark.pedantic(
        lambda: time_dictionary_update(
            batch_size=1_000, existing_entries=20_000, engine=engine
        ),
        rounds=1,
        iterations=1,
    )
    table = format_table(
        ["operation", "engine", "batch", "measured ms", "paper avg ms"],
        [
            ["CA insert (build + sign root)", engine, timing.batch_size, f"{timing.ca_insert_ms:.2f}", "2.93"],
            ["RA update (apply + verify root)", engine, timing.batch_size, f"{timing.ra_update_ms:.2f}", "2.84"],
        ],
        title=f"Dictionary update timing — {engine} engine (1,000 new revocations over 20,000 entries)",
    )
    write_result(f"dictionary_update_{engine}", table)

    assert timing.ca_insert_ms < 5_000
    assert timing.ra_update_ms < 5_000
    # The RA's update costs what the CA's insert does, as in the paper (2.93 ms
    # vs 2.84 ms): one placement of the same batch each, and one Ed25519
    # verification of the root where the CA made one signature.
    assert _update_counts(engine) == ((1, 1, 0), (1, 0, 1))


def _single_serial_speedups(benchmark, entries):
    """Time single-serial updates over an ``entries``-entry dictionary on every
    engine; returns incremental's three speedups over naive and the rendered
    table."""

    def run():
        rows = {}
        for engine in ENGINES:
            rows[engine] = {
                "store_append": time_store_single_updates(
                    engine=engine, existing_entries=entries, updates=5
                ),
                "store_random": time_store_single_updates(
                    engine=engine, existing_entries=entries, updates=5, workload="random"
                ),
                "dictionary_append": time_dictionary_single_updates(
                    engine=engine, existing_entries=entries, updates=5
                ),
            }
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    def speedup(metric):
        return rows["naive"][metric].ms_per_update / rows["incremental"][metric].ms_per_update

    store_append_speedup = speedup("store_append")
    store_random_speedup = speedup("store_random")
    dictionary_append_speedup = speedup("dictionary_append")

    table_rows = []
    for engine in ENGINES:
        for metric, label in (
            ("store_append", "store: append-ordered serials"),
            ("store_random", "store: random-position serials"),
            ("dictionary_append", "dictionary: append + chain + signed root"),
        ):
            timing = rows[engine][metric]
            table_rows.append(
                [label, engine, f"{timing.ms_per_update:.3f}", f"{timing.updates_per_second:,.1f}"]
            )
    table = format_table(
        ["workload", "engine", "ms / update", "updates / s"],
        table_rows,
        title=f"Single-serial updates over a {entries:,}-entry dictionary",
    )
    extra = "\n".join(
        [
            "",
            f"incremental speedup (store, append workload): {store_append_speedup:,.1f}x",
            f"incremental speedup (store, random workload): {store_random_speedup:,.1f}x",
            f"incremental speedup (end-to-end, append):     {dictionary_append_speedup:,.1f}x",
        ]
    )
    return (store_append_speedup, store_random_speedup, dictionary_append_speedup), table + extra


@pytest.mark.sweep
def test_single_serial_update_speedup(benchmark):
    """Single-serial updates on a 100k dictionary: incremental ≥ 10× naive."""
    (store_append, store_random, dictionary_append), text = _single_serial_speedups(
        benchmark, SINGLE_UPDATE_DICTIONARY_SIZE
    )
    write_result("dictionary_update_single_serial", text)
    assert store_append >= REQUIRED_SINGLE_UPDATE_SPEEDUP
    assert dictionary_append >= REQUIRED_SINGLE_UPDATE_SPEEDUP
    # Random-position inserts re-pair the dirty suffix (the tree shape is
    # positional), so the win is bounded — but caching the leaf hashes must
    # still beat a full rebuild.
    assert store_random > 1.5


def test_single_serial_update_speedup_smoke(benchmark):
    """The same comparison at tier-1 size: the harness runs on every engine
    and naive's Θ(N) rebuild already loses on appends at 2,000 entries."""
    (store_append, _, dictionary_append), text = _single_serial_speedups(benchmark, SMOKE_ENTRIES)
    assert all(engine in text for engine in ENGINES)
    assert store_append > 2.0
    assert dictionary_append > 1.0


def _scaling_sweep(benchmark, sizes, store_points):
    """Run the sweep; returns its JSON payload and the rendered tables."""
    sweep = benchmark.pedantic(
        lambda: sweep_dictionary_update(
            sizes, engines=ENGINES, single_updates=4, store_points=store_points
        ),
        rounds=1,
        iterations=1,
    )

    table = format_table(
        ["entries", "engine", "batch CA ins ms", "batch RA upd ms", "1-serial append ms", "1-serial random ms"],
        [
            [
                f"{point['existing_entries']:,}",
                point["engine"],
                point["ca_insert_ms"],
                point["ra_update_ms"],
                point["single_append_ms"],
                point["single_random_ms"],
            ]
            for point in sweep["points"]
        ],
        title="Dictionary-update scaling sweep (store engines)",
    )
    store_table = format_table(
        [
            "leaves", "engine", "build s", "batch app /s", "1-append /s", "1-random /s",
            "floor ns", "batch/floor", "random/floor", "rnd batch/floor", "rnd batch/suffix",
            "B/leaf",
        ],
        [
            [
                f"{point['existing_entries']:,}",
                point["engine"],
                f"{point['build_s']:.2f}",
                f"{point['batch_append_per_s']:,.0f}",
                f"{point['single_append_per_s']:,.0f}",
                f"{point['single_random_per_s']:.2f}",
                f"{point['hash_floor_ns']:.0f}",
                f"{point['batch_append_over_floor']:.2f}",
                f"{point['single_random_over_floor']:.2f}",
                f"{point['batch_random_over_floor']:.2f}",
                f"{point['batch_random_over_suffix']:.2f}",
                f"{point['bytes_per_leaf']:.1f}" if "bytes_per_leaf" in point else "-",
            ]
            for point in sweep["store_points"]
        ],
        title="Store-level scaling points (raw Merkle store, no chain/signing)",
    )
    return sweep, "\n\n".join([table, store_table])


@pytest.mark.sweep
def test_dictionary_update_scaling_sweep(benchmark):
    """10k–1M scaling sweep over every engine, emitted as a JSON artifact.

    Dictionary-level points cover all engines at 10k/100k; store-level 10⁶
    points state the ``incremental`` and ``compact`` engines' batch append,
    random-position singles and random-position batch over the SHA-256 floor
    (plus single append and bytes/leaf).  ``RITM_BENCH_FULL=1`` adds the 1M dictionary points
    and a 10⁷-leaf store point for ``compact``.
    """
    sizes = [10_000, 100_000]
    store_points = [
        (STORE_POINT_ENTRIES, "incremental"),
        (STORE_POINT_ENTRIES, "compact"),
    ]
    if os.environ.get("RITM_BENCH_FULL"):
        sizes.append(1_000_000)
        store_points.append((10_000_000, "compact"))
    sweep, text = _scaling_sweep(benchmark, sizes, store_points)
    write_json_result("dictionary_update_scaling", sweep)
    write_result("dictionary_update_scaling", text)

    by_size = {entry["existing_entries"]: entry for entry in sweep["speedups"]}
    assert by_size[100_000]["single_append_speedup"] >= REQUIRED_SINGLE_UPDATE_SPEEDUP
    # The advantage must grow with N (naive is Θ(N) per update, incremental
    # is O(log N) on the append path).
    assert (
        by_size[100_000]["single_append_speedup"]
        > by_size[10_000]["single_append_speedup"]
    )

    gated = {
        point["engine"]: point
        for point in sweep["store_points"]
        if point["existing_entries"] == STORE_POINT_ENTRIES
    }
    for engine, ceilings in OVER_FLOOR_CEILINGS.items():
        for metric, ceiling in ceilings.items():
            assert gated[engine][metric] <= ceiling, (engine, metric)
    compact_point = gated["compact"]
    # The flat layout's advertised footprint: ~47 B/leaf measured (3 B key +
    # 4 B value + ~40 B of hash planes), versus hundreds for object lists.
    assert compact_point["bytes_per_leaf"] < 60


def test_dictionary_update_scaling_sweep_smoke(benchmark):
    """The sweep at tier-1 size, writing no artifact (the perf gate and
    ``docs/RESULTS.md`` read only the full run's): every point and every gated
    ratio is produced for every engine; the ceilings are the full sweep's."""
    sweep, text = _scaling_sweep(
        benchmark,
        [SMOKE_ENTRIES],
        [(10 * SMOKE_ENTRIES, engine) for engine in sorted(OVER_FLOOR_CEILINGS)],
    )
    assert "rnd batch/suffix" in text
    assert {point["engine"] for point in sweep["points"]} == set(ENGINES)
    assert sweep["speedups"][0]["single_append_speedup"] > 2.0
    for point in sweep["store_points"]:
        for metric in OVER_FLOOR_CEILINGS[point["engine"]]:
            assert 0.0 < point[metric] < float("inf"), (point["engine"], metric)
