"""Table III: processing-time microbenchmarks, plus dictionary-update timing.

The paper times five operations (500 repetitions each, reporting max/min/avg
in microseconds):

* RA — TLS detection (DPI fast path);
* RA — certificate parsing (a three-certificate chain, the common case);
* RA — proof construction;
* Client — proof validation;
* Client — signature + freshness validation (timed on the root's own
  anchor, ``p' = 0``, and again half a hash chain later, ``p' = m/2``,
  where the freshness walk is ``m/2`` hashes);

and separately the time for a CA to ``insert`` and an RA to ``update`` a
batch of 1,000 new revocations.

Absolute numbers from this pure-Python implementation are much larger than
the paper's C-speed figures (particularly the Ed25519 verification); what is
expected to reproduce is the *ordering* of costs and the conclusion that the
per-connection overhead is a negligible fraction of a TLS handshake.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import dataclass, field, replace
from itertools import count
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.crypto.hashing import DEFAULT_DIGEST_SIZE, NODE_PREFIX, raw_sha256
from repro.crypto.signing import KeyPair
from repro.dictionary.authdict import CADictionary, ReplicaDictionary
from repro.dictionary.freshness import statement_is_fresh
from repro.pki.certificate import Certificate, CertificateChain
from repro.pki.serial import SerialNumber
from repro.ritm.dpi import DPIEngine
from repro.store.incremental import MIN_RUN_NODES
from repro.tls.connection import ServerConnectionConfig, TLSServerConnection
from repro.tls.messages import ClientHello
from repro.tls.records import ContentType, TLSRecord
from repro.tls.extensions import ritm_support_extension
from repro.workloads.certificates import generate_corpus
from repro.workloads.revocation_trace import serials_for_count

#: Repetitions used by the paper.
PAPER_REPETITIONS = 500
#: The client's signature and freshness check at ``p' = m/2``, beside the
#: paper's row (timed on the root's own anchor, ``p' = 0``).
MID_CHAIN_ROW = "Sig. and freshness valid. (p' = m/2)"


@dataclass
class TimingRow:
    """One row of Table III."""

    entity: str
    operation: str
    max_us: float
    min_us: float
    avg_us: float
    repetitions: int


@dataclass
class Table3Result:
    rows: List[TimingRow]
    #: ``inspect`` of a flight whose chain the engine has parsed before — a
    #: lookup in its chain cache; reported beside the first-sight row of the
    #: table, never in its place.
    dpi_repeat_avg_us: float = 0.0

    def row(self, operation: str) -> TimingRow:
        for row in self.rows:
            if row.operation == operation:
                return row
        raise KeyError(operation)

    def client_total_avg_us(self) -> float:
        """The client-side per-connection total (proof + signature/freshness)."""
        return (
            self.row("Proof validation").avg_us
            + self.row("Sig. and freshness valid.").avg_us
        )

    def ra_handshake_avg_us(self) -> float:
        return (
            self.row("Certificates parsing (DPI)").avg_us
            + self.row("Proof construction").avg_us
        )


def _time_operation(operation: Callable[[], object], repetitions: int) -> TimingRow:
    durations: List[float] = []
    # As ``timeit`` does: a cycle collection over the fixtures' heap (set off
    # here by the chains the DPI engine retains) is not the operation's cost.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repetitions):
            start = time.perf_counter()
            operation()
            durations.append((time.perf_counter() - start) * 1e6)
    finally:
        if collecting:
            gc.enable()
    return TimingRow(
        entity="",
        operation="",
        max_us=max(durations),
        min_us=min(durations),
        avg_us=sum(durations) / len(durations),
        repetitions=repetitions,
    )


def _with_labels(row: TimingRow, entity: str, operation: str) -> TimingRow:
    return TimingRow(
        entity=entity,
        operation=operation,
        max_us=row.max_us,
        min_us=row.min_us,
        avg_us=row.avg_us,
        repetitions=row.repetitions,
    )


def run_table_3(
    repetitions: int = PAPER_REPETITIONS,
    entries: int = 20_000,
    signature_repetitions: Optional[int] = None,
    engine: Optional[str] = None,
) -> Table3Result:
    """Measure every Table III row.

    ``entries`` controls the dictionary the proofs are built against
    (proof cost grows logarithmically, so 20k entries already exercises a
    realistic depth).  ``signature_repetitions`` can be lowered because the
    pure-Python Ed25519 verification is orders of magnitude slower than the
    other operations.  ``engine`` selects the store backend the proofs are
    served from (see :data:`repro.store.ENGINES`).
    """
    if signature_repetitions is None:
        signature_repetitions = max(10, repetitions // 25)

    # --- fixtures -------------------------------------------------------------
    corpus = generate_corpus(ca_count=1, domains_per_ca=1, use_intermediates=True)
    chain = corpus.chains[0]
    dpi = DPIEngine()

    hello_record = TLSRecord(
        ContentType.HANDSHAKE,
        ClientHello(extensions=(ritm_support_extension(),)).to_bytes(),
    )

    def server_flight(leaf: Certificate) -> bytes:
        served = CertificateChain((leaf,) + chain.certificates[1:])
        server = TLSServerConnection(ServerConnectionConfig(chain=served))
        return server.process_record(hello_record, now=1_400_000_000)[0].to_bytes()

    server_payload = server_flight(chain.leaf)
    # The DPI engine answers a Certificate body it has parsed before by
    # lookup, so the paper's parsing row is timed over distinct chains.
    first_sights = iter(
        [server_flight(replace(chain.leaf, serial=SerialNumber(n + 1))) for n in range(repetitions)]
    )

    keys = KeyPair.generate(b"table3")
    dictionary = CADictionary(ca_name="Timing-CA", keys=keys, delta=10, engine=engine)
    serial_values = serials_for_count(entries + 1, seed=3)
    dictionary.insert([SerialNumber(value) for value in serial_values[:entries]], now=0)
    absent_serial = SerialNumber(serial_values[-1])
    status = dictionary.prove(absent_serial)
    signed_root = dictionary.signed_root
    freshness = dictionary.latest_freshness

    rows: List[TimingRow] = []

    rows.append(
        _with_labels(
            _time_operation(lambda: dpi.is_tls(server_payload), repetitions),
            "RA",
            "TLS detection (DPI)",
        )
    )
    rows.append(
        _with_labels(
            _time_operation(lambda: dpi.inspect(next(first_sights)), repetitions),
            "RA",
            "Certificates parsing (DPI)",
        )
    )
    dpi.inspect(server_payload)
    dpi_repeat = _time_operation(lambda: dpi.inspect(server_payload), repetitions)
    rows.append(
        _with_labels(
            _time_operation(lambda: dictionary.prove(absent_serial), repetitions),
            "RA",
            "Proof construction",
        )
    )
    rows.append(
        _with_labels(
            _time_operation(lambda: status.proof.verify(signed_root.root), repetitions),
            "Client",
            "Proof validation",
        )
    )
    # Like the DPI repeat row, each signature row starts warm: one untimed
    # check first, so no repetition pays for building the key's comb table
    # (a cache whatever ran earlier in the process may or may not have filled).
    def check_fresh() -> object:
        return (
            signed_root.verify(keys.public),
            statement_is_fresh(signed_root, freshness, now=5, delta=10),
        )

    check_fresh()
    rows.append(
        _with_labels(
            _time_operation(check_fresh, signature_repetitions),
            "Client",
            "Sig. and freshness valid.",
        )
    )
    # The same check half a chain after the root: an honest statement of
    # period p' costs p' chain hashes (4,320 at the default chain length).
    half = dictionary.chain_length // 2
    mid_chain = dictionary.refresh(now=10 * half)

    def check_mid_chain() -> object:
        return (
            signed_root.verify(keys.public),
            statement_is_fresh(signed_root, mid_chain, now=10 * half + 5, delta=10),
        )

    check_mid_chain()
    rows.append(
        _with_labels(
            _time_operation(check_mid_chain, signature_repetitions),
            "Client",
            MID_CHAIN_ROW,
        )
    )
    return Table3Result(rows=rows, dpi_repeat_avg_us=dpi_repeat.avg_us)


# -- dictionary update timing (§VII-D "Computation", first paragraph) ---------------------


@dataclass
class DictionaryUpdateTiming:
    batch_size: int
    ca_insert_ms: float
    ra_update_ms: float
    engine: str = "naive"


def time_dictionary_update(
    batch_size: int = 1_000,
    existing_entries: int = 10_000,
    seed: int = 17,
    engine: Optional[str] = None,
) -> DictionaryUpdateTiming:
    """Time a CA ``insert`` and an RA ``update`` of ``batch_size`` revocations."""
    keys = KeyPair.generate(b"dict-update")
    dictionary = CADictionary(
        ca_name="Update-CA", keys=keys, delta=10, chain_length=64, engine=engine
    )
    replica = ReplicaDictionary("Update-CA", keys.public, engine=engine)

    serial_values = serials_for_count(existing_entries + batch_size, seed=seed)
    existing = [SerialNumber(value) for value in serial_values[:existing_entries]]
    batch = [SerialNumber(value) for value in serial_values[existing_entries:]]
    if existing:
        bootstrap = dictionary.insert(existing, now=0)
        replica.update(bootstrap)

    start = time.perf_counter()
    issuance = dictionary.insert(batch, now=1)
    ca_insert_ms = (time.perf_counter() - start) * 1e3

    start = time.perf_counter()
    replica.update(issuance)
    ra_update_ms = (time.perf_counter() - start) * 1e3

    return DictionaryUpdateTiming(
        batch_size=batch_size,
        ca_insert_ms=ca_insert_ms,
        ra_update_ms=ra_update_ms,
        engine=dictionary.store_engine,
    )


# -- single-serial update timing (the engine comparison the store refactor is for) --


@dataclass
class SingleUpdateTiming:
    """Throughput of one-serial-at-a-time updates against a large dictionary.

    ``workload`` is ``"append"`` (serials sorting after every stored key —
    sequentially allocated serials, the incremental engine's O(log N) fast
    path) or ``"random"`` (serials landing at uniform positions, where the
    positional tree shape forces a suffix rehash).  ``level`` records whether
    the measurement includes the CA's signing duty (``"dictionary"``) or
    isolates the store engine (``"store"``).
    """

    engine: str
    existing_entries: int
    updates: int
    workload: str
    level: str
    total_ms: float

    @property
    def ms_per_update(self) -> float:
        return self.total_ms / self.updates if self.updates else 0.0

    @property
    def updates_per_second(self) -> float:
        return 1e3 / self.ms_per_update if self.ms_per_update else float("inf")


#: Existing entries are drawn below this bound so "append" serials can be
#: allocated above it while staying within the 3-byte serial space.
_APPEND_SERIAL_BASE = 2**23


def _serial_space(existing_entries: int) -> Tuple[int, int]:
    """Serial space ``(append base, byte width)`` sized to the population.

    Up to ~2M entries the paper's 3-byte serials leave room for appends
    above :data:`_APPEND_SERIAL_BASE` (keeping historical measurements
    comparable); the 10M-leaf scaling points need a 4-byte space.
    """
    if existing_entries * 4 <= _APPEND_SERIAL_BASE:
        return _APPEND_SERIAL_BASE, 3
    return 2**31, 4


def _existing_serial_values(
    existing_entries: int, seed: int, base: int = _APPEND_SERIAL_BASE
) -> List[int]:
    rng = random.Random(seed)
    return rng.sample(range(1, base), existing_entries)


def _update_serial_values(
    existing: Sequence[int],
    updates: int,
    workload: str,
    seed: int,
    base: int = _APPEND_SERIAL_BASE,
) -> List[int]:
    if workload == "append":
        return [base + 1 + offset for offset in range(updates)]
    if workload != "random":
        raise ValueError(f"unknown workload {workload!r}; expected 'append' or 'random'")
    rng = random.Random(seed + 1)
    taken = set(existing)
    values: List[int] = []
    while len(values) < updates:
        candidate = rng.randrange(1, base)
        if candidate not in taken:
            taken.add(candidate)
            values.append(candidate)
    return values


def time_store_single_updates(
    engine: Optional[str] = None,
    existing_entries: int = 100_000,
    updates: int = 6,
    workload: str = "append",
    seed: int = 29,
) -> SingleUpdateTiming:
    """Store-level single-leaf updates: insert one serial, recompute the root.

    Isolates the engine cost (no signing, no hash chain) — this is the
    number that shows the naive engine's Θ(N)-per-update rebuild against the
    incremental engine's cached levels.
    """
    from repro.store import create_store

    store = create_store(engine)
    existing = _existing_serial_values(existing_entries, seed)
    store.insert_batch(
        (SerialNumber(value).to_bytes(), b"\x00\x00\x00\x01") for value in existing
    )
    store.root()  # settle any lazily deferred rebuild before timing
    new_values = _update_serial_values(existing, updates, workload, seed)
    start = time.perf_counter()
    for value in new_values:
        store.insert(SerialNumber(value).to_bytes(), b"\x00\x00\x00\x01")
        store.root()
    total_ms = (time.perf_counter() - start) * 1e3
    return SingleUpdateTiming(
        engine=store.engine_name,
        existing_entries=existing_entries,
        updates=updates,
        workload=workload,
        level="store",
        total_ms=total_ms,
    )


def time_dictionary_single_updates(
    engine: Optional[str] = None,
    existing_entries: int = 100_000,
    updates: int = 6,
    workload: str = "append",
    seed: int = 29,
    chain_length: int = 64,
) -> SingleUpdateTiming:
    """End-to-end single-serial revocations: tree update + hash chain + signed root."""
    keys = KeyPair.generate(b"single-update")
    dictionary = CADictionary(
        ca_name="Single-CA", keys=keys, delta=10, chain_length=chain_length, engine=engine
    )
    existing = _existing_serial_values(existing_entries, seed)
    dictionary.insert([SerialNumber(value) for value in existing], now=0)
    new_values = _update_serial_values(existing, updates, workload, seed)
    start = time.perf_counter()
    for offset, value in enumerate(new_values):
        dictionary.insert([SerialNumber(value)], now=offset + 1)
    total_ms = (time.perf_counter() - start) * 1e3
    return SingleUpdateTiming(
        engine=dictionary.store_engine,
        existing_entries=existing_entries,
        updates=updates,
        workload=workload,
        level="dictionary",
        total_ms=total_ms,
    )


#: Ceilings on *measured time ÷ SHA-256 floor* at the 10⁶-leaf store point,
#: per engine — the one definition the benchmark's asserts and
#: ``tools/check_perf_regression.py`` both gate on.  The floor is what the
#: operation's own hash count costs in this process
#: (:func:`measure_hash_floor`), so the ratios are machine-relative and an
#: engine is judged against the work byte-identical trees force on it, never
#: against another engine.  Envelope over 6 runs on the reference box (floor
#: 502–574 ns/hash): ``incremental`` random 1.02–1.16, append 1.53–1.74;
#: ``compact`` random 1.07–1.30, append 8.9–10.7 (validating the batch costs
#: ~20,000 interpreted ``_ByteColumn.__getitem__`` bisect steps).  Each
#: ceiling is the worst run plus ≥ 30 %.  What they exist to catch reads far
#: higher on append — an O(N) per-element merge is 60–90 — and ~1.6 on
#: random for a per-node ``hash_node`` call in the level loop.
#: ``batch_random_over_suffix`` has the tree's own suffix rehash for its
#: floor (see :func:`time_store_scaling_point`): ``incremental`` 0.65–0.86
#: over 27 runs and 1.01–1.16 with the subtree reuse disabled, so its ceiling
#: is the worst run plus 14 % and still under 1.0; ``compact``, which reuses
#: nothing, 0.75–1.14.
OVER_FLOOR_CEILINGS: Dict[str, Dict[str, float]] = {
    "incremental": {
        "single_random_over_floor": 1.55,
        "batch_append_over_floor": 2.3,
        "batch_random_over_suffix": 0.98,
    },
    "compact": {
        "single_random_over_floor": 1.7,
        "batch_append_over_floor": 14.0,
        "batch_random_over_suffix": 1.5,
    },
}


def measure_hash_floor(pairs: int = 50_000, repeats: int = 5) -> float:
    """Seconds per interior-node hash at the SHA-256 floor, best of ``repeats``.

    Times exactly what every engine must do per dirty node and nothing
    else: the level comprehension (``sha256(0x01 ‖ left ‖ right)``,
    truncated) over ``pairs`` synthetic 40-byte digest pairs.
    """
    digests = [index.to_bytes(DEFAULT_DIGEST_SIZE, "big") for index in range(2 * pairs)]
    sha, prefix, size = raw_sha256, NODE_PREFIX, DEFAULT_DIGEST_SIZE
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        [
            sha(prefix + left + right).digest()[:size]
            for left, right in zip(digests[0::2], digests[1::2])
        ]
        best = min(best, time.perf_counter() - start)
    return best / pairs


def suffix_hash_count(leaves: int, start: int) -> int:
    """Node hashes a ``leaves``-leaf tree needs when leaf ``start`` is its
    leftmost changed position: per level, the pairs at or right of
    ``start``'s ancestor (a promoted odd node is not hashed)."""
    total = 0
    while leaves > 1:
        start >>= 1
        total += max(leaves // 2 - start, 0)
        leaves = (leaves + 1) // 2
    return total


def shifted_hash_count(leaves_before: int, positions: Sequence[int]) -> int:
    """Node hashes the ``incremental`` engine needs for a batch landing at the
    ascending insertion indices ``positions`` of a ``leaves_before``-leaf tree.

    The suffix from the leftmost position, less what the reuse rule copies:
    the old leaves between batch keys ``k`` and ``k + 1`` move ``k`` places
    right as one run, and while that shift stays even, every node whose two
    children lie inside the run is the old node half the shift to its left.
    A run is followed only while it holds ``MIN_RUN_NODES`` whole nodes (so
    from ``2 * MIN_RUN_NODES`` leaves up), the engine's own minimum.
    """
    hashes = suffix_hash_count(leaves_before + len(positions), positions[0])
    for shift, low, high in zip(count(1), positions, [*positions[1:], leaves_before]):
        if high - low < 2 * MIN_RUN_NODES:
            continue
        low, high = low + shift, high + shift
        while not shift & 1:
            low, high, shift = (low + 1) >> 1, high >> 1, shift >> 1
            if high - low < MIN_RUN_NODES:
                break
            hashes -= high - low
    return hashes


def time_store_scaling_point(
    engine: Optional[str] = None,
    existing_entries: int = 1_000_000,
    updates: int = 4,
    batch_size: int = 1_000,
    seed: int = 29,
) -> Dict[str, object]:
    """Store-level scaling point for web-scale dictionaries (no signing layer).

    One store instance per call: a bulk build, single-serial appends, three
    append-ordered batches (sequentially allocated serials, the common CA
    issuance pattern), random-position single serials and three
    random-position batches — each followed by a ``root()`` so lazily
    settling engines pay their hashing inside the timed window.  Uses a
    serial space wide enough for the population (4-byte keys beyond what
    3-byte serials can hold) and reports flat-buffer memory accounting when
    the engine exposes it.

    The batches and the random singles are also stated **over the SHA-256
    floor** (:func:`measure_hash_floor`, read right after each trial): the
    best trial's time divided by what a suffix rehash of that trial costs at
    the floor, so 1.0 means "nothing but the hashing a positional suffix
    rebuild does".  The random batch is stated over the tree's own suffix
    rehash as well (``batch_random_over_suffix``), which is the ratio that
    reads what the batch reuses.
    """
    from repro.store import create_store

    base, width = _serial_space(existing_entries)
    existing = _existing_serial_values(existing_entries, seed, base=base)
    value = b"\x00\x00\x00\x01"
    store = create_store(engine)

    start = time.perf_counter()
    store.insert_batch((serial.to_bytes(width, "big"), value) for serial in existing)
    store.root()
    build_s = time.perf_counter() - start

    # Untimed warmup append: the first post-build mutation pays a one-off
    # arena/level reallocation in every engine; keep it out of the averages.
    # The warmup serial must be the LOWEST post-build serial — everything
    # timed below sorts after it, so the timed workloads stay true appends.
    store.insert((base + 1).to_bytes(width, "big"), value)
    store.root()

    appends = [base + 2 + offset for offset in range(updates)]
    start = time.perf_counter()
    for serial in appends:
        store.insert(serial.to_bytes(width, "big"), value)
        store.root()
    append_ms = (time.perf_counter() - start) * 1e3 / updates

    # The box alternates between two speeds, so the floor is read right after
    # every timed trial and a ratio takes both its terms from one phase.
    floors: List[float] = []

    def over_floor(elapsed_s: float, hashes: int) -> float:
        floors.append(measure_hash_floor())
        return elapsed_s / (hashes * floors[-1])

    def timed_batch(serials: Sequence[int]) -> float:
        batch = [(serial.to_bytes(width, "big"), value) for serial in serials]
        start = time.perf_counter()
        store.insert_batch(batch)
        store.root()
        return time.perf_counter() - start

    # Best-of-3 consecutive append batches: one-shot batch timings swing
    # several-fold with allocator/GC state, and the minimum is the standard
    # robust estimator for "the cost the code actually imposes".
    next_serial = base + 2 + updates
    append_trials = []
    for _ in range(3):
        elapsed = timed_batch(range(next_serial, next_serial + batch_size))
        next_serial += batch_size
        # A batch hashes its own leaves plus the right-edge suffix above them.
        hashes = batch_size + suffix_hash_count(len(store), len(store) - batch_size)
        append_trials.append((over_floor(elapsed, hashes), elapsed * 1e3))
    batch_append_over_floor, batch_append_ms = min(append_trials)

    randoms = _update_serial_values(
        existing, updates + 3 * batch_size, "random", seed, base=base
    )
    random_total = 0.0
    single_random_over_floor = float("inf")
    for serial in randoms[:updates]:
        start = time.perf_counter()
        index = store.insert(serial.to_bytes(width, "big"), value)
        store.root()
        elapsed = time.perf_counter() - start
        random_total += elapsed
        single_random_over_floor = min(
            single_random_over_floor,
            over_floor(elapsed, 1 + suffix_hash_count(len(store), index)),
        )
    random_ms = random_total * 1e3 / updates

    # Random-position batches, over what a plain suffix rehash from the
    # batch's leftmost position costs: below 1.0 is subtree reuse.  Stated
    # twice.  Over the floor, like the rows above — but a 10⁶-leaf tree is
    # memory-bound where the floor's 10⁵ digests are not, so that ratio moves
    # with the box's phase by as much as the reuse is worth (0.80–1.23 over
    # 28 runs of one engine) and is reported, not gated.  And over the tree's
    # own suffix rehash: a single insert just left of the batch rehashes that
    # whole suffix, and its per-hash time, taken right before the batch,
    # prices the batch's hash count in the same phase and at the same cache
    # behaviour (0.65–0.86 over 27 runs; 1.01–1.16 with the reuse disabled).
    floor_trials, suffix_ratios = [], []
    for trial in range(3):
        serials = randoms[updates + trial * batch_size :][:batch_size]
        probe = min(serials) - 1
        while probe.to_bytes(width, "big") in store:
            probe -= 1
        start = time.perf_counter()
        leftmost = store.insert(probe.to_bytes(width, "big"), value)
        store.root()
        rehash_s = time.perf_counter() - start
        rehash_s /= 1 + suffix_hash_count(len(store), leftmost)
        elapsed = timed_batch(serials)
        hashes = batch_size + suffix_hash_count(len(store), leftmost + 1)
        floor_trials.append((over_floor(elapsed, hashes), elapsed * 1e3))
        suffix_ratios.append(elapsed / (hashes * rehash_s))
    batch_random_over_floor, batch_random_ms = min(floor_trials)

    point: Dict[str, object] = {
        "existing_entries": existing_entries,
        "engine": store.engine_name,
        "level": "store",
        "serial_width": width,
        "build_s": round(build_s, 3),
        "single_append_ms": round(append_ms, 4),
        "single_append_per_s": round(1e3 / append_ms, 1) if append_ms else float("inf"),
        "batch_append_ms": round(batch_append_ms, 3),
        "batch_append_per_s": round(batch_size * 1e3 / batch_append_ms, 1)
        if batch_append_ms
        else float("inf"),
        "single_random_ms": round(random_ms, 4),
        "single_random_per_s": round(1e3 / random_ms, 1) if random_ms else float("inf"),
        "batch_random_ms": round(batch_random_ms, 3),
        "hash_floor_ns": round(statistics.median(floors) * 1e9, 1),
        "batch_append_over_floor": round(batch_append_over_floor, 2),
        "single_random_over_floor": round(single_random_over_floor, 2),
        "batch_random_over_floor": round(batch_random_over_floor, 2),
        "batch_random_over_suffix": round(min(suffix_ratios), 2),
    }
    memory_usage = getattr(store, "memory_usage", None)
    if memory_usage is not None:
        usage = memory_usage()
        point["bytes_per_leaf"] = round(usage["total_bytes"] / max(len(store), 1), 1)
    store.close()
    return point


def sweep_dictionary_update(
    sizes: Iterable[int],
    engines: Sequence[str] = ("naive", "incremental"),
    batch_size: int = 1_000,
    single_updates: int = 6,
    seed: int = 17,
    store_points: Sequence[Tuple[int, str]] = (),
) -> Dict[str, object]:
    """Scaling sweep over dictionary sizes × store engines.

    For every size and engine, measures the 1,000-serial batch path (CA
    insert + RA update) and the single-serial append/random paths, and
    derives the incremental-vs-naive (and, when present, the
    compact-vs-incremental) ratios.  ``store_points`` adds store-level
    ``(size, engine)`` measurements via :func:`time_store_scaling_point` for
    populations too large to be interesting end-to-end; those rows carry
    their own over-the-floor ratios, so engines compare through the floor.
    Returns a JSON-serialisable document (the benchmark writes it to
    ``benchmarks/results/``).
    """
    points: List[Dict[str, object]] = []
    for size in sizes:
        for engine in engines:
            batch = time_dictionary_update(
                batch_size=batch_size, existing_entries=size, seed=seed, engine=engine
            )
            append = time_store_single_updates(
                engine=engine, existing_entries=size, updates=single_updates
            )
            random_pos = time_store_single_updates(
                engine=engine,
                existing_entries=size,
                updates=single_updates,
                workload="random",
            )
            points.append(
                {
                    "existing_entries": size,
                    "engine": batch.engine,
                    "batch_size": batch_size,
                    "ca_insert_ms": round(batch.ca_insert_ms, 3),
                    "ra_update_ms": round(batch.ra_update_ms, 3),
                    "single_append_ms": round(append.ms_per_update, 4),
                    "single_append_per_s": round(append.updates_per_second, 1),
                    "single_random_ms": round(random_pos.ms_per_update, 4),
                    "single_random_per_s": round(random_pos.updates_per_second, 1),
                }
            )
    speedups: List[Dict[str, object]] = []
    by_key = {(p["existing_entries"], p["engine"]): p for p in points}
    for size in {p["existing_entries"] for p in points}:
        naive = by_key.get((size, "naive"))
        incremental = by_key.get((size, "incremental"))
        if naive is None or incremental is None:
            continue
        entry: Dict[str, object] = {
            "existing_entries": size,
            "single_append_speedup": round(
                naive["single_append_ms"] / incremental["single_append_ms"], 1
            )
            if incremental["single_append_ms"]
            else float("inf"),
            "single_random_speedup": round(
                naive["single_random_ms"] / incremental["single_random_ms"], 1
            )
            if incremental["single_random_ms"]
            else float("inf"),
            "batch_ca_insert_speedup": round(
                naive["ca_insert_ms"] / incremental["ca_insert_ms"], 1
            )
            if incremental["ca_insert_ms"]
            else float("inf"),
        }
        compact = by_key.get((size, "compact"))
        if compact is not None:
            entry["compact_vs_incremental_single_random"] = (
                round(incremental["single_random_ms"] / compact["single_random_ms"], 2)
                if compact["single_random_ms"]
                else float("inf")
            )
            entry["compact_vs_incremental_batch_ca_insert"] = (
                round(incremental["ca_insert_ms"] / compact["ca_insert_ms"], 2)
                if compact["ca_insert_ms"]
                else float("inf")
            )
        speedups.append(entry)
    speedups.sort(key=lambda entry: entry["existing_entries"])

    store_point_rows: List[Dict[str, object]] = []
    for store_size, store_engine in store_points:
        store_point_rows.append(
            time_store_scaling_point(
                engine=store_engine,
                existing_entries=store_size,
                updates=single_updates,
                batch_size=batch_size,
                seed=seed,
            )
        )
    return {
        "batch_size": batch_size,
        "single_updates": single_updates,
        "points": points,
        "speedups": speedups,
        "store_points": store_point_rows,
    }


@dataclass
class ThroughputEstimate:
    """§VII-D's derived throughput claims."""

    non_tls_packets_per_second: float
    handshakes_per_second: float
    client_validations_per_second: float


def throughput_from_table3(table3: Table3Result) -> ThroughputEstimate:
    """Convert the Table III averages into the paper's packets/handshakes/sec."""
    detection = table3.row("TLS detection (DPI)").avg_us
    handshake = table3.ra_handshake_avg_us()
    client = table3.client_total_avg_us()
    return ThroughputEstimate(
        non_tls_packets_per_second=1e6 / detection if detection else float("inf"),
        handshakes_per_second=1e6 / handshake if handshake else float("inf"),
        client_validations_per_second=1e6 / client if client else float("inf"),
    )
