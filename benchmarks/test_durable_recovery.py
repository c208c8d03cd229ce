"""Durable store engine: WAL overhead, snapshot size, and recovery speed.

Three measurements behind the storage guide (``docs/STORAGE.md``):

* **WAL-append overhead** — batch-insert cost of the ``durable`` engine
  (validate → log → apply) relative to the in-memory ``incremental`` engine
  it wraps, across store sizes;
* **snapshot size** — bytes of the pinned-format snapshot per leaf count;
* **recovery vs cold resync** — at the RITM layer: an RA that warm-starts
  from a checkpoint and pulls only the outage delta, against a cold RA that
  re-downloads and re-applies the CA's whole batch history.  Bytes are the
  deterministic comparison (the §VIII CDN bill of a fleet-wide restart);
  wall-clock times are recorded alongside.

Artifacts: ``benchmarks/results/durable_recovery.json`` (machine-readable,
uploaded by CI) and ``durable_recovery.txt`` (human table).
"""

import os
import time

from repro.analysis.reporting import format_table, human_bytes
from repro.cdn import CDNNetwork, GeoLocation
from repro.cdn.geography import Region
from repro.pki import CertificationAuthority, SerialNumber
from repro.ritm import (
    RITMCertificationAuthority,
    RITMConfig,
    RevocationAgent,
    attach_agent_to_cas,
)
from repro.store import create_store
from repro.store.durable import DurableMerkleStore

from bench_harness import write_json_result, write_result

#: Store sizes swept by the engine-level measurements.
SIZES = [1_000, 5_000, 20_000]
if os.environ.get("RITM_BENCH_FULL"):
    SIZES.append(100_000)

BATCH = 500

#: RITM-level recovery shape: periods synced before the checkpoint, and
#: periods of outage whose delta the warm restart must fetch.
RECOVERY_PERIODS = 24
OUTAGE_PERIODS = 4
SERIALS_PER_PERIOD = 40


def _batches_for(total: int):
    """Append-ordered (key, value) batches of BATCH serials each."""
    batches = []
    for start in range(0, total, BATCH):
        batches.append(
            [
                (value.to_bytes(8, "big"), (value % 251).to_bytes(4, "big"))
                for value in range(start + 1, min(start + BATCH, total) + 1)
            ]
        )
    return batches


def _engine_sweep(tmp_root) -> list:
    """WAL overhead, snapshot size, and store-level reopen time per size."""
    records = []
    for size in SIZES:
        batches = _batches_for(size)

        incremental = create_store("incremental")
        started = time.perf_counter()
        for batch in batches:
            incremental.insert_batch(batch)
        incremental_seconds = time.perf_counter() - started

        directory = tmp_root / f"store-{size}"
        durable = DurableMerkleStore(directory=directory, snapshot_every=0)
        started = time.perf_counter()
        for batch in batches:
            durable.insert_batch(batch)
        durable_seconds = time.perf_counter() - started
        assert durable.root() == incremental.root()
        wal_bytes = durable.wal_size_bytes()
        durable.snapshot()
        snapshot_bytes = durable.snapshot_size_bytes()
        assert snapshot_bytes > 0
        durable.close()

        started = time.perf_counter()
        recovered = DurableMerkleStore(directory=directory, snapshot_every=0)
        recover_seconds = time.perf_counter() - started
        assert recovered.root() == incremental.root()
        recovered.close()

        records.append(
            {
                "leaves": size,
                "incremental_seconds": round(incremental_seconds, 6),
                "durable_seconds": round(durable_seconds, 6),
                "wal_overhead_ratio": round(
                    durable_seconds / incremental_seconds, 3
                ),
                "wal_bytes": wal_bytes,
                "snapshot_bytes": snapshot_bytes,
                "snapshot_bytes_per_leaf": round(snapshot_bytes / size, 2),
                "reopen_seconds": round(recover_seconds, 6),
            }
        )
    return records


def _recovery_comparison(tmp_path) -> dict:
    """Warm checkpoint restore vs cold full resync at the RITM layer."""
    config = RITMConfig(delta_seconds=10, chain_length=256, store_engine="durable")
    authority = CertificationAuthority("Recovery CA", key_seed=b"durable-bench")
    cdn = CDNNetwork()
    ca = RITMCertificationAuthority(authority, config, cdn)
    ca.bootstrap(now=100)
    agent = RevocationAgent("steady-ra", config)
    client = attach_agent_to_cas(agent, [ca], cdn, GeoLocation(Region.EUROPE))
    client.pull(now=101)

    serial = 0
    for period in range(RECOVERY_PERIODS):
        now = 200 + period * 10
        batch = [SerialNumber(serial + offset + 1) for offset in range(SERIALS_PER_PERIOD)]
        serial += SERIALS_PER_PERIOD
        ca.revoke(batch, now=now)
        client.pull(now=now + 5)

    checkpoint_dir = tmp_path / "checkpoint"
    started = time.perf_counter()
    client.checkpoint(checkpoint_dir)
    checkpoint_seconds = time.perf_counter() - started

    for period in range(OUTAGE_PERIODS):
        now = 1000 + period * 10
        batch = [SerialNumber(serial + offset + 1) for offset in range(SERIALS_PER_PERIOD)]
        serial += SERIALS_PER_PERIOD
        ca.revoke(batch, now=now)

    cold_agent = RevocationAgent("cold-ra", config)
    cold_client = attach_agent_to_cas(cold_agent, [ca], cdn, GeoLocation(Region.EUROPE))
    started = time.perf_counter()
    cold_result = cold_client.pull(now=2000)
    cold_seconds = time.perf_counter() - started

    warm_agent = RevocationAgent("steady-ra", config)
    warm_client = attach_agent_to_cas(warm_agent, [ca], cdn, GeoLocation(Region.EUROPE))
    started = time.perf_counter()
    restored = warm_client.restore(checkpoint_dir)
    warm_result = warm_client.pull(now=2000)
    warm_seconds = time.perf_counter() - started

    assert restored == 1
    assert warm_result.serials_applied == OUTAGE_PERIODS * SERIALS_PER_PERIOD
    assert cold_result.serials_applied == serial
    assert warm_result.bytes_downloaded < cold_result.bytes_downloaded
    warm_replica = warm_agent.replica_for(ca.name)
    cold_replica = cold_agent.replica_for(ca.name)
    assert warm_replica.root() == cold_replica.root()

    record = {
        "synced_periods": RECOVERY_PERIODS,
        "outage_periods": OUTAGE_PERIODS,
        "dictionary_size": serial,
        "checkpoint_seconds": round(checkpoint_seconds, 6),
        "restored_replicas": restored,
        "warm_bytes": warm_result.bytes_downloaded,
        "cold_bytes": cold_result.bytes_downloaded,
        "bytes_saved_ratio": round(
            cold_result.bytes_downloaded / warm_result.bytes_downloaded, 2
        ),
        "warm_serials_applied": warm_result.serials_applied,
        "cold_serials_applied": cold_result.serials_applied,
        "warm_seconds": round(warm_seconds, 6),
        "cold_seconds": round(cold_seconds, 6),
        "warm_simulated_latency_seconds": round(warm_result.latency_seconds, 6),
        "cold_simulated_latency_seconds": round(cold_result.latency_seconds, 6),
    }
    for an_agent in (agent, cold_agent, warm_agent):
        an_agent.close()
    ca.close()
    return record


def test_durable_recovery(benchmark, tmp_path):
    """One artifact-producing run of all three measurements."""
    engine_records = benchmark.pedantic(
        lambda: _engine_sweep(tmp_path), rounds=1, iterations=1
    )
    recovery = _recovery_comparison(tmp_path)

    # the warm restart must also be back inside the 2Δ bound first: the
    # simulated recovery latency (RTT + transfer) is strictly smaller
    assert (
        recovery["warm_simulated_latency_seconds"]
        < recovery["cold_simulated_latency_seconds"]
    )

    payload = {"engine_sweep": engine_records, "recovery": recovery}
    write_json_result("durable_recovery", payload)

    rows = [
        [
            record["leaves"],
            f"{record['incremental_seconds']:.3f}s",
            f"{record['durable_seconds']:.3f}s",
            f"{record['wal_overhead_ratio']:.2f}x",
            human_bytes(record["wal_bytes"]),
            human_bytes(record["snapshot_bytes"]),
            f"{record['reopen_seconds'] * 1000:.1f}ms",
        ]
        for record in engine_records
    ]
    sweep_table = format_table(
        ["leaves", "incremental", "durable", "WAL overhead", "WAL", "snapshot", "reopen"],
        rows,
        title="durable engine: WAL-append overhead and snapshot size vs leaves",
    )
    recovery_table = format_table(
        ["metric", "warm (checkpoint)", "cold (full resync)"],
        [
            (
                "bytes downloaded",
                human_bytes(recovery["warm_bytes"]),
                human_bytes(recovery["cold_bytes"]),
            ),
            (
                "serials applied",
                recovery["warm_serials_applied"],
                recovery["cold_serials_applied"],
            ),
            (
                "recovery wall-clock",
                f"{recovery['warm_seconds'] * 1000:.1f}ms",
                f"{recovery['cold_seconds'] * 1000:.1f}ms",
            ),
            (
                "simulated pull latency",
                f"{recovery['warm_simulated_latency_seconds']:.3f}s",
                f"{recovery['cold_simulated_latency_seconds']:.3f}s",
            ),
        ],
        title=(
            f"RA restart after {recovery['outage_periods']}-period outage "
            f"({recovery['dictionary_size']} revocations total, "
            f"{recovery['bytes_saved_ratio']}x fewer bytes warm)"
        ),
    )
    write_result("durable_recovery", sweep_table + "\n\n" + recovery_table)
