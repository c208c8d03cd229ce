"""§VIII "Ever-growing dictionaries": sharded vs. unsharded RA storage.

Drives a multi-quarter clock through a sharded
:class:`RITMCertificationAuthority` (no CDN) / an RA's shard registry
(``RevocationAgent``; one run per store engine) with certificate expiry
churn, retiring and pruning expired shards each period, and compares the
RA's storage footprint against an unsharded :class:`CADictionary` fed the
same revocations.  The quantities of interest:

* the sharded RA footprint **plateaus** (final ≈ peak) while the unsharded
  baseline grows monotonically with every revocation;
* the bytes reclaimed by pruning are **> 0** and equal on both sides of the
  protocol (the CA retires exactly the shards the RA prunes);
* per-shard proof verdicts for live serials match the unsharded oracle.

Artifacts: ``benchmarks/results/sharded_storage.json`` (machine-readable,
uploaded by CI) and ``sharded_storage.txt`` (human table).
"""

import time

import pytest

from repro.cdn import CDNNetwork
from repro.crypto.signing import KeyPair
from repro.analysis.reporting import format_table, human_bytes
from repro.dictionary.authdict import CADictionary
from repro.pki.ca import CertificationAuthority
from repro.pki.serial import SerialNumber
from repro.ritm.agent import RevocationAgent
from repro.ritm.ca_service import RITMCertificationAuthority
from repro.ritm.config import RITMConfig

from bench_harness import write_json_result, write_result

WEEK = 7 * 86_400
PERIODS = 30
REVOCATIONS_PER_PERIOD = 60
SHARD_WIDTH_PERIODS = 4
CERT_LIFETIME_PERIODS = 8
EPOCH = 1_400_000_000

_RESULTS = {}


def _drive_engine(engine: str) -> dict:
    """One multi-quarter sharded run against ``engine``; returns its record."""
    seed = f"sharded-bench-{engine}".encode()
    keys = KeyPair.generate(seed)
    config = RITMConfig(
        delta_seconds=WEEK,
        chain_length=64,
        store_engine=engine,
        sharded=True,
        shard_width_seconds=SHARD_WIDTH_PERIODS * WEEK,
    )
    sharded = RITMCertificationAuthority(
        CertificationAuthority("Bench-CA", key_seed=seed), config, CDNNetwork()
    )
    agent = RevocationAgent("bench-ra", config=RITMConfig(store_engine=engine))
    agent.register_sharded_ca("Bench-CA", SHARD_WIDTH_PERIODS * WEEK, sharded.public_key)
    baseline = CADictionary(
        "Bench-CA-unsharded", keys, delta=WEEK, chain_length=64, engine=engine
    )

    serial_counter = 0
    expiries = {}
    timeline = []
    started = time.perf_counter()
    for period in range(PERIODS):
        now = EPOCH + period * WEEK
        pairs = []
        for offset in range(REVOCATIONS_PER_PERIOD):
            serial_counter += 1
            serial = SerialNumber(serial_counter)
            expiry = now + ((offset % CERT_LIFETIME_PERIODS) + 1) * WEEK
            pairs.append((serial, expiry))
            expiries[serial_counter] = expiry
        for key, issuance in sharded.revoke_with_expiry(pairs, now=now):
            agent.register_shard_replica("Bench-CA", key.index).update(issuance)
        baseline.insert([serial for serial, _ in pairs], now=now)
        sharded.retire_expired(now)
        agent.prune_shard_replicas("Bench-CA", now)
        held = agent.shard_replicas("Bench-CA").values()
        timeline.append(
            {
                "period": period,
                "sharded_ra_bytes": sum(r.storage_size_bytes() for r in held),
                "unsharded_bytes": baseline.storage_size_bytes(),
                "live_shards": len(held),
            }
        )
    elapsed = time.perf_counter() - started

    end = EPOCH + PERIODS * WEEK
    live = [(value, expiry) for value, expiry in expiries.items() if expiry > end]
    mismatches = sum(
        1
        for value, expiry in live
        if agent.replica_for_certificate("Bench-CA", expiry)
        .prove(SerialNumber(value))
        .is_revoked
        != baseline.contains(SerialNumber(value))
    )
    return {
        "engine": engine,
        "periods": PERIODS,
        "revocations": serial_counter,
        "seconds": round(elapsed, 4),
        "timeline": timeline,
        "sharded_final_bytes": timeline[-1]["sharded_ra_bytes"],
        "sharded_peak_bytes": max(t["sharded_ra_bytes"] for t in timeline),
        "unsharded_final_bytes": timeline[-1]["unsharded_bytes"],
        "ra_reclaimed_bytes": agent.reclaimed_storage_bytes,
        "ca_reclaimed_bytes": sharded.reclaimed_storage_bytes,
        "shards_retired": len(sharded.retired_windows),
        "live_serials_checked": len(live),
        "verdict_mismatches": mismatches,
    }


@pytest.mark.parametrize("engine", ["naive", "incremental"])
def test_sharded_storage_plateaus(benchmark, engine):
    record = benchmark.pedantic(lambda: _drive_engine(engine), rounds=1, iterations=1)
    _RESULTS[engine] = record

    assert record["shards_retired"] > 0
    assert record["ra_reclaimed_bytes"] > 0
    # The CA retires exactly the shards the RA prunes.
    assert record["ra_reclaimed_bytes"] == record["ca_reclaimed_bytes"]
    assert record["sharded_final_bytes"] < record["unsharded_final_bytes"]
    # Plateau: after the warmup (lifetime + one shard width), the footprint
    # stops growing — the peak is already reached well before the last
    # period, and the steady state stays far below the ever-growing total.
    warmup = CERT_LIFETIME_PERIODS + SHARD_WIDTH_PERIODS
    early_peak = max(
        sample["sharded_ra_bytes"] for sample in record["timeline"][: warmup + 2]
    )
    assert early_peak == record["sharded_peak_bytes"]
    assert record["sharded_peak_bytes"] < record["unsharded_final_bytes"] / 2
    assert record["verdict_mismatches"] == 0 and record["live_serials_checked"] > 0
    # Artifacts are (re)written by whichever engine run finishes last, so a
    # partial run (-k naive) still produces them and a full run has both.
    _write_artifacts()


def _write_artifacts():
    """Emit the JSON + table artifacts from the engine runs so far."""
    write_json_result("sharded_storage", _RESULTS)
    rows = [
        [
            record["engine"],
            record["revocations"],
            record["shards_retired"],
            human_bytes(record["sharded_final_bytes"]),
            human_bytes(record["unsharded_final_bytes"]),
            human_bytes(record["ra_reclaimed_bytes"]),
            f"{record['seconds']:.3f}s",
        ]
        for record in _RESULTS.values()
    ]
    table = format_table(
        [
            "engine",
            "revocations",
            "shards retired",
            "sharded RA",
            "unsharded RA",
            "reclaimed",
            "time",
        ],
        rows,
        title="§VIII expiry-sharded vs. ever-growing RA storage "
        f"({PERIODS} weekly periods, {SHARD_WIDTH_PERIODS}-week shards)",
    )
    write_result("sharded_storage", table)
