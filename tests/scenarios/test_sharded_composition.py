"""Sharding composes: registered scenarios run sharded by override alone.

Expiry-split dictionaries (§VIII) used to be a fork beside the unsharded
path, and ``ScenarioConfig`` rejected ``sharded ×`` key rotation, study
phases, fault injection, client load, and batch archiving.  With every
dictionary a *stream*, sharding is plain configuration: each test here takes
a registered scenario's smoke config, flips ``sharded=True`` through
``with_overrides`` (plus the sharding knobs, and where a fault's timing
depends on them, that timing), and requires **every** check of the report to
pass — the scenario's own verdicts and the sharded study's (storage
reclaimed, differential verdicts against the single-dictionary oracle,
read-path purity, storage plateau).
"""

from __future__ import annotations

import pytest

from repro.ritm import RITMConfig
from repro.scenarios import AgentSpec, FaultSpec, RevocationEvent, get, run_scenario
from repro.scenarios.config import ClientStreamSpec

#: 2-period expiry windows, certificates expiring 1..4 periods after their
#: revocation: several live shards at any time, retirement every other period.
SHARDED = {"sharded": True, "shard_width_periods": 2, "cert_lifetime_periods": 4}

VARIANTS = {
    # durable-compact + per-shard batch archives + streamed clients + key
    # rotation mid-trace + shard retirement under load.
    "soak": {**SHARDED, "key_rotation_periods": 7},
    # Restored RAs recover every live shard peer-to-peer.
    "region-outage": SHARDED,
    # Streamed client handshakes served from shard replicas by certificate expiry.
    "thundering-herd": SHARDED,
    # The victim phase: handshakes proven from the shard covering the
    # victim's expiry.  A few short-lived revocations up front give the run
    # a shard to retire (the victim's own window outlives it).
    "quickstart": {
        **SHARDED,
        "duration_periods": 8,
        "workload": {
            "events": (
                RevocationEvent(at_period=0, count=6),
                RevocationEvent(at_period=2, revoke_victim=True, reason="key compromise"),
            )
        },
    },
    # A sharded CA refreshes (and so counts towards its rotation schedule)
    # every period, so the epoch-1 key is only past its overlap at period 7.
    "rotated-ca-key": {
        **SHARDED,
        "faults": (FaultSpec(kind="retired-key-forgery", at_period=7),),
    },
    # The victim's revocation is what the equivocating CA hides from
    # campus-ra; six short-lived revocations give the run shards to retire.
    "ca-audit-gossip": {
        **SHARDED,
        "duration_periods": 8,
        "workload": {
            "events": (
                RevocationEvent(at_period=0, count=6),
                RevocationEvent(
                    at_period=2, revoke_victim=True, reason="equivocation target"
                ),
            )
        },
        "faults": (FaultSpec(kind="equivocating-ca", at_period=2, agent="campus-ra"),),
    },
    "degraded-ra": SHARDED,
    "equivocating-ca": SHARDED,
    "ra-crash-recovery": SHARDED,
    "replayed-head": SHARDED,
    "slow-ra-holb": SHARDED,
    "staggered-pulls": SHARDED,
    "tampered-cdn": SHARDED,
}


@pytest.mark.parametrize(
    "overrides",
    [
        {"key_rotation_periods": 3},
        {"victim_host": "shop.example", "baseline": "ocsp-stapling"},
        {
            "victim_host": "bank.example",
            "faults": (FaultSpec(kind="equivocating-ca", at_period=1, agent="ra-b"),),
        },
        {"faults": (FaultSpec(kind="ca-outage", at_period=1),)},
        {"client_stream": ClientStreamSpec(clients=10, sites=5, events_total=100)},
        {"segment_streaming": True},
    ],
    ids=lambda overrides: "+".join(overrides),
)
def test_formerly_excluded_combinations_validate(overrides):
    """Every ``sharded ×`` combination ScenarioConfig used to reject builds."""
    config = get("sharded-longrun").smoke().with_overrides(
        agents=(AgentSpec("ra-a", "EUROPE"), AgentSpec("ra-b", "JAPAN")), **overrides
    )
    assert config.sharded
    ritm = RITMConfig(sharded=True, key_rotation_periods=3)
    assert ritm.sharded and ritm.key_rotation_periods == 3


@pytest.fixture(scope="module")
def reports():
    """Each sharded variant's report, run once for the whole module."""
    return {
        name: run_scenario(get(name).smoke().with_overrides(**overrides)).to_json_dict()
        for name, overrides in VARIANTS.items()
    }


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_sharded_variant_passes_every_check(reports, name):
    report = reports[name]
    assert report["config"]["sharded"] is True
    failed = [check for check in report["checks"] if not check["passed"]]
    assert not failed, failed
    passed = {check["name"] for check in report["checks"]}
    # The sharded study ran on top of the scenario's own verdicts …
    assert {"ra-storage-reclaimed", "verdicts-match-unsharded-oracle"} <= passed
    # … and shards really retired under this scenario's load.
    sharding = report["metrics"]["sharding"]
    assert sharding["ca_shards_retired"] > 0
    assert sharding["ra_reclaimed_bytes"] > 0


def test_unsharded_verdicts_survive_sharding(reports):
    """A sharded variant answers every check its unsharded original does."""
    for name in VARIANTS:
        original = run_scenario(get(name).smoke()).to_json_dict()
        assert {c["name"] for c in original["checks"]} <= {
            c["name"] for c in reports[name]["checks"]
        }, name


def test_soak_rotates_keys_across_live_shards(reports):
    report = reports["soak"]
    rotations = report["extras"]["key_rotation"]["rotations"]
    assert rotations
    assert max(rotation["streams_resigned"] for rotation in rotations) >= 2
    epochs = set(report["extras"]["key_rotation"]["agent_key_epochs"].values())
    assert epochs == {report["extras"]["key_rotation"]["ca_key_epoch"]}
    # Per-shard batch objects were the steady-state transport, rotation never
    # forced a cold resync, and no pull cycle recorded an error.
    assert report["metrics"]["replication"]["batches_applied"] > 0
    assert report["metrics"]["replication"]["batches_rejected"] == 0
    assert report["metrics"]["dissemination"]["resyncs"] == 0
    assert report["metrics"]["dissemination"]["errors"] == 0
    soak = report["extras"]["soak"]
    assert soak["subsystems"]["handshakes_served"] == soak["events_total"]


def test_region_outage_recovers_live_shards_from_a_peer(reports):
    report = reports["region-outage"]
    restored = report["extras"]["replication"]["restored_agents"]
    assert restored
    for record in restored.values():
        assert record["restored_replicas"] >= 2  # several shards warm-started
        assert record["batches_from_peer"] >= 1
        assert record["peer_serials_applied"] > 0
        assert record["cold_sync_fallbacks"] == 0
        assert record["ca_origin_bytes"] == 0
    assert report["metrics"]["replication"]["cold_sync_fallbacks"] == 0
    assert report["metrics"]["dissemination"]["resyncs"] == 0


def test_thundering_herd_serves_client_handshakes_from_shards(reports):
    report = reports["thundering-herd"]
    events_total = report["config"]["fleet"]["client_stream"]["events_total"]
    assert events_total > 0
    assert report["metrics"]["fleet"]["handshakes_served"] == events_total


def test_quickstart_victim_is_proven_from_its_expiry_shard(reports):
    checks = {check["name"]: check for check in reports["quickstart"]["checks"]}
    assert checks["initial-handshake-accepted"]["passed"]
    assert checks["revoked-handshake-rejected"]["passed"]
    victim = reports["quickstart"]["extras"]["victim"]
    assert victim["initial_handshake_accepted"] and not victim["final_handshake_accepted"]
    assert victim["final_rejection"] == "certificate-revoked"
