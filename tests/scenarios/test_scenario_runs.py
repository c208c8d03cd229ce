"""Smoke-run every registered scenario and pin the report schema."""

import json

import pytest

from repro.scenarios import (
    CACHE_METRIC_KEYS,
    DISSEMINATION_METRIC_KEYS,
    FLEET_METRIC_KEYS,
    REPLICATION_METRIC_KEYS,
    REPORT_SCHEMA_KEYS,
    all_scenarios,
    get,
    run_scenario,
)

_REPORT_CACHE = {}


def report_for(name: str):
    """Run each scenario's smoke variant once per test session."""
    if name not in _REPORT_CACHE:
        _REPORT_CACHE[name] = run_scenario(get(name), smoke=True)
    return _REPORT_CACHE[name]


def scenario_names():
    return [config.name for config in all_scenarios()]


@pytest.mark.parametrize("name", scenario_names())
def test_report_schema_is_pinned(name):
    report = report_for(name)
    payload = report.to_json_dict()
    assert tuple(sorted(payload)) == tuple(sorted(REPORT_SCHEMA_KEYS))
    dissemination = payload["metrics"]["dissemination"]
    assert tuple(sorted(dissemination)) == tuple(sorted(DISSEMINATION_METRIC_KEYS))
    hot_path = payload["metrics"]["hot_path"]
    assert sorted(hot_path) == ["edge_object_cache", "proof_cache", "root_cache"]
    for section in hot_path.values():
        assert tuple(sorted(section)) == tuple(sorted(CACHE_METRIC_KEYS))
    fleet = payload["metrics"]["fleet"]
    assert tuple(sorted(fleet)) == tuple(sorted(FLEET_METRIC_KEYS))
    # the replication block appears iff the scenario injects a region outage
    # or has every RA archive batch objects (``segment_streaming``)
    if any(
        fault.startswith("region-outage") for fault in payload["config"]["faults"]
    ) or payload["config"].get("segment_streaming"):
        replication = payload["metrics"]["replication"]
        assert tuple(sorted(replication)) == tuple(sorted(REPLICATION_METRIC_KEYS))
    else:
        assert "replication" not in payload["metrics"]
    assert fleet["scheduler_events_processed"] > 0
    assert fleet["fleet_size"] == len(payload["metrics"]["agents"])
    # the whole report must survive a JSON round trip
    assert json.loads(json.dumps(payload)) == payload


@pytest.mark.parametrize("name", scenario_names())
def test_dissemination_metrics_nonzero(name):
    report = report_for(name)
    dissemination = report.metrics["dissemination"]
    assert dissemination["pulls"] > 0
    assert dissemination["bytes_downloaded"] > 0
    assert dissemination["freshness_applied"] > 0


@pytest.mark.parametrize("name", scenario_names())
def test_all_checks_pass(name):
    report = report_for(name)
    assert report.checks, "every scenario must assert something about its outcome"
    failed = [check.name for check in report.failed_checks()]
    assert not failed, f"{name} failed checks: {failed}"


@pytest.mark.parametrize("name", scenario_names())
def test_markdown_rendering(name):
    report = report_for(name)
    markdown = report.to_markdown()
    assert report.title in markdown
    assert "## Metrics" in markdown
    assert "## Checks" in markdown


def test_reports_written_to_disk(tmp_path):
    report = report_for("quickstart")
    json_path, md_path = report.write(tmp_path)
    assert json_path.exists() and md_path.exists()
    payload = json.loads(json_path.read_text())
    assert payload["scenario"] == "quickstart"


def test_quickstart_outcome_details():
    report = report_for("quickstart")
    victim = report.extras["victim"]
    assert victim["initial_handshake_accepted"] is True
    assert victim["final_handshake_accepted"] is False
    assert victim["final_rejection"] == "certificate-revoked"


def test_iot_detects_within_bound():
    report = report_for("iot-long-lived")
    victim = report.extras["victim"]
    bound = report.config["attack_window_bound_seconds"]
    assert victim["detection_lag_seconds"] is not None
    assert victim["detection_lag_seconds"] <= bound
    baseline = report.extras["baseline"]
    assert baseline["reports_revoked_one_hour_after_revocation"] is False
    assert baseline["worst_case_exposure_seconds"] > bound


def test_gossip_audit_produces_valid_evidence():
    """The victim's revocation, forged at campus-ra's US edges, is caught by
    the gossip ring in the period it was planted."""
    report = report_for("ca-audit-gossip")
    equivocation = report.extras["equivocation"]
    assert equivocation["evidence_valid_under_ca_keyring"] is True
    assert equivocation["misbehavior_reports"] >= 1
    assert equivocation["hidden_serial"] == report.extras["victim"]["serial"]
    assert equivocation["targeted_agent"] == "campus-ra"
    assert equivocation["targeted_blind"] is True
    assert equivocation["detected_period"] == 1


def test_degraded_ra_attack_window():
    report = report_for("degraded-ra")
    window = report.metrics["attack_window"]
    assert window["per_agent"]["flaky-ra"] > window["bound_seconds"]
    assert window["per_agent"]["healthy-ra"] <= window["bound_seconds"]
    assert report.metrics["agents"]["flaky-ra"]["missed_pulls"] > 0


def test_victim_revoked_during_ca_outage_is_tracked():
    """A revoke_victim event queued by a ca-outage must still mark the victim."""
    from repro.scenarios.config import (
        AgentSpec,
        FaultSpec,
        RevocationEvent,
        ScenarioConfig,
        WorkloadSpec,
    )

    config = ScenarioConfig(
        name="outage-victim-adhoc",
        title="t",
        summary="s",
        description="d",
        delta_seconds=10,
        duration_periods=6,
        agents=(AgentSpec("ra"),),
        workload=WorkloadSpec(
            kind="scripted",
            events=(RevocationEvent(at_period=2, revoke_victim=True),),
        ),
        faults=(FaultSpec(kind="ca-outage", at_period=2, duration_periods=2),),
        victim_host="late.example",
    )
    report = run_scenario(config)
    victim = report.extras["victim"]
    assert victim["revoked_at"] is not None
    assert victim["final_handshake_accepted"] is False
    check_names = {check.name for check in report.checks}
    assert "revoked-handshake-rejected" in check_names
    assert report.all_checks_passed, [c.name for c in report.failed_checks()]


def test_sharded_longrun_reclaims_storage_and_matches_oracle():
    report = report_for("sharded-longrun")
    assert report.all_checks_passed, [c.name for c in report.failed_checks()]
    study = report.extras["sharded_storage"]
    assert study["ra_reclaimed_bytes"] > 0
    assert study["ca_shards_retired"] > 0
    assert study["verdict_mismatches"] == 0
    assert study["live_serials_checked"] > 0
    assert study["read_path_pure"] is True
    assert study["baseline_monotonic"] is True
    assert study["sharded_final_bytes"] < study["baseline_final_bytes"]
    sharding = report.metrics["sharding"]
    assert sharding["ra_reclaimed_bytes"] == study["ra_reclaimed_bytes"]
    assert sharding["ca_shard_count"] > 0
    # every timeline sample reports both series
    for sample in study["timeline"]:
        assert {"ra_storage_bytes", "baseline_storage_bytes"} <= set(sample)


def test_sharded_run_converges_across_window_boundary():
    """Regression: a shard-window boundary inside the final period must not
    fail replicas-converged (the RA prunes at pull time, one Δ before the
    CA's next refresh retires the same shard)."""
    from repro.scenarios.config import RevocationEvent

    config = get("sharded-longrun").with_overrides(
        duration_periods=38,
        workload={
            "events": tuple(
                RevocationEvent(at_period=period, count=5, reason="steady")
                for period in range(38)
            )
        },
    )
    report = run_scenario(config)
    assert report.all_checks_passed, [c.name for c in report.failed_checks()]


def test_region_outage_restores_via_peer_anti_entropy():
    report = report_for("region-outage")
    assert report.all_checks_passed, [c.name for c in report.failed_checks()]
    check_names = {check.name for check in report.checks}
    assert {
        "peers-absorb-within-2delta",
        "ca-egress-less-than-N-cold-syncs",
        "restored-ra-syncs-from-peer",
        "verdicts-match-unsharded-oracle",
    } <= check_names

    study = report.extras["replication"]
    assert study["failed_region"] == "Europe"
    assert study["verdicts_checked"] > 0
    assert study["verdict_mismatches"] == 0
    assert study["recovery_origin_bytes"] < study["cold_sync_bytes_fleet"]
    assert study["restored_agents"]
    for record in study["restored_agents"].values():
        assert record["peer"]  # caught up from a named healthy peer
        assert record["batches_from_peer"] >= 1
        assert record["cold_sync_fallbacks"] == 0
    for survivor in study["survivors"].values():
        assert survivor["region"] != study["failed_region"]

    replication = report.metrics["replication"]
    assert replication["batches_published"] >= 1
    assert replication["batches_from_peer"] >= 1
    assert replication["cold_sync_fallbacks"] == 0
    kinds = {event["kind"] for event in report.events}
    assert {"region-failed", "region-restored", "anti-entropy"} <= kinds


def test_tampered_cdn_recovers_via_resync():
    report = report_for("tampered-cdn")
    assert report.metrics["dissemination"]["resyncs"] >= 1
    kinds = {event["kind"] for event in report.events}
    assert "tampered-batch" in kinds
    assert "backlog-flush" in kinds
    # the replica still converged to the honest dictionary
    sizes = {agent["size"] for agent in report.metrics["agents"].values()}
    assert sizes == {report.metrics["dictionary"]["ca_size"]}
