"""Pass/fail check builders for the fleet engine's reports.

The generic and fault/study-specific checks are direct ports of the
serial runner's ``_build_checks`` family over
:class:`~repro.scenarios.engine.state.RunState`, keeping every existing
scenario's verdict stream pinned.  On top of those, :func:`fleet_checks`
derives contention assertions from the concurrency knobs themselves —
client-load service, stagger flattening, head-of-line isolation under a
stalled uplink, thundering-herd overlap — so the three new scenarios get
their verdicts without bespoke per-scenario code.
"""

from __future__ import annotations

from typing import Dict, List

from repro.ritm.client import RejectionReason
from repro.scenarios.config import FaultSpec
from repro.scenarios.engine import studies
from repro.scenarios.engine.metrics import peak_concurrency
from repro.scenarios.engine.state import RunState
from repro.scenarios.report import ScenarioCheck


def build_checks(state: RunState, extras: Dict[str, object]) -> List[ScenarioCheck]:
    """The generic and fault/study-specific pass/fail assertions."""
    cfg, ca, victim, runtimes = state.config, state.ca, state.victim, state.runtimes
    checks: List[ScenarioCheck] = []
    total = state.pull_totals()
    pulls = sum(len(r.pull_results()) for r in runtimes)
    bytes_downloaded = total.bytes_downloaded
    checks.append(
        ScenarioCheck(
            "dissemination-active",
            pulls > 0 and bytes_downloaded > 0,
            f"{pulls} pulls, {bytes_downloaded} bytes",
        )
    )
    equivocation_targets = {
        fault.agent or runtimes[-1].spec_name
        for fault in cfg.faults
        if fault.kind == "equivocating-ca"
    }
    converged_agents = [r for r in runtimes if r.spec_name not in equivocation_targets]
    converged = all(studies.replicas_converged(state, r) for r in converged_agents)
    checks.append(
        ScenarioCheck(
            "replicas-converged",
            converged,
            f"CA size {ca.total_revocations()}",
        )
    )
    if "sharded_storage" in extras:
        checks.extend(sharded_checks(extras["sharded_storage"]))
    if victim is not None:
        checks.append(
            ScenarioCheck(
                "initial-handshake-accepted",
                victim.initial_accepted,
                f"status {victim.status_size_bytes} B",
            )
        )
        if victim.revoked_at is not None:
            checks.append(
                ScenarioCheck(
                    "revoked-handshake-rejected",
                    not victim.final_accepted
                    and victim.final_rejection
                    == RejectionReason.CERTIFICATE_REVOKED.value,
                    victim.final_rejection,
                )
            )
    if cfg.long_lived_session and victim is not None:
        bound = cfg.attack_window_seconds()
        detected = victim.detected_at is not None and victim.revoked_at is not None
        lag = (victim.detected_at - victim.revoked_at) if detected else float("inf")
        checks.append(
            ScenarioCheck(
                "mid-session-detection-within-bound",
                detected and lag <= bound,
                f"lag {lag:.0f}s vs bound {bound}s" if detected else "not detected",
            )
        )
    if any(fault.kind == "tampered-batch" for fault in cfg.faults):
        resyncs = total.resyncs
        checks.append(
            ScenarioCheck(
                "tamper-detected-and-recovered",
                resyncs >= 1 and converged,
                f"{resyncs} resync(s)",
            )
        )
    if any(fault.kind == "replayed-head" for fault in cfg.faults):
        replays = total.replays_rejected
        checks.append(
            ScenarioCheck(
                "replayed-head-rejected",
                replays >= 1,
                f"{replays} replayed publication(s) rejected",
            )
        )
        checks.append(
            ScenarioCheck(
                "replica-unmutated-by-replay",
                state.replay_probes > 0 and state.replay_mutations == 0,
                f"{state.replay_probes} replica snapshot(s) across the replay "
                f"window, {state.replay_mutations} mutated",
            )
        )
    if any(fault.kind == "retired-key-forgery" for fault in cfg.faults):
        checks.append(
            ScenarioCheck(
                "retired-key-forgery-rejected",
                state.forgery_attempts >= 1
                and state.forgery_errors >= 1
                and converged,
                f"{state.forgery_attempts} forged head(s) published, "
                f"{state.forgery_errors} pull error(s), replicas recovered",
            )
        )
    if "key_rotation" in extras:
        checks.extend(rotation_checks(extras["key_rotation"]))
    if "equivocation" in extras:
        fault = next(f for f in cfg.faults if f.kind == "equivocating-ca")
        checks.extend(equivocation_checks(extras["equivocation"], fault))
    restart_faults = [f for f in cfg.faults if f.kind == "ra-restart"]
    if restart_faults:
        targets = sorted(
            {f.agent or runtimes[-1].spec_name for f in restart_faults}
        )
        degraded = [r for r in runtimes if r.spec_name in targets]
        healthy = [r for r in runtimes if r.spec_name not in targets]
        bound = cfg.attack_window_seconds()
        checks.append(
            ScenarioCheck(
                "missed-pulls-extend-attack-window",
                all(r.max_lag_seconds > bound for r in degraded),
                ", ".join(
                    f"{r.spec_name} worst lag {r.max_lag_seconds:.0f}s"
                    for r in degraded
                )
                + f" vs bound {bound}s",
            )
        )
        if healthy:
            worst_healthy = max(r.max_lag_seconds for r in healthy)
            checks.append(
                ScenarioCheck(
                    "healthy-agents-within-bound",
                    worst_healthy <= bound,
                    f"worst healthy lag {worst_healthy:.1f}s",
                )
            )
    if "crash_recovery" in extras:
        checks.extend(crash_checks(extras["crash_recovery"]))
    if "soak" in extras:
        checks.extend(soak_checks(extras["soak"]))
    if "replication" in extras:
        checks.extend(
            region_outage_checks(extras["replication"], cfg.attack_window_seconds())
        )
    checks.extend(fleet_checks(state))
    return checks


def fleet_checks(state: RunState) -> List[ScenarioCheck]:
    """Contention assertions derived from the concurrency knobs.

    Each group only fires when its knob is set, so the pre-engine
    scenarios (all knobs at defaults) gain no new checks.
    """
    cfg = state.config
    checks: List[ScenarioCheck] = []
    bound = cfg.attack_window_seconds()
    peak = peak_concurrency(state.pull_intervals)

    stream = cfg.client_stream
    if stream is not None:
        checks.append(
            ScenarioCheck(
                "client-load-served",
                state.handshakes_served == stream.events_total,
                f"{state.handshakes_served}/{stream.events_total} streamed handshakes "
                f"served, {state.handshake_roots_verified} sampled root(s) "
                f"re-verified",
            )
        )

    if cfg.pull_stagger_seconds:
        checks.append(
            ScenarioCheck(
                "stagger-flattens-pull-peak",
                0 < peak < len(state.runtimes),
                f"peak {peak} concurrent pull(s) across "
                f"{len(state.runtimes)} staggered agents",
            )
        )
        checks.append(
            ScenarioCheck(
                "staggered-fleet-within-bound",
                all(r.max_lag_seconds <= bound for r in state.runtimes),
                f"worst lag "
                f"{max((r.max_lag_seconds for r in state.runtimes), default=0.0):.1f}s "
                f"vs bound {bound}s",
            )
        )

    stalled = [r for r in state.runtimes if r.link is not None and r.link.name == "stalled"]
    if stalled:
        healthy = [r for r in state.runtimes if r not in stalled]
        worst_healthy = max((r.max_lag_seconds for r in healthy), default=0.0)
        checks.append(
            ScenarioCheck(
                "fleet-unblocked-by-slow-ra",
                bool(healthy) and worst_healthy <= bound,
                f"worst healthy lag {worst_healthy:.1f}s vs bound {bound}s "
                f"despite {len(stalled)} stalled agent(s)",
            )
        )
        checks.append(
            ScenarioCheck(
                "slow-ra-out-of-bound",
                all(r.max_lag_seconds > bound for r in stalled),
                ", ".join(
                    f"{r.spec_name} lag {r.max_lag_seconds:.1f}s" for r in stalled
                )
                + f" vs bound {bound}s",
            )
        )

    if cfg.fleet_size and cfg.pull_jitter_seconds and not cfg.pull_stagger_seconds:
        checks.append(
            ScenarioCheck(
                "thundering-herd-overlap",
                peak >= 2,
                f"peak {peak} concurrent pull(s) across "
                f"{len(state.runtimes)} agents",
            )
        )
        checks.append(
            ScenarioCheck(
                "fleet-converged-within-bound",
                all(r.max_lag_seconds <= bound for r in state.runtimes),
                f"worst lag "
                f"{max((r.max_lag_seconds for r in state.runtimes), default=0.0):.1f}s "
                f"vs bound {bound}s",
            )
        )
    return checks


def crash_checks(study: Dict[str, object]) -> List[ScenarioCheck]:
    """Pass/fail assertions derived from the crash-recovery study."""
    checks = [
        ScenarioCheck(
            "crash-verdicts-match-inmemory-oracle",
            study["verdict_mismatches"] == 0 and study["verdicts_checked"] > 0,
            f"{study['verdicts_checked']} verdict(s), "
            f"{study['verdict_mismatches']} mismatch(es)",
        )
    ]
    durable_agents = [
        a for a in study["agents"].values() if a.get("mode") == "durable"
    ]
    if durable_agents:
        checks.append(
            ScenarioCheck(
                "durable-restart-used-checkpoint",
                all(a.get("restored_replicas", 0) >= 1 for a in durable_agents),
                f"{len(durable_agents)} durable agent(s) warm-started",
            )
        )
    comparison = study.get("comparison")
    if comparison is not None:
        checks.append(
            ScenarioCheck(
                "warm-restart-beats-cold-resync",
                comparison["warm_bytes"] < comparison["cold_bytes"]
                and comparison["warm_back_in_bound_at"]
                < comparison["cold_back_in_bound_at"],
                f"warm {comparison['warm_bytes']} B back in bound at "
                f"{comparison['warm_back_in_bound_at']:.3f}s vs cold "
                f"{comparison['cold_bytes']} B at "
                f"{comparison['cold_back_in_bound_at']:.3f}s",
            )
        )
    return checks


def soak_checks(study: Dict[str, object]) -> List[ScenarioCheck]:
    """Pass/fail assertions derived from the soak study (docs/WORKLOADS.md)."""
    memory = study["memory"]
    subsystems = study["subsystems"]
    exercised = (
        bool(subsystems["durable_wal"])
        and bool(subsystems["segment_streaming"])
        and subsystems["segments_applied"] > 0
        and subsystems["proof_cache_hits"] > 0
        and subsystems["root_cache_lookups"] > 0
        and subsystems["handshakes_served"] == study["events_total"]
        and subsystems["handshake_roots_verified"] > 0
        and subsystems["revocations_issued"] > 0
        and subsystems["resyncs"] == 0
    )
    return [
        ScenarioCheck(
            "soak-verdicts-match-oracle",
            study["verdict_mismatches"] == 0 and study["verdicts_checked"] > 0,
            f"{study['verdicts_checked']} verdict(s) across the fleet, "
            f"{study['verdict_mismatches']} mismatch(es)",
        ),
        ScenarioCheck(
            "memory-bounded",
            bool(memory["bounded"]),
            f"peak batch {memory['peak_batch_bytes']} B within "
            f"{memory['batch_budget_bytes']} B; generator footprint "
            f"{memory['footprint_bytes']} B within "
            f"{memory['footprint_budget_bytes']} B for "
            f"{memory['clients']} clients",
        ),
        ScenarioCheck(
            "all-subsystems-exercised",
            exercised,
            f"{subsystems['store_engine']} engine, "
            f"{subsystems['segments_applied']} WAL segment(s) applied, "
            f"{subsystems['proof_cache_hits']} proof-cache hit(s), "
            f"{subsystems['root_cache_lookups']} root-cache lookup(s), "
            f"{subsystems['handshakes_served']} handshake(s), "
            f"{subsystems['revocations_issued']} revocation(s), "
            f"{subsystems['resyncs']} resync(s)",
        ),
    ]


def region_outage_checks(
    study: Dict[str, object], bound: float
) -> List[ScenarioCheck]:
    """Pass/fail assertions derived from the region-outage study."""
    survivors = study["survivors"]
    restored = study["restored_agents"]
    worst_survivor = max(
        (agent["max_lag_seconds"] for agent in survivors.values()), default=0.0
    )
    return [
        ScenarioCheck(
            "peers-absorb-within-2delta",
            bool(survivors) and worst_survivor <= bound,
            f"worst surviving-RA lag {worst_survivor:.1f}s vs bound {bound}s "
            f"through the {study['failed_region']} outage",
        ),
        ScenarioCheck(
            "ca-egress-less-than-N-cold-syncs",
            bool(restored)
            and study["recovery_origin_bytes"] < study["cold_sync_bytes_fleet"],
            f"recovery cost the CA origin {study['recovery_origin_bytes']} B vs "
            f"{study['cold_sync_bytes_fleet']} B for {len(restored)} cold sync(s)",
        ),
        ScenarioCheck(
            "restored-ra-syncs-from-peer",
            bool(restored)
            and all(
                agent.get("segments_from_peer", 0) >= 1
                and agent.get("cold_sync_fallbacks", 0) == 0
                for agent in restored.values()
            ),
            ", ".join(
                f"{name}: {agent.get('segments_from_peer', 0)} segment(s) "
                f"from {agent.get('peer', '?')}"
                for name, agent in restored.items()
            )
            or "no agent restored",
        ),
        ScenarioCheck(
            "verdicts-match-unsharded-oracle",
            study["verdict_mismatches"] == 0 and study["verdicts_checked"] > 0,
            f"{study['verdicts_checked']} verdict(s), "
            f"{study['verdict_mismatches']} mismatch(es)",
        ),
    ]


def rotation_checks(study: Dict[str, object]) -> List[ScenarioCheck]:
    """Pass/fail assertions derived from the key-rotation study."""
    probes = study["probes"]
    inside = [p for p in probes if p["inside_overlap"]]
    after = [p for p in probes if not p["inside_overlap"]]
    epochs = study["agent_key_epochs"].values()
    return [
        ScenarioCheck(
            "key-rotation-learned",
            study["ca_key_epoch"] >= 1
            and study["announcements_learned"] >= 1
            and all(epoch == study["ca_key_epoch"] for epoch in epochs),
            f"CA at epoch {study['ca_key_epoch']}, "
            f"{study['announcements_learned']} announcement(s) learned, "
            f"agent epochs {sorted(epochs)}",
        ),
        ScenarioCheck(
            "retired-key-valid-inside-overlap",
            bool(inside)
            and all(p["cached_verdict"] and p["uncached_verdict"] for p in inside),
            f"{len(inside)} in-overlap probe(s) accepted",
        ),
        ScenarioCheck(
            "retired-key-rejected-after-overlap",
            bool(after)
            and all(
                not p["cached_verdict"] and not p["uncached_verdict"] for p in after
            ),
            f"{len(after)} post-overlap probe(s) rejected",
        ),
        ScenarioCheck(
            "cached-matches-uncached-across-rotation",
            bool(probes)
            and all(p["cached_verdict"] == p["uncached_verdict"] for p in probes),
            f"{len(probes)} probe(s), cache and direct verification agree",
        ),
    ]


def equivocation_checks(
    study: Dict[str, object], fault: FaultSpec
) -> List[ScenarioCheck]:
    """Pass/fail assertions derived from the equivocation study."""
    return [
        ScenarioCheck(
            "equivocation-detected-within-one-round",
            study["detected_period"] == fault.at_period,
            f"planted at period {fault.at_period}, gossip detected it at "
            f"period {study['detected_period']}",
        ),
        ScenarioCheck(
            "equivocation-evidence-valid",
            study["misbehavior_reports"] >= 1
            and bool(study["evidence_valid_under_ca_keyring"])
            and bool(study["reporter_signatures_valid"]),
            f"{study['misbehavior_reports']} signed report(s)",
        ),
        ScenarioCheck(
            "targeted-ra-blind-before-gossip",
            bool(study["targeted_blind"]),
            f"targeted agent {study.get('targeted_agent')} missing serial "
            f"{study.get('hidden_serial')}",
        ),
    ]


def sharded_checks(study: Dict[str, object]) -> List[ScenarioCheck]:
    """Pass/fail assertions derived from the §VIII study results."""
    return [
        ScenarioCheck(
            "ra-storage-reclaimed",
            bool(study["ra_reclaimed_bytes"]) and study["ca_shards_retired"] > 0,
            f"{study['ra_reclaimed_bytes']} B freed across "
            f"{study['ca_shards_retired']} retired shard(s)",
        ),
        ScenarioCheck(
            "verdicts-match-unsharded-oracle",
            study["verdict_mismatches"] == 0 and study["live_serials_checked"] > 0,
            f"{study['live_serials_checked']} live + "
            f"{study['absent_serials_checked']} absent serials, "
            f"{study['verdict_mismatches']} mismatch(es)",
        ),
        ScenarioCheck(
            "read-path-pure-on-unknown-window",
            bool(study["read_path_pure"]),
            "prove() on an uncovered expiry window left shard_count "
            "and storage unchanged",
        ),
        ScenarioCheck(
            "sharded-storage-plateaus",
            bool(study["baseline_monotonic"])
            and study["sharded_final_bytes"] < study["baseline_final_bytes"],
            f"sharded RA ends at {study['sharded_final_bytes']} B vs "
            f"ever-growing baseline {study['baseline_final_bytes']} B",
        ),
    ]
