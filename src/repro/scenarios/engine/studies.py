"""The study phases that bracket the event loop.

Everything here runs *outside* the scheduler: victim setup happens before
the first event fires, and the closing handshake, baseline comparison, and
the crash/rotation/equivocation/sharded/soak extras all run after the last
event drains.  Each function is a
direct port of the serial runner's corresponding phase, taking the shared
:class:`~repro.scenarios.engine.state.RunState` instead of a runner
instance, so report extras stay byte-identical.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.crypto import KeyPair
from repro.dictionary.sync import SyncRequest
from repro.net.clock import SimulatedClock
from repro.pki import SerialNumber, TrustStore
from repro.ritm import build_close_to_client_deployment
from repro.ritm.messages import encode_status, encode_sync_response
from repro.scenarios.config import SCENARIO_CA_NAME, SCENARIO_EPOCH
from repro.scenarios.faults import DECOY_SERIAL
from repro.scenarios.engine.state import AgentRuntime, RunState, VictimRuntime
from repro.workloads.streaming import EVENT_BYTES


def setup_victim(state: RunState, now: float) -> Optional[VictimRuntime]:
    """Issue the victim certificate and run the opening handshake."""
    cfg = state.config
    ca = state.ca
    if not cfg.victim_host:
        return None
    server_keys = KeyPair.generate(f"{cfg.name}-server".encode())
    chain = ca.authority.issue_chain_for(
        cfg.victim_host, server_keys.public, now=int(now)
    )
    if ca.cover([chain.leaf.not_after], now):
        # A sharded CA just opened the victim's expiry window; the fleet
        # needs its (empty) dictionary to prove the victim unrevoked.
        for runtime in state.runtimes:
            runtime.client.pull(now=now)
    trust_store = TrustStore()
    trust_store.add(ca.authority)
    victim = VictimRuntime(
        chain=chain,
        trust_store=trust_store,
        # Under rotation the TLS clients must verify against the CA's
        # live keyring — the closing handshake may land epochs after the
        # genesis key was retired.
        ca_public_keys={
            ca.name: ca.keyring if cfg.key_rotation_periods else ca.public_key
        },
        serial=chain.leaf.serial,
    )
    clock = SimulatedClock(now + 1)
    deployment = build_close_to_client_deployment(
        server_chain=chain,
        trust_store=trust_store,
        ca_public_keys=victim.ca_public_keys,
        config=state.ritm_config,
        agent=state.runtimes[0].agent,
        clock=clock,
    )
    victim.initial_accepted = deployment.run_handshake()
    status = deployment.client.last_status
    victim.status_size_bytes = len(encode_status(status)) if status is not None else 0
    state.event(
        -1,
        "handshake",
        f"opening handshake accepted={victim.initial_accepted} "
        f"(status {victim.status_size_bytes} B)",
    )
    if cfg.long_lived_session:
        victim.deployment = deployment
        victim.clock = clock
    return victim


def final_handshake(state: RunState, now: float) -> None:
    """Run the closing handshake on a fresh connection."""
    victim = state.victim
    deployment = build_close_to_client_deployment(
        server_chain=victim.chain,
        trust_store=victim.trust_store,
        ca_public_keys=victim.ca_public_keys,
        config=state.ritm_config,
        agent=state.runtimes[0].agent,
        clock=SimulatedClock(now),
    )
    victim.final_accepted = deployment.run_handshake()
    victim.final_rejection = (
        deployment.client.rejection.value if deployment.client.rejection else ""
    )
    state.event(
        -2,
        "handshake",
        f"closing handshake accepted={victim.final_accepted}"
        + (f" ({victim.final_rejection})" if victim.final_rejection else ""),
    )


def baseline_comparison(state: RunState) -> Dict[str, object]:
    """Replay the victim's timeline against OCSP Stapling."""
    from repro.baselines import CheckContext, GroundTruth, OCSPStaplingScheme

    cfg, victim = state.config, state.victim
    truth = GroundTruth(ca_name=SCENARIO_CA_NAME)
    stapling = OCSPStaplingScheme(truth, response_lifetime=4 * 86_400.0)
    session_start = float(SCENARIO_EPOCH)
    stapling.check(
        CheckContext(
            "scenario-client", cfg.victim_host, victim.serial, now=session_start
        )
    )
    truth.revoke(victim.serial, now=float(victim.revoked_at))
    probe = stapling.check(
        CheckContext(
            "scenario-client",
            cfg.victim_host,
            victim.serial,
            now=float(victim.revoked_at) + 3600.0,
        )
    )
    return {
        "scheme": stapling.name,
        "response_lifetime_seconds": stapling.responder.response_lifetime,
        "reports_revoked_one_hour_after_revocation": probe.revoked,
        "worst_case_exposure_seconds": stapling.responder.response_lifetime,
        "ritm_bound_seconds": cfg.attack_window_seconds(),
    }


def oracle_sweep(state: RunState, agents, end_time: float):
    """Differential verdicts of the agents' replicas against the oracle.

    From each agent, every revoked serial whose certificate can still be
    unexpired at ``end_time`` (in an unsharded run: every revoked serial)
    must get the oracle's verdict from the replica covering it, and five
    never-revoked serials must prove absent on both.  Returns ``(revoked
    serials checked, absent serials checked, mismatches)`` summed over the
    agents; a probe no synced replica covers is a mismatch and is not
    counted as checked.
    """
    ca, oracle = state.ca, state.oracle
    live = [
        (serial, state.expiries.get(serial.value)) for _, serial in state.numbered
    ]
    live = [(s, expiry) for s, expiry in live if expiry is None or expiry > end_time]
    absent_base = (
        max((serial.value for _, serial in state.numbered), default=0) or DECOY_SERIAL
    ) + 1
    windows = [expiry for _, expiry in live] or [None]
    absent = [
        (SerialNumber(absent_base + offset), windows[offset % len(windows)])
        for offset in range(5)
    ]
    checked = [0, 0]
    mismatches = 0
    for agent in agents:
        for is_absent, probes in enumerate((live, absent)):
            for serial, expiry in probes:
                replica = agent.replica_for_certificate(ca.name, expiry)
                if replica is None or replica.signed_root is None:
                    mismatches += 1
                    continue
                checked[is_absent] += 1
                if replica.prove(serial).is_revoked != oracle.contains(serial):
                    mismatches += 1
    return checked[0], checked[1], mismatches


def crash_recovery_extras(state: RunState, end_time: float) -> Dict[str, object]:
    """The warm-vs-cold restart study results (docs/STORAGE.md).

    Per crashed agent: its recovery-pull metrics.  Differentially: every
    revoked serial's verdict from each crashed agent's recovered replica
    against the in-memory oracle, plus a handful of absent probes.  When
    both a durable and a cold crash ran, the head-to-head comparison.
    """
    crashed = [r for r in state.runtimes if r.crashed_mode is not None]
    agents: Dict[str, object] = {
        r.spec_name: dict(r.recovery or {"mode": r.crashed_mode}) for r in crashed
    }
    revoked, absent, mismatches = oracle_sweep(
        state, [r.agent for r in crashed], end_time
    )
    study: Dict[str, object] = {
        "agents": agents,
        "verdicts_checked": revoked + absent,
        "verdict_mismatches": mismatches,
    }
    durable = [a for a in agents.values() if a.get("mode") == "durable"]
    cold = [a for a in agents.values() if a.get("mode") == "cold"]
    if durable and cold and durable[0].get("completed_at") and cold[0].get("completed_at"):
        warm, coldstart = durable[0], cold[0]
        study["comparison"] = {
            "warm_bytes": warm["bytes_downloaded"],
            "cold_bytes": coldstart["bytes_downloaded"],
            "warm_recovery_seconds": warm["latency_seconds"],
            "cold_recovery_seconds": coldstart["latency_seconds"],
            "warm_back_in_bound_at": warm["completed_at"],
            "cold_back_in_bound_at": coldstart["completed_at"],
            "bytes_saved": coldstart["bytes_downloaded"] - warm["bytes_downloaded"],
        }
    return study


def region_outage_extras(state: RunState, end_time: float) -> Dict[str, object]:
    """The region-outage replication study results (docs/REPLICATION.md).

    Per restored agent: its anti-entropy recovery record (peer, batches
    relayed, bytes, CA-origin delta).  Fleet-wide: the survivors' worst
    dissemination lag through the outage, the CA-origin cost of the whole
    recovery versus what the same fleet would have paid in cold syncs, and
    the crash-recovery-style differential verdict sweep of every restored
    replica against the in-memory oracle.
    """
    ca = state.ca
    fault = next(f for f in state.config.faults if f.kind == "region-outage")
    region = fault.geo_region()
    down = [r for r in state.runtimes if r.crashed_mode == "region"]
    restored: Dict[str, object] = {
        r.spec_name: dict(r.recovery or {"mode": "region"}) for r in down
    }
    survivors: Dict[str, object] = {
        r.spec_name: {
            "region": r.location.region.value,
            "max_lag_seconds": r.max_lag_seconds,
            "missed_pulls": r.missed_pulls,
        }
        for r in state.runtimes
        if r.crashed_mode != "region"
    }
    revoked, absent, mismatches = oracle_sweep(state, [r.agent for r in down], end_time)

    # What the restored fleet's recovery actually cost the CA origin,
    # versus the counterfactual where each restored RA cold-synced the
    # full history of every live stream straight from the CA.
    cold_sync_bytes = 0
    for stream in ca.streams.values():
        request = SyncRequest(ca_name=stream.name, have_count=0)
        cold_sync_bytes += len(encode_sync_response(stream.sync_server.serve(request)))
    recovery_origin_bytes = sum(
        int(record.get("ca_origin_bytes", 0))
        + int(record.get("fallback_bytes", 0))
        for record in restored.values()
    )
    return {
        "failed_region": region.value,
        "outage_periods": fault.duration_periods,
        "restored_agents": restored,
        "survivors": survivors,
        "verdicts_checked": revoked + absent,
        "verdict_mismatches": mismatches,
        "batches_published": ca.publication_stats.batches_published,
        "batch_bytes_published": ca.publication_stats.batch_bytes_published,
        "cold_sync_bytes_each": cold_sync_bytes,
        "cold_sync_bytes_fleet": cold_sync_bytes * len(restored),
        "recovery_origin_bytes": recovery_origin_bytes,
    }


def key_rotation_extras(state: RunState) -> Dict[str, object]:
    """The key-rotation study results (docs/THREATS.md).

    The rotation timeline, how many announcement-chain entries the fleet
    learned, each agent's final keyring epoch, and the overlap probes from
    :class:`~repro.scenarios.engine.observers.RotationProber`.
    """
    ca = state.ca
    learned = state.pull_totals().key_rotations_applied
    agent_epochs: Dict[str, int] = {}
    for runtime in state.runtimes:
        keyring = runtime.agent.keyring_for(ca.name)
        agent_epochs[runtime.spec_name] = keyring.key_epoch if keyring else 0
    return {
        "ca_key_epoch": ca.key_epoch,
        "rotations": [
            {
                "period": record["period"],
                "epoch": record["epoch"],
                "rotated_at": record["rotated_at"],
                "overlap_until": record["overlap_until"],
                "streams_resigned": record["streams_resigned"],
            }
            for record in state.rotations
        ],
        "announcements_learned": learned,
        "agent_key_epochs": agent_epochs,
        "probes": list(state.rotation_probes),
    }


def equivocation_extras(state: RunState) -> Dict[str, object]:
    """The equivocation study results: planted forgery, detection, evidence."""
    ca = state.ca
    planted = dict(state.equivocation or {})
    target_name = planted.get("targeted_agent")
    target = next(
        (r for r in state.runtimes if r.spec_name == target_name), None
    )
    targeted_blind = False
    if target is not None and state.hidden_serial is not None:
        replicas = target.agent.replicas_of(ca.name)
        targeted_blind = bool(replicas) and not any(
            replica.contains(state.hidden_serial) for replica in replicas
        )
    reports = state.misbehavior_reports
    return {
        **planted,
        "detected_period": state.first_detection_period,
        "misbehavior_reports": len(reports),
        "evidence_valid_under_ca_keyring": bool(reports)
        and all(report.is_valid_evidence(ca.keyring) for report in reports),
        "reporter_signatures_valid": bool(reports)
        and all(report.verify_reporter() for report in reports),
        "targeted_blind": targeted_blind,
    }


def sharded_extras(state: RunState, end_time: float) -> Dict[str, object]:
    """The §VIII study results: storage timeline, differential verdicts,
    read-path purity, and reclaimed storage."""
    cfg, ca = state.config, state.ca
    agent = state.runtimes[0].agent

    live_checked, absent_checked, mismatches = oracle_sweep(state, [agent], end_time)

    # Read-path purity: proving a serial in a window no shard covers (two
    # shard widths past everything the CA opened) must answer "absent"
    # without creating (and retaining) a shard.
    shards_before = len(ca.streams)
    storage_before = ca.storage_size_bytes()
    unknown_window_expiry = (
        max(stream.window.window_end for stream in ca.streams.values())
        + 2 * cfg.shard_width_periods * cfg.delta_seconds
    )
    probe_status = ca.prove_status(
        SerialNumber(max(state.expiries, default=0) + 1),
        unknown_window_expiry,
        now=int(end_time),
    )
    read_path_pure = (
        len(ca.streams) == shards_before
        and ca.storage_size_bytes() == storage_before
        and not probe_status.is_revoked
    )

    baseline_series = [
        sample["baseline_storage_bytes"] for sample in state.storage_timeline
    ]
    sharded_series = [
        sample["ra_storage_bytes"] for sample in state.storage_timeline
    ]
    return {
        "timeline": state.storage_timeline,
        "live_serials_checked": live_checked,
        "absent_serials_checked": absent_checked,
        "verdict_mismatches": mismatches,
        "read_path_pure": read_path_pure,
        "ca_shards_retired": len(ca.retired_windows),
        "ca_reclaimed_bytes": ca.reclaimed_storage_bytes,
        "ra_reclaimed_bytes": agent.reclaimed_storage_bytes,
        "ra_pruned_entries": agent.pruned_revocations,
        "baseline_final_bytes": baseline_series[-1] if baseline_series else 0,
        "sharded_final_bytes": sharded_series[-1] if sharded_series else 0,
        "sharded_peak_bytes": max(sharded_series, default=0),
        "baseline_monotonic": all(
            earlier <= later
            for earlier, later in zip(baseline_series, baseline_series[1:])
        ),
    }


def replicas_converged(state: RunState, runtime: AgentRuntime) -> bool:
    """Does the agent hold an equal-size replica of every live CA stream?

    Streams whose window expired by the agent's last pull are skipped:
    the RA prunes at pull time (bin start + Δ) while the CA retires at
    its next refresh (the following bin start), so a window boundary
    inside the final period legitimately leaves the CA one shard ahead.
    """
    history = runtime.client.pull_history
    last_pull = history[-1].time if history else 0.0
    for stream in state.ca.live_streams(last_pull):
        replica = runtime.agent.replica_for(stream.name)
        if replica is None or replica.size != stream.dictionary.size:
            return False
    return True


def soak_extras(state: RunState, end_time: float) -> Dict[str, object]:
    """The soak-run study results (docs/WORKLOADS.md).

    Three pinned verdict groups feed :func:`..checks.build_checks`:

    * **differential correctness** — every revoked serial's verdict from
      every RA's replica against the in-memory oracle, plus absent probes
      (the ``soak-verdicts-match-oracle`` check);
    * **memory accounting** — the stream generator's own deterministic byte
      accounting against its ``O(sites + batch_size)`` budget (the
      ``memory-bounded`` check; process RSS stays informational in the
      timeline because it is not deterministic);
    * **subsystem coverage** — proof the run actually exercised the durable
      WAL engine, batches applied from batch objects, both hot-path
      caches, the batch verifier, and the full configured client load (the
      ``all-subsystems-exercised`` check).
    """
    cfg = state.config
    ca = state.ca
    spec = cfg.client_stream
    stream = state.client_stream

    revoked, absent, mismatches = oracle_sweep(
        state, [runtime.agent for runtime in state.runtimes], end_time
    )

    batch_budget = EVENT_BYTES * spec.batch_size
    footprint_budget = 160 * spec.sites + (1 << 20)
    peak_batch = stream.peak_batch_bytes
    footprint = stream.footprint_bytes()
    memory = {
        "clients": spec.clients,
        "batch_size": spec.batch_size,
        "peak_batch_bytes": peak_batch,
        "batch_budget_bytes": batch_budget,
        "footprint_bytes": footprint,
        "footprint_budget_bytes": footprint_budget,
        "bounded": peak_batch <= batch_budget and footprint <= footprint_budget,
    }

    proof_hits = root_lookups = 0
    for runtime in state.runtimes:
        proof_hits += runtime.agent.proof_cache.stats.hits
        root_stats = runtime.agent.root_cache.stats
        root_lookups += root_stats.hits + root_stats.misses
    total = state.pull_totals()
    subsystems = {
        "store_engine": cfg.store_engine,
        "durable_wal": cfg.store_engine in ("durable", "durable-compact"),
        "batches_published": ca.publication_stats.batches_published,
        "batches_applied": total.issuances_applied,
        "batch_bytes_downloaded": total.batch_bytes_downloaded,
        "proof_cache_hits": proof_hits,
        "root_cache_lookups": root_lookups,
        "resyncs": total.resyncs,
        "handshakes_served": state.handshakes_served,
        "handshake_roots_verified": state.handshake_roots_verified,
        "revocations_issued": state.revocations_issued,
    }

    sample = state.soak_timeline[-1] if state.soak_timeline else {}
    wall = float(sample.get("wall_seconds", 0.0)) or None
    throughput = {
        "handshakes_served": state.handshakes_served,
        "wall_seconds": wall,
        "events_per_second": (
            round(state.handshakes_served / wall, 1) if wall else None
        ),
    }

    return {
        "clients": spec.clients,
        "sites": spec.sites,
        "events_total": spec.events_total,
        "verdicts_checked": revoked + absent,
        "verdict_mismatches": mismatches,
        "memory": memory,
        "subsystems": subsystems,
        "throughput": throughput,
        "timeline": state.soak_timeline,
    }
