"""Report metrics and config assembly for the fleet engine.

Ports of the serial runner's ``_collect_metrics``/``_hot_path_metrics``/
``_config_dict`` over :class:`~repro.scenarios.engine.state.RunState`, plus
the new ``metrics.fleet`` block every report now carries: fleet size,
scheduler throughput, mailbox high-watermarks, and the
pull-overlap measures (overlap factor and peak concurrency) computed by a
sweep over the recorded pull intervals.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.perf import CacheStats
from repro.scenarios.engine.state import RunState
from repro.scenarios.report import FLEET_METRIC_KEYS  # noqa: F401  (re-export)


def overlap_factor(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total pull time divided by the union of the pull intervals.

    1.0 means the fleet's pulls never overlapped (pure serialisation);
    larger values mean genuine concurrency — e.g. 3.0 means that on
    average three pulls were in flight over the busy span.  Zero-length
    unions (no pulls, or all instantaneous) report 0.0.
    """
    if not intervals:
        return 0.0
    total = sum(end - start for start, end in intervals)
    union = 0.0
    cursor = None
    for start, end in sorted(intervals):
        if cursor is None or start > cursor:
            union += end - start
            cursor = end
        elif end > cursor:
            union += end - cursor
            cursor = end
    return total / union if union > 0.0 else 0.0


def peak_concurrency(intervals: Sequence[Tuple[float, float]]) -> int:
    """The maximum number of pulls simultaneously in flight (sweep line)."""
    points: List[Tuple[float, int]] = []
    for start, end in intervals:
        if end > start:
            points.append((start, 1))
            points.append((end, -1))
    # Ends sort before starts at the same instant, so back-to-back pulls
    # do not count as overlapping.
    points.sort(key=lambda point: (point[0], point[1]))
    peak = current = 0
    for _, delta in points:
        current += delta
        peak = max(peak, current)
    return peak


def fleet_metrics(state: RunState) -> Dict[str, object]:
    """The ``metrics.fleet`` block: engine and contention accounting."""
    per_agent_depth = {
        runtime.spec_name: runtime.mailbox.max_depth for runtime in state.runtimes
    }
    return {
        "fleet_size": len(state.runtimes),
        "scheduler_events_processed": state.scheduler_events_processed,
        "mailbox_depth_max": max(per_agent_depth.values(), default=0),
        "per_agent_mailbox_depth": per_agent_depth,
        "overlap_factor": round(overlap_factor(state.pull_intervals), 4),
        "peak_concurrent_pulls": peak_concurrency(state.pull_intervals),
        "handshakes_served": state.handshakes_served,
    }


def hot_path_metrics(state: RunState) -> Dict[str, object]:
    """Aggregate the verification-engine cache counters across the fleet.

    One section per cache layer (see docs/PERFORMANCE.md): the agents'
    Merkle proof caches, their verified-root caches, and the CDN edges'
    object caches — each in the uniform :class:`CacheStats` shape.
    """
    sections = {
        "proof_cache": [r.agent.proof_cache.stats for r in state.runtimes],
        "root_cache": [r.agent.root_cache.stats for r in state.runtimes],
        "edge_object_cache": [e.cache_stats for e in state.cdn.all_edges()],
    }
    metrics: Dict[str, object] = {}
    for name, stats_list in sections.items():
        total = CacheStats()
        for stats in stats_list:
            total.hits += stats.hits
            total.misses += stats.misses
            total.evictions += stats.evictions
            total.invalidations += stats.invalidations
        metrics[name] = total.as_dict()
    return metrics


def collect_metrics(state: RunState) -> Dict[str, object]:
    """Aggregate dissemination, dictionary, hot-path, attack-window, and
    fleet metrics."""
    ca = state.ca
    total = state.pull_totals()
    pulls = sum(len(runtime.pull_results()) for runtime in state.runtimes)
    per_agent: Dict[str, Dict[str, object]] = {}
    for runtime in state.runtimes:
        replicas = runtime.agent.replicas_of(ca.name)
        per_agent[runtime.spec_name] = {
            "size": sum(replica.size for replica in replicas),
            "storage_bytes": sum(replica.storage_size_bytes() for replica in replicas),
            **({"shard_count": len(replicas)} if state.config.sharded else {}),
            "missed_pulls": runtime.missed_pulls,
            "max_lag_seconds": round(runtime.max_lag_seconds, 3),
        }
    return {
        "dissemination": {
            "pulls": pulls,
            "bytes_downloaded": total.bytes_downloaded,
            "average_pull_latency_seconds": (
                total.latency_seconds / pulls if pulls else 0.0
            ),
            "freshness_applied": total.freshness_applied,
            "issuances_applied": total.issuances_applied,
            "serials_applied": total.serials_applied,
            "resyncs": total.resyncs,
            "errors": len(total.errors),
            "root_cache_hits": total.root_cache_hits,
            "root_signatures_verified": total.root_signatures_verified,
            "stale_heads_ignored": total.stale_heads_ignored,
            "replays_rejected": total.replays_rejected,
            "key_rotations_applied": total.key_rotations_applied,
        },
        "hot_path": hot_path_metrics(state),
        "dictionary": {
            "ca_size": ca.total_revocations(),
            "revocations_issued": state.revocations_issued,
            "issuance_batches": ca.issuance_count(),
        },
        **(
            {
                "sharding": {
                    "ca_shard_count": len(ca.streams),
                    "ca_shards_retired": len(ca.retired_windows),
                    "ca_reclaimed_bytes": ca.reclaimed_storage_bytes,
                    "ra_shards_pruned": sum(
                        r.agent.stats.shard_replicas_pruned for r in state.runtimes
                    ),
                    "ra_pruned_entries": sum(
                        r.agent.pruned_revocations for r in state.runtimes
                    ),
                    "ra_reclaimed_bytes": sum(
                        r.agent.reclaimed_storage_bytes for r in state.runtimes
                    ),
                }
            }
            if state.config.sharded
            else {}
        ),
        **(
            {
                "replication": {
                    "segments_published": ca.publication_stats.segments_published,
                    "segments_applied": total.segments_applied,
                    "segments_from_peer": total.segments_from_peer,
                    "segment_bytes_downloaded": total.segment_bytes_downloaded,
                    "peer_syncs": total.peer_syncs,
                    "cold_sync_fallbacks": total.cold_sync_fallbacks,
                    "segments_rejected": total.segments_rejected,
                }
            }
            if (
                any(f.kind == "region-outage" for f in state.config.faults)
                or state.config.segment_streaming
            )
            else {}
        ),
        "attack_window": {
            "bound_seconds": state.config.attack_window_seconds(),
            "max_lag_seconds": round(
                max((r.max_lag_seconds for r in state.runtimes), default=0.0), 3
            ),
            "per_agent": {
                runtime.spec_name: round(runtime.max_lag_seconds, 3)
                for runtime in state.runtimes
            },
        },
        "agents": per_agent,
        "fleet": fleet_metrics(state),
    }


def config_dict(state: RunState, duration: int) -> Dict[str, object]:
    """The config section of the report.

    The long-standing keys are byte-pinned for the twelve pre-engine
    scenarios; a ``fleet`` sub-dict is appended only when at least one
    concurrency knob departs from its default, so legacy reports are
    untouched while the contention scenarios document their shape.
    """
    cfg = state.config
    base: Dict[str, object] = {
        "delta_seconds": cfg.delta_seconds,
        "duration_periods": duration,
        "store_engine": cfg.store_engine,
        "agents": [f"{a.name}@{a.region}" for a in cfg.agents],
        "faults": [
            f"{f.kind}@{f.at_period}+{f.duration_periods}"
            + (f"({f.region})" if f.region else "")
            for f in cfg.faults
        ],
        "workload": cfg.workload.kind,
        "victim_host": cfg.victim_host,
        "attack_window_bound_seconds": cfg.attack_window_seconds(),
        "sharded": cfg.sharded,
        **(
            {
                "shard_width_periods": cfg.shard_width_periods,
                "cert_lifetime_periods": cfg.cert_lifetime_periods,
                "prune_every_periods": cfg.prune_every_periods,
            }
            if cfg.sharded
            else {}
        ),
        **(
            {
                "key_rotation_periods": cfg.key_rotation_periods,
                "key_overlap_periods": cfg.key_overlap_periods,
            }
            if cfg.key_rotation_periods
            else {}
        ),
        "tags": list(cfg.tags),
    }
    if cfg.segment_streaming:
        base["segment_streaming"] = True
    fleet_active = bool(
        cfg.fleet_size
        or cfg.pull_stagger_seconds
        or cfg.pull_jitter_seconds
        or cfg.link_profile
        or cfg.link_overrides
        or cfg.client_handshakes
        or cfg.client_stream is not None
    )
    if fleet_active:
        base["fleet"] = {
            "fleet_size": len(state.runtimes),
            "pull_stagger_seconds": cfg.pull_stagger_seconds,
            "pull_jitter_seconds": cfg.pull_jitter_seconds,
            "link_profile": cfg.link_profile,
            "link_overrides": dict(cfg.link_overrides),
            "rng_seed": cfg.rng_seed,
            "client_handshakes": cfg.client_handshakes,
        }
        if cfg.client_stream is not None:
            spec = cfg.client_stream
            base["fleet"]["client_stream"] = {
                "clients": spec.clients,
                "sites": spec.sites,
                "events_total": spec.events_total,
                "zipf_exponent": spec.zipf_exponent,
                "diurnal_amplitude": spec.diurnal_amplitude,
                "batch_size": spec.batch_size,
                "seed": spec.seed,
            }
    return base
