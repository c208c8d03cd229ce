"""Engine observers: study phases and fault injection as ordered hooks.

The serial runner interleaved fault injection, adversarial probes, gossip,
and session upkeep inline in its period loop.  The engine expresses each as
an observer with two hook points:

* :meth:`EngineObserver.after_ca_duty` — fires right after the CA's
  publication step of a period, before any RA pulls (rotation recording,
  head archiving, the four fault injectors, replica snapshots);
* :meth:`EngineObserver.after_pulls` — fires once every RA has taken its
  turn for the period (replay integrity comparison, the gossip ring,
  rotation probes, sharded storage sampling, long-lived session upkeep).

Observers are registered in a fixed order matching the serial loop, so the
event timeline and every derived verdict stay pinned.
"""

from __future__ import annotations

import random
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.dictionary.signed_root import SignedRoot
from repro.ritm import GossipExchange
from repro.ritm.ca_service import head_path
from repro.scenarios.config import FaultSpec
from repro.scenarios.engine.state import RunState
from repro.scenarios.faults import (
    equivocate_at_edges,
    forge_head_with_retired_key,
    replay_captured_head,
    tamper_latest_batch,
)


@dataclass
class PeriodContext:
    """Everything the observers need to know about one Δ period."""

    period: int
    bin_start: float
    #: The nominal pull time (``bin_start + Δ``); staggered/jittered agents
    #: pull later, but period-scoped hooks key off the nominal time so the
    #: serial runner's numbers are reproduced exactly.
    pull_time: float
    workload: Tuple[int, bool, str]
    outage: Optional[FaultSpec] = None
    prev_epoch: int = 0
    prev_root: Optional[SignedRoot] = None
    replay_active: bool = False
    forgery: Optional[FaultSpec] = None
    #: Replica snapshots taken before the pulls of a replay window.
    snapshots: Dict[str, Tuple[int, bytes]] = field(default_factory=dict)
    #: How many agents have completed their turn this period.
    pulls_finished: int = 0


class EngineObserver:
    """Base class: both hooks default to doing nothing."""

    def after_ca_duty(self, ctx: PeriodContext, state: RunState) -> None:
        """Hook fired after the CA's publication step, before any pull."""

    def after_pulls(self, ctx: PeriodContext, state: RunState) -> None:
        """Hook fired once every agent finished its turn for the period."""


class RotationRecorder(EngineObserver):
    """Log CA key rotations and remember the retired epoch's root.

    The pre-rotation signed root — the last statement the outgoing key ever
    signed — is what the overlap probes re-verify later: it must stay
    acceptable until the overlap window closes and not a second longer
    (:class:`RotationProber`).
    """

    def after_ca_duty(self, ctx: PeriodContext, state: RunState) -> None:
        """Record a rotation when the CA's key epoch advanced this period."""
        if state.ca.key_epoch <= ctx.prev_epoch:
            return
        overlap = state.ritm_config.key_overlap_seconds
        state.rotations.append(
            {
                "period": ctx.period,
                "epoch": state.ca.key_epoch,
                "rotated_at": ctx.bin_start,
                "overlap_until": ctx.bin_start + overlap,
                "retired_root": ctx.prev_root,
                "streams_resigned": len(state.ca.live_streams(ctx.bin_start)),
                "probed_inside": False,
                "probed_after": False,
            }
        )
        state.event(
            ctx.period,
            "key-rotation",
            f"CA advanced to signing-key epoch {state.ca.key_epoch} "
            f"(outgoing key acceptable for {overlap:.0f}s more)",
        )


class HeadArchiver(EngineObserver):
    """Keep each stream's oldest published head, raw, for the replay fault."""

    def after_ca_duty(self, ctx: PeriodContext, state: RunState) -> None:
        """Archive first-seen head objects when a replay fault is configured."""
        if not any(f.kind == "replayed-head" for f in state.config.faults):
            return
        for name in state.ca.streams:
            path = head_path(name)
            if name not in state.head_archive and state.cdn.origin.exists(path):
                state.head_archive[name] = state.cdn.origin.fetch(path).content


class FaultInjector(EngineObserver):
    """Inject the CDN/CA faults scheduled for this period.

    Order matters and matches the serial loop: tampered batch, replayed
    head, retired-key forgery, then the equivocation plant.
    """

    def after_ca_duty(self, ctx: PeriodContext, state: RunState) -> None:
        """Run every fault injector whose window opens this period."""
        period, bin_start = ctx.period, ctx.bin_start
        target = state.fault_stream(ctx.pull_time)
        tamper = state.active_fault("tampered-batch", period)
        if tamper is not None and period == tamper.at_period:
            detail = tamper_latest_batch(state.ca, target, state.cdn, bin_start)
            state.event(
                period, "tampered-batch", detail or "no published batch to tamper with"
            )

        replay = state.active_fault("replayed-head", period)
        ctx.replay_active = (
            replay is not None
            and period == replay.at_period
            and target in state.head_archive
        )
        if replay is not None and period == replay.at_period:
            if ctx.replay_active:
                detail = replay_captured_head(
                    target, state.cdn, state.head_archive[target], bin_start
                )
                state.event(period, "replayed-head", detail)
            else:
                state.event(period, "replayed-head", "no archived head to replay")

        forgery = state.active_fault("retired-key-forgery", period)
        ctx.forgery = forgery
        if forgery is not None and period == forgery.at_period:
            detail = forge_head_with_retired_key(state.ca, target, state.cdn, bin_start)
            if detail is not None:
                state.forgery_attempts += 1
            state.event(
                period, "retired-key-forgery", detail or "no retired key available yet"
            )

        equivocation = state.active_fault("equivocating-ca", period)
        if equivocation is not None and period == equivocation.at_period:
            self._plant_equivocation(ctx, state, equivocation)

        # Region outage: fail the region's CDN presence when the window
        # opens and restore it when the window closes.  Both transitions
        # happen at CA-duty time — before any pull of the period — so the
        # first post-outage pulls already see the restored edges.
        for fault in state.config.faults:
            if fault.kind != "region-outage":
                continue
            region = fault.geo_region()
            if period == fault.at_period:
                state.cdn.fail_region(region)
                state.event(
                    period,
                    "region-failed",
                    f"region {region.value} down: edges offline, "
                    f"traffic fails over to neighbours",
                )
            elif period == fault.at_period + fault.duration_periods:
                state.cdn.restore_region(region)
                state.event(
                    period,
                    "region-restored",
                    f"region {region.value} back: edges cold, RAs restart",
                )

    @staticmethod
    def _plant_equivocation(
        ctx: PeriodContext, state: RunState, fault: FaultSpec
    ) -> None:
        """Stage the equivocating-CA fault against the targeted agent's region."""
        target_name = fault.agent or state.runtimes[-1].spec_name
        target = next(r for r in state.runtimes if r.spec_name == target_name)
        stream = state.fault_stream(ctx.pull_time)
        planted = equivocate_at_edges(
            state.ca,
            stream,
            state.cdn,
            target.location.region,
            [batch for name, batch in state.batches if name == stream],
            ctx.bin_start,
            ttl_seconds=2 * state.config.delta_seconds,
        )
        if planted is None:
            state.event(
                ctx.period, "equivocating-ca", "nothing revoked yet — no forgery planted"
            )
            return
        state.hidden_serial = planted["hidden_serial"]
        state.equivocation = {
            "period": ctx.period,
            "targeted_agent": target_name,
            "hidden_serial": str(planted["hidden_serial"]),
            "conflicting_size": planted["conflicting_size"],
            "forged_root": planted["forged_root"][:16],
        }
        state.event(ctx.period, "equivocating-ca", planted["detail"])


class ReplayIntegrityProbe(EngineObserver):
    """Snapshot the targeted replicas before the pulls of a replay window and
    compare them afterwards.

    The zero-mutation property (a rejected replay leaves size and root
    untouched) is checked directly, not inferred from error counts.
    """

    @staticmethod
    def _views(ctx: PeriodContext, state: RunState):
        """``(agent name, (size, root))`` of every synced targeted replica."""
        target = state.fault_stream(ctx.pull_time)
        for runtime in state.runtimes:
            replica = runtime.agent.replica_for(target)
            if replica is not None and replica.signed_root is not None:
                yield runtime.spec_name, (replica.size, replica.signed_root.root)

    def after_ca_duty(self, ctx: PeriodContext, state: RunState) -> None:
        """Record ``(size, root)`` per replica when a replay is staged."""
        if ctx.replay_active:
            ctx.snapshots.update(self._views(ctx, state))

    def after_pulls(self, ctx: PeriodContext, state: RunState) -> None:
        """Count probed replicas and any that mutated across the replay."""
        if not ctx.replay_active:
            return
        for name, view in self._views(ctx, state):
            if name in ctx.snapshots:
                state.replay_probes += 1
                if view != ctx.snapshots[name]:
                    state.replay_mutations += 1


class GossipRing(EngineObserver):
    """One round per period of the always-on cross-RA gossip ring (§V).

    Every period each adjacent pair of agents (closed into a ring when the
    fleet has more than two) exchanges observed roots; any conflict — same
    CA, same size, different root — yields signed misbehavior reports
    within the same period it was planted.  With three or more pairs the
    ring's starting pair rotates via the run's seeded RNG, so expanded
    fleets don't always gossip in declaration order (exchange outcomes are
    order-independent; only event attribution order varies).
    """

    def __init__(self, rng: random.Random) -> None:
        """Bind the ring to the run's seeded gossip RNG."""
        self._rng = rng

    def after_pulls(self, ctx: PeriodContext, state: RunState) -> None:
        """Run one ring round and record any misbehavior reports."""
        runtimes = state.runtimes
        if len(runtimes) < 2:
            return
        pairs = list(zip(runtimes, runtimes[1:]))
        if len(runtimes) > 2:
            pairs.append((runtimes[-1], runtimes[0]))
        if len(pairs) > 1:
            rotation = self._rng.randrange(len(pairs))
            pairs = pairs[rotation:] + pairs[:rotation]
        exchange = GossipExchange()
        new_reports = []
        for left, right in pairs:
            new_reports.extend(
                exchange.exchange(left.agent.consistency, right.agent.consistency)
            )
        if not new_reports:
            return
        if state.first_detection_period is None:
            state.first_detection_period = ctx.period
        state.misbehavior_reports.extend(new_reports)
        state.event(
            ctx.period,
            "misbehavior-detected",
            f"gossip round produced {len(new_reports)} misbehavior report(s)",
        )


class RotationProber(EngineObserver):
    """Differentially re-verify retired epochs' roots, cached vs uncached.

    For each recorded rotation the retired root is verified twice — once
    through the first agent's :class:`~repro.perf.root_cache.VerifiedRootCache`
    and once directly against the keyring's currently-acceptable keys — at
    most once inside the overlap window and once after it closes.  The
    derived checks assert accept-inside / reject-after and that the cached
    verdict never diverges from the uncached one.
    """

    def after_pulls(self, ctx: PeriodContext, state: RunState) -> None:
        """Probe each rotation record once per overlap phase."""
        if not state.config.key_rotation_periods:
            return
        runtime = state.runtimes[0]
        keyring = runtime.agent.keyring_for(state.ca.name)
        if keyring is None:
            return
        for record in state.rotations:
            root = record["retired_root"]
            if root is None:
                continue
            inside = ctx.pull_time <= record["overlap_until"]
            probed_key = "probed_inside" if inside else "probed_after"
            if record[probed_key]:
                continue
            record[probed_key] = True
            cached = runtime.agent.root_cache.verify(root, keyring)
            uncached = any(
                key.verify(root.payload(), root.signature)
                for key in keyring.acceptable_keys()
            )
            state.rotation_probes.append(
                {
                    "period": ctx.period,
                    "epoch": record["epoch"],
                    "inside_overlap": inside,
                    "cached_verdict": cached,
                    "uncached_verdict": uncached,
                }
            )


class ShardedStorageRecorder(EngineObserver):
    """Append one sample per period to the sharded-vs-baseline storage timeline."""

    def after_pulls(self, ctx: PeriodContext, state: RunState) -> None:
        """Sample CA/RA/baseline storage at the period's pull time."""
        if not state.config.sharded:
            return
        replicas = state.runtimes[0].agent.replicas_of(state.ca.name)
        state.storage_timeline.append(
            {
                "period": ctx.period,
                "time": ctx.pull_time,
                "ca_storage_bytes": state.ca.storage_size_bytes(),
                "ca_shard_count": len(state.ca.streams),
                "ra_storage_bytes": sum(
                    replica.storage_size_bytes() for replica in replicas
                ),
                "ra_shard_count": len(replicas),
                "baseline_storage_bytes": state.oracle.storage_size_bytes(),
            }
        )


class SoakRecorder(EngineObserver):
    """Append one memory/throughput sample per period of a soak run.

    Registered only for runs with the soak study.  Each sample mixes
    deterministic counters (handshakes served, revocations, CA/RA storage,
    the stream generator's own byte accounting) with informational process
    measurements (wall-clock seconds, ``ru_maxrss``).  Verdict checks must
    only consume the deterministic fields; the process fields exist for the
    exported timeline artifact CI uploads.
    """

    def __init__(self) -> None:
        """Start the wall clock lazily on the first period sample."""
        self._wall_start: Optional[float] = None

    def after_pulls(self, ctx: PeriodContext, state: RunState) -> None:
        """Sample counters, storage, and memory at the period's pull time."""
        if state.client_stream is None:
            return
        if self._wall_start is None:
            self._wall_start = time.perf_counter()
        stream = state.client_stream
        replica_bytes = sum(
            replica.storage_size_bytes()
            for runtime in state.runtimes
            for replica in runtime.agent.replicas_of(state.ca.name)
        )
        state.soak_timeline.append(
            {
                "period": ctx.period,
                "time": ctx.pull_time,
                "handshakes_served": state.handshakes_served,
                "revocations_issued": state.revocations_issued,
                "ca_storage_bytes": state.ca.storage_size_bytes(),
                "ra_storage_bytes": replica_bytes,
                "stream_peak_batch_bytes": stream.peak_batch_bytes,
                "stream_footprint_bytes": stream.footprint_bytes(),
                "wall_seconds": round(time.perf_counter() - self._wall_start, 6),
                "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            }
        )


class SessionKeeper(EngineObserver):
    """Deliver server traffic on the long-lived session and enforce 2Δ."""

    def after_pulls(self, ctx: PeriodContext, state: RunState) -> None:
        """Advance the victim's session clock and enforce freshness."""
        victim = state.victim
        if victim is None or victim.deployment is None:
            return
        if victim.detected_at is not None:
            return
        deployment, clock = victim.deployment, victim.clock
        clock.advance(ctx.pull_time - clock.now())
        deployment.deliver_from_server(b"keepalive")
        client = deployment.client
        if client.is_connection_usable:
            client.enforce_freshness(clock.now())
        if not client.is_connection_usable:
            victim.detected_at = clock.now()
            reason = client.rejection.value if client.rejection else "unknown"
            detail = f"session torn down: {reason}"
            if victim.revoked_at is not None:
                detail += (
                    f" ({victim.detected_at - victim.revoked_at:.0f}s after revocation)"
                )
            state.event(ctx.period, "session-teardown", detail)
