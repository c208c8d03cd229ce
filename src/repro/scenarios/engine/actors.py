"""The fleet's actors: CA director, RA pull agents, client load.

Each actor schedules its own next event on the engine's shared
:class:`repro.net.EventScheduler` (self-chaining), so the whole run is one
event loop instead of a lockstep period loop:

* :class:`CADirector` fires at every period's bin start: it performs the
  CA's publication duty (outage queueing, backlog flush, issuance or bare
  refresh), runs the ``after_ca_duty`` observers (rotation recording, fault
  injection, snapshots), posts ``head-published`` to every RA mailbox, and
  chains the next period.
* :class:`RAActor` fires at its own pull time — ``bin + Δ + i·stagger +
  jitter_i`` — drains its mailbox (serving queued client batches first),
  handles restart/crash/restore faults, pulls over its modelled uplink, and
  chains its next pull.  When the last agent of a period finishes, the
  engine runs the ``after_pulls`` observers.
* :class:`ClientLoadActor` posts mid-period ``client-batch`` messages via
  the drift-free :meth:`~repro.net.EventScheduler.schedule_every`.

Same-time events fire in scheduling order, which (with the chaining
discipline above) reproduces the serial runner's period ordering exactly
when every concurrency knob is at its default.
"""

from __future__ import annotations

import random
import tempfile
from typing import Iterable, List, Set, Tuple

from repro.crypto.signing import PublicKey, verify_batch
from repro.errors import DesynchronizedError, DictionaryError
from repro.pki import SerialNumber
from repro.ritm import RevocationAgent, attach_agent_to_cas
from repro.ritm.dissemination import PullResult
from repro.ritm.replication import rank_peers
from repro.scenarios.engine.mailbox import Message
from repro.scenarios.engine.state import AgentRuntime
from repro.workloads.streaming import ClientEvent, uniform_slot_counts


class CADirector:
    """The CA-side actor: one firing per Δ period at the bin start."""

    def __init__(self, engine) -> None:
        """Bind the director to its engine."""
        self.engine = engine
        self._period = 0

    def start(self) -> None:
        """Schedule the first period's publication event."""
        first_bin = self.engine.state.periods[0][1]
        self.engine.scheduler.schedule(first_bin, self._on_period, label="ca-duty")

    def _on_period(self, now: float) -> None:
        """One period's CA duty, observer hooks, and mailbox announcements."""
        engine, state = self.engine, self.engine.state
        cfg = state.config
        period = self._period
        ctx = engine.open_period(period, now)

        count, revoke_victim, reason = ctx.workload
        serials = [SerialNumber(next(state.serial_pool)) for _ in range(count)]
        if revoke_victim and state.victim is not None:
            serials.append(state.victim.serial)

        if ctx.outage is not None:
            if serials:
                state.backlog.append(
                    (now, serials, reason or "queued in outage", revoke_victim)
                )
                state.event(period, "ca-outage", f"{len(serials)} revocation(s) queued")
            elif period == ctx.outage.at_period:
                state.event(period, "ca-outage", "CA publishes nothing this window")
        else:
            self._issue_revocations(period, now, serials, reason, revoke_victim)

        for observer in engine.observers:
            observer.after_ca_duty(ctx, state)

        if ctx.outage is None:
            for runtime in state.runtimes:
                runtime.mailbox.post(
                    Message(kind="head-published", posted_at=now, payload={"period": period})
                )

        self._period += 1
        if self._period < len(state.periods):
            next_bin = state.periods[self._period][1]
            engine.scheduler.schedule(next_bin, self._on_period, label="ca-duty")

    def _issue_revocations(
        self,
        period: int,
        now: float,
        serials: List[SerialNumber],
        reason: str,
        revoke_victim: bool,
    ) -> None:
        """Flush any outage backlog, revoke this period's serials, and make
        sure every stream published something this period."""
        state = self.engine.state
        state.ca.cover(state.outstanding_expiries(now), now)
        for intended_time, queued, queued_reason, queued_victim in state.backlog:
            self._revoke(period, now, queued, queued_reason, queued_victim, intended_time)
            state.event(
                period,
                "backlog-flush",
                f"{len(queued)} queued revocation(s) published "
                f"{now - intended_time:.0f}s late",
            )
        state.backlog = []
        touched: Set[str] = set()
        if serials:
            touched = self._revoke(
                period, now, serials, reason or "unspecified", revoke_victim, now
            )
            if len(serials) > (1 if revoke_victim else 0):
                state.event(period, "revocation", f"{len(serials)} serial(s) revoked")
        # Every stream owes the fleet one publication per Δ, and revoke()
        # made it only for the streams this period's batch touched.  (The
        # refresh also drives key rotation and shard retirement.)
        if touched != set(state.ca.streams):
            state.ca.refresh(now=now)

    def _revoke(
        self,
        period: int,
        now: float,
        serials: List[SerialNumber],
        reason: str,
        revoke_victim: bool,
        event_time: float,
    ) -> Set[str]:
        """Revoke one batch; returns the names of the streams it touched.

        In a sharded run every serial routes by a certificate expiry
        (:meth:`RunState.expiry_for`), producing the expiry churn that makes
        shards fill and retire over a long run.
        """
        state = self.engine.state
        pairs = [(serial, state.expiry_for(serial, now)) for serial in serials]
        issuances = state.ca.revoke_with_expiry(pairs, now=now, reason=reason)
        for key, issuance in issuances:
            state.record_issuance(key, issuance, event_time)
        if revoke_victim and state.victim is not None:
            state.victim.revoked_at = now
            state.event(
                period, "victim-revoked", f"serial {state.victim.serial} revoked"
            )
        return {issuance.ca_name for _, issuance in issuances}


class RAActor:
    """One RA's actor: drains its mailbox and pulls once per period."""

    def __init__(self, engine, runtime: AgentRuntime) -> None:
        """Bind the actor to its runtime and derive its seeded RNG streams."""
        self.engine = engine
        self.runtime = runtime
        cfg = engine.state.config
        stem = f"{cfg.name}:{cfg.rng_seed}"
        self._jitter_rng = random.Random(f"{stem}:jitter:{runtime.spec_name}")
        self._period = 0

    def start(self) -> None:
        """Schedule this agent's first pull."""
        self._schedule_pull(0)

    def _schedule_pull(self, period: int) -> None:
        """Queue the pull event for ``period`` at the agent's offset time."""
        state = self.engine.state
        cfg = state.config
        bin_start = state.periods[period][1]
        offset = self.runtime.fleet_index * cfg.pull_stagger_seconds
        if cfg.pull_jitter_seconds:
            offset += self._jitter_rng.uniform(0.0, cfg.pull_jitter_seconds)
        self.engine.scheduler.schedule(
            bin_start + cfg.delta_seconds + offset,
            self._on_pull,
            label=f"pull:{self.runtime.spec_name}",
        )

    def _on_pull(self, now: float) -> None:
        """One period's turn: fault handling, mailbox drain, the pull itself."""
        engine, state, runtime = self.engine, self.engine.state, self.runtime
        period = self._period
        self._period += 1
        if self._period < len(state.periods):
            self._schedule_pull(self._period)

        ctx = engine.period_contexts[period]
        fault = state.restart_fault_for(runtime, period)
        if fault is not None:
            if fault.crash and period == fault.at_period:
                self._crash(period, durable=fault.durable)
            runtime.missed_pulls += 1
            state.event(period, "ra-restart", f"{runtime.spec_name} missed its pull")
            engine.pull_finished(period)
            return
        outage = state.region_outage_fault_for(runtime, period)
        if outage is not None:
            if period == outage.at_period:
                # The region's RAs die with their region — durably: a real
                # deployment checkpoints continuously, so the restart path
                # is always warm-start-plus-catch-up, never data loss.
                self._crash(period, durable=True, mode="region")
            runtime.missed_pulls += 1
            state.event(
                period, "region-outage", f"{runtime.spec_name} down with its region"
            )
            engine.pull_finished(period)
            return

        self._drain_mailbox(now)

        restored_replicas = None
        peer_result = None
        peer_name = ""
        recovery_origin_bytes = 0
        if runtime.pending_restore:
            restored_replicas = runtime.client.restore(runtime.checkpoint_dir)
            runtime.pending_restore = False
            state.event(
                period,
                "ra-restore",
                f"{runtime.spec_name} warm-started from its checkpoint "
                f"({restored_replicas} replica(s))",
            )
            if runtime.crashed_mode == "region":
                peer_name, peer_result = self._anti_entropy_catch_up(period, now)
                # The CA-origin cost of the catch-up itself (restore plus
                # anti-entropy), before the period's ordinary pull — which
                # every live RA pays regardless — resumes.
                recovery_origin_bytes = (
                    state.cdn.origin_bytes_by_source.get(runtime.spec_name, 0)
                    - runtime.egress_baseline
                )
        result = runtime.client.pull(now=now, link=runtime.link)
        state.pull_intervals.append((now, now + result.latency_seconds))
        if runtime.crashed_mode is not None and runtime.recovery is None:
            runtime.recovery = {
                "mode": runtime.crashed_mode,
                "period": period,
                "bytes_downloaded": result.bytes_downloaded,
                "latency_seconds": result.latency_seconds,
                "serials_applied": result.serials_applied,
                "issuances_applied": result.issuances_applied,
                "resyncs": result.resyncs,
                "restored_replicas": restored_replicas or 0,
                "completed_at": now + result.latency_seconds,
            }
            if runtime.crashed_mode == "region":
                peer = peer_result or PullResult(time=now)  # no peer: all zeros
                runtime.recovery.update(
                    {
                        "peer": peer_name,
                        "batches_from_peer": peer.batches_from_peer,
                        "peer_bytes": peer.batch_bytes_downloaded,
                        "peer_serials_applied": peer.serials_applied,
                        "cold_sync_fallbacks": peer.cold_sync_fallbacks,
                        # What the catch-up fetched besides relayed batches:
                        # shard discovery and any cold-sync fallback.
                        "fallback_bytes": (
                            peer.bytes_downloaded - peer.batch_bytes_downloaded
                        ),
                        # Origin bytes this RA's catch-up cost the CA
                        # (peer relays cost 0).
                        "ca_origin_bytes": recovery_origin_bytes,
                    }
                )
            state.event(
                period,
                "ra-recovered",
                f"{runtime.spec_name} {runtime.crashed_mode} recovery: "
                f"{result.bytes_downloaded} B, "
                f"{result.serials_applied} serial(s) applied in "
                f"{result.latency_seconds:.3f}s",
            )
        state.advance_provability(runtime, now + result.latency_seconds)
        if ctx.forgery is not None and period == ctx.forgery.at_period:
            state.forgery_errors += len(result.errors)
        for error in result.errors:
            state.event(period, "pull-error", error)
        engine.pull_finished(period)

    def _crash(self, period: int, durable: bool, mode: str = "") -> None:
        """Kill and re-create the agent's process state for a crash restart.

        In durable mode the dissemination client checkpoints first —
        modelling an RA that persists its state once per applied epoch — so
        recovery can warm-start from disk.  Either way the old agent and
        client are discarded (their pull history is archived for the run's
        dissemination totals) and replaced with a fresh attach, exactly what
        a restarted process would do.

        ``mode`` overrides the recorded crash mode: a ``region-outage``
        crash is durable mechanically but recovers via peer anti-entropy,
        and the recovery study tells the two apart by this label.
        """
        state, runtime = self.engine.state, self.runtime
        streaming = runtime.client.segment_streaming
        if durable:
            runtime.checkpoint_dir = tempfile.mkdtemp(
                prefix=f"ritm-ckpt-{runtime.spec_name}-"
            )
            state.checkpoint_dirs.append(runtime.checkpoint_dir)
            runtime.client.checkpoint(runtime.checkpoint_dir)
        runtime.archived_pulls.extend(runtime.client.pull_history)
        runtime.agent.close()
        agent = RevocationAgent(runtime.spec_name, state.ritm_config)
        runtime.agent = agent
        runtime.client = attach_agent_to_cas(
            agent, [state.ca], state.cdn, runtime.location
        )
        runtime.client.segment_streaming = streaming
        runtime.pending_restore = durable
        runtime.crashed_mode = mode or ("durable" if durable else "cold")
        runtime.egress_baseline = state.cdn.origin_bytes_by_source.get(
            runtime.spec_name, 0
        )
        state.event(
            period,
            "ra-crash",
            f"{runtime.spec_name} crashed "
            f"({'durable checkpoint on disk' if durable else 'memory lost'})",
        )

    def _anti_entropy_catch_up(self, period: int, now: float):
        """Catch a region-restored agent up from its nearest healthy peer.

        The peer ranking comes straight from the replication layer:
        regional proximity first, then link similarity, so a restored RA
        prefers a survivor one hop away over a cross-continent one.  The
        peer sync's :class:`~repro.ritm.dissemination.PullResult` lands in
        the client's own pull history; here we only pick the peer, run the
        sync, and log the outcome.
        """
        state, runtime = self.engine.state, self.runtime
        candidates = [
            other
            for other in state.runtimes
            if other is not runtime and other.crashed_mode is None
        ]
        if not candidates:
            return "", None
        ranked = rank_peers(
            runtime.location, [(other.spec_name, other.location) for other in candidates]
        )
        by_name = {other.spec_name: other for other in candidates}
        peer = by_name[ranked[0]]
        peer_result = runtime.client.sync_from_peer(peer.client, now)
        state.event(
            period,
            "anti-entropy",
            f"{runtime.spec_name} caught up from {peer.spec_name}: "
            f"{peer_result.batches_from_peer} batch(es), "
            f"{peer_result.serials_applied} serial(s), "
            f"{peer_result.cold_sync_fallbacks} cold-sync fallback(s)",
        )
        return peer.spec_name, peer_result

    # -- client handshake load -------------------------------------------------------

    def _drain_mailbox(self, now: float) -> None:
        """Process queued messages, serving client batches before the pull.

        A batch carries only a cursor and a count; its events are
        regenerated here from the run's shared
        :class:`~repro.workloads.streaming.StreamingWorkload` in
        ``O(batch_size)`` memory, so a million-client period never
        materializes its client population.
        """
        state = self.engine.state
        for message in self.runtime.mailbox.drain():
            if message.kind != "client-batch":
                continue
            start = int(message.payload["start"])
            end = start + int(message.payload["count"])
            events = state.client_stream.events(start, end)
            self._serve_clients((self._stream_serial(event) for event in events), now)

    def _serve_clients(self, serials: Iterable[SerialNumber], now: float) -> None:
        """Serve one batch of status handshakes against the pre-pull replicas.

        Every ``engine.verify_every``-th served status (counted across the
        fleet) has its signed root re-verified, as its client would, through
        one :func:`repro.crypto.signing.verify_batch` call per batch.  Every
        status of one batch is served from one replica state, so the sampled
        roots are mostly copies of one ``(key, root, signature)`` triple,
        which that call verifies once; ``handshake_roots_verified`` counts
        every copy that verified.
        """
        engine, state, runtime = self.engine, self.engine.state, self.runtime
        triples: List[Tuple[PublicKey, bytes, bytes]] = []
        for serial in serials:
            try:
                status = runtime.agent.build_status(
                    state.ca.name, serial, state.client_expiry(serial, now)
                )
            except (DictionaryError, DesynchronizedError):
                continue
            state.handshakes_served += 1
            engine.handshake_counter += 1
            if (
                engine.verify_every
                and engine.handshake_counter % engine.verify_every == 0
            ):
                root = status.signed_root
                # The key that signed it: the CA's newest as of the root.
                signer = state.ca.keyring.acceptable_keys(root.timestamp)[0]
                triples.append((signer, root.payload(), root.signature))
        if triples:
            state.handshake_roots_verified += sum(verify_batch(triples))

    def _stream_serial(self, event: ClientEvent) -> SerialNumber:
        """Status-query serial for one streamed event.

        Every fifth event probes a serial the CA actually revoked (the
        presence path through proofs and caches); the rest query the visited
        site's own deterministic certificate serial, which is almost always
        absent — the realistic steady state — and Zipf-concentrated, so the
        hot-path caches see genuine popularity skew.
        """
        state = self.engine.state
        if state.numbered and event.index % 5 == 0:
            _, serial = state.numbered[(event.site + event.index) % len(state.numbered)]
            return serial
        return SerialNumber(state.client_stream.site_serial(event.site))


class ClientLoadActor:
    """Schedules the run's client load over periods and the RA fleet.

    One drift-free recurring event per period, at the period's midpoint,
    posts a ``client-batch`` message into every RA's mailbox; the RA serves
    the batch when it next drains (normally at its pull, so clients always
    hit the pre-pull replica state — and a restarted RA visibly accumulates
    unserved batches).

    Each period's total comes from the client stream's diurnal schedule
    (flat when its amplitude is 0) and is split evenly over the fleet by
    :func:`repro.workloads.streaming.uniform_slot_counts`.  The messages
    carry *cursors into the trace* rather than events, so they stay O(1) no
    matter how many clients the stream models.
    """

    def __init__(self, engine) -> None:
        """Precompute the per-(period, agent) ``(cursor, count)`` schedule."""
        self.engine = engine
        state = engine.state
        fleet = len(state.runtimes)
        delta = state.config.delta_seconds
        first = state.periods[0][1]
        boundaries = [first + p * delta for p in range(len(state.periods) + 1)]
        self._period = 0
        self._plan: List[List[Tuple[int, int]]] = []
        cursor = 0
        for count in state.client_stream.period_counts(boundaries):
            entries = []
            for share in uniform_slot_counts(count, fleet):
                entries.append((cursor, share))
                cursor += share
            self._plan.append(entries)

    def start(self) -> None:
        """Schedule one mid-period batch posting per period."""
        state = self.engine.state
        delta = state.config.delta_seconds
        self.engine.scheduler.schedule_every(
            interval=float(delta),
            callback=self._on_tick,
            start=state.periods[0][1] + delta / 2.0,
            count=len(state.periods),
            label="client-load",
        )

    def _on_tick(self, now: float) -> None:
        """Post this period's client batches to every RA mailbox."""
        state = self.engine.state
        period = self._period
        self._period += 1
        for index, runtime in enumerate(state.runtimes):
            start, count = self._plan[period][index]
            if not count:
                continue
            payload = {"period": period, "count": count, "start": start}
            runtime.mailbox.post(
                Message(kind="client-batch", posted_at=now, payload=payload)
            )
