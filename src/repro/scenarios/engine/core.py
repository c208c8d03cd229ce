"""The fleet engine: one discrete-event loop per scenario run.

:class:`FleetEngine` replaces the serial runner's lockstep period loop.
It builds the deployment (CA, CDN, fleet, victim) exactly as before, then
hands control to a :class:`repro.net.EventScheduler`: a
:class:`~repro.scenarios.engine.actors.CADirector` fires at every bin
start, each :class:`~repro.scenarios.engine.actors.RAActor` fires at its
own (possibly staggered/jittered) pull time, and the optional
:class:`~repro.scenarios.engine.actors.ClientLoadActor` posts handshake
batches mid-period.  Period-scoped study hooks run as ordered observers:
``after_ca_duty`` immediately after the CA's publication step,
``after_pulls`` when the period's last agent finishes its turn (tracked by
a completion counter, so stagger and jitter cannot reorder them relative
to the pulls they must follow).

With every concurrency knob at its default the event order is exactly the
serial loop's order — same-time events fire in scheduling order, and the
chaining discipline keeps period ``p``'s pulls ahead of period ``p+1``'s
CA duty — so all pre-engine scenarios keep byte-identical reports.
"""

from __future__ import annotations

import random
import shutil
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cdn import CDNNetwork, GeoLocation
from repro.crypto import KeyPair
from repro.dictionary.authdict import CADictionary
from repro.errors import ConfigurationError
from repro.net import EventScheduler
from repro.net.clock import SimulatedClock
from repro.pki import CertificationAuthority
from repro.ritm import (
    RITMCertificationAuthority,
    RITMConfig,
    RevocationAgent,
    attach_agent_to_cas,
)
from repro.scenarios.config import SCENARIO_CA_NAME, SCENARIO_EPOCH, ScenarioConfig
from repro.scenarios.engine import studies
from repro.scenarios.engine.actors import CADirector, ClientLoadActor, RAActor
from repro.scenarios.engine.checks import build_checks
from repro.scenarios.engine.links import link_for_agent
from repro.scenarios.engine.mailbox import Mailbox
from repro.scenarios.engine.metrics import collect_metrics, config_dict
from repro.scenarios.engine.observers import (
    EngineObserver,
    FaultInjector,
    GossipRing,
    HeadArchiver,
    PeriodContext,
    ReplayIntegrityProbe,
    RotationProber,
    RotationRecorder,
    SessionKeeper,
    ShardedStorageRecorder,
    SoakRecorder,
)
from repro.scenarios.engine.state import AgentRuntime, RunState, VictimRuntime
from repro.scenarios.faults import DECOY_SERIAL
from repro.scenarios.report import ScenarioReport
from repro.workloads import generate_trace, serials_for_count
from repro.workloads.streaming import StreamingWorkload


def chain_length_for(duration_periods: int) -> int:
    """A hash-chain length that outlasts a run of ``duration_periods``."""
    return max(64, duration_periods + 16)


def build_timeline(
    cfg: ScenarioConfig,
) -> Tuple[List[Tuple[int, float]], List[Tuple[int, bool, str]]]:
    """The run's schedule: (period, start time) pairs and per-period work.

    Each per-period work item is a ``(serial count, revoke-victim flag,
    reason)`` triple.  Trace workloads derive both lists from the
    calibrated trace; scripted workloads derive them from the config.
    """
    if cfg.workload.kind == "trace":
        start, end = cfg.workload.trace_window()
        bins = generate_trace().counts_per_bin(start, end, cfg.delta_seconds)
        if not bins:
            raise ConfigurationError("the trace window produced no periods")
        periods = [
            (index, float(bin_start)) for index, (bin_start, _) in enumerate(bins)
        ]
        counts = [
            (int(count * cfg.workload.ca_share), False, "trace")
            for _, count in bins
        ]
        return periods, counts
    periods = [
        (period, float(SCENARIO_EPOCH + period * cfg.delta_seconds))
        for period in range(cfg.duration_periods)
    ]
    counts: List[Tuple[int, bool, str]] = [(0, False, "")] * len(periods)
    for event in cfg.workload.events:
        count, victim_flag, reason = counts[event.at_period]
        counts[event.at_period] = (
            count + event.count,
            victim_flag or event.revoke_victim,
            event.reason if event.reason != "unspecified" else reason,
        )
    return periods, counts


def serial_pool(
    cfg: ScenarioConfig,
    counts: List[Tuple[int, bool, str]],
    victim: Optional[VictimRuntime],
) -> Iterator[int]:
    """A deterministic iterator of serials, skipping the victim's."""
    total = sum(count for count, _, _ in counts)
    pool = serials_for_count(total + 8, seed=cfg.workload.serial_seed)
    victim_value = victim.serial.value if victim is not None else None
    forbidden = {victim_value, DECOY_SERIAL}
    return iter(value for value in pool if value not in forbidden)


class FleetEngine:
    """Executes one scenario configuration on the event scheduler."""

    def __init__(self, config: ScenarioConfig) -> None:
        """Bind the engine to a validated scenario config."""
        self.config = config
        self.state: Optional[RunState] = None
        self.scheduler: Optional[EventScheduler] = None
        self.observers: List[EngineObserver] = []
        #: Open periods by index; the director creates an entry at each bin
        #: start, :meth:`pull_finished` closes it out.
        self.period_contexts: Dict[int, PeriodContext] = {}
        #: Running total of handshakes served, driving the sampled root
        #: re-verification (every ``verify_every``-th handshake).
        self.handshake_counter = 0
        stream = config.client_stream
        self.verify_every = max(1, stream.events_total // 400) if stream else 0

    # -- run orchestration -----------------------------------------------------------

    def run(self) -> ScenarioReport:
        """Execute the scenario and return its structured report."""
        cfg = self.config
        periods, counts = build_timeline(cfg)
        duration = len(periods)
        ritm_config = self._build_ritm_config(duration)
        setup_time = periods[0][1] - 2

        authority = CertificationAuthority(SCENARIO_CA_NAME, key_seed=cfg.name.encode())
        cdn = CDNNetwork()
        ca = RITMCertificationAuthority(authority, ritm_config, cdn)
        ca.bootstrap(now=setup_time)

        state = RunState(
            config=cfg,
            ritm_config=ritm_config,
            authority=authority,
            ca=ca,
            cdn=cdn,
            periods=periods,
            counts=counts,
        )
        state.oracle = self._build_oracle(duration)
        ca.cover(state.outstanding_expiries(setup_time), setup_time)
        if cfg.client_stream is not None:
            state.client_stream = StreamingWorkload(
                cfg.client_stream.stream_config(duration * cfg.delta_seconds, periods[0][1])
            )
        self.state = state

        # A region-outage run archives batch objects fleet-wide: every RA's
        # normal pulls then build the archives that peer anti-entropy
        # serves from after the outage.  A scenario can also opt in
        # directly (the soak scenario).
        streaming = (
            any(fault.kind == "region-outage" for fault in cfg.faults)
            or cfg.segment_streaming
        )
        for index, spec in enumerate(cfg.effective_agents()):
            agent = RevocationAgent(spec.name, ritm_config)
            location = GeoLocation(spec.geo_region())
            client = attach_agent_to_cas(agent, [ca], cdn, location)
            client.segment_streaming = streaming
            client.pull(now=setup_time + 1)
            state.runtimes.append(
                AgentRuntime(
                    spec_name=spec.name,
                    agent=agent,
                    client=client,
                    location=location,
                    fleet_index=index,
                    link=link_for_agent(cfg, spec.name),
                    mailbox=Mailbox(spec.name),
                )
            )

        try:
            state.victim = studies.setup_victim(state, setup_time + 1)
            state.serial_pool = serial_pool(cfg, counts, state.victim)
            self._run_event_loop(setup_time)
            return self._assemble_report(duration)
        finally:
            self._cleanup()

    def _build_ritm_config(self, duration: int) -> RITMConfig:
        """The RITM deployment config derived from the scenario config."""
        cfg = self.config
        ritm_kwargs: Dict[str, object] = {}
        if cfg.sharded:
            ritm_kwargs = {
                "sharded": True,
                "shard_width_seconds": cfg.shard_width_periods * cfg.delta_seconds,
            }
        if cfg.key_rotation_periods:
            ritm_kwargs["key_rotation_periods"] = cfg.key_rotation_periods
            ritm_kwargs["key_overlap_periods"] = cfg.key_overlap_periods
        return RITMConfig(
            delta_seconds=cfg.delta_seconds,
            chain_length=chain_length_for(duration),
            store_engine=cfg.store_engine,
            **ritm_kwargs,
        )

    def _build_oracle(self, duration: int) -> Optional[CADictionary]:
        """The differential oracle of the sharded, crash-recovery,
        region-outage, and soak studies: one always-in-memory dictionary fed
        the same revocations, so replica verdicts (and an ever-growing
        storage baseline) can be checked against it after the run."""
        cfg = self.config
        if not (
            cfg.sharded
            or cfg.soak_study
            or any(fault.crash or fault.kind == "region-outage" for fault in cfg.faults)
        ):
            return None
        return CADictionary(
            ca_name=SCENARIO_CA_NAME,
            keys=KeyPair.generate(f"{cfg.name}-oracle".encode()),
            delta=cfg.delta_seconds,
            chain_length=chain_length_for(duration),
            engine="incremental",
        )

    def _run_event_loop(self, setup_time: float) -> None:
        """Register actors and observers, then drain the scheduler."""
        cfg, state = self.config, self.state
        self.scheduler = EventScheduler(SimulatedClock(setup_time + 1))
        gossip_rng = random.Random(f"{cfg.name}:{cfg.rng_seed}:gossip")
        self.observers = [
            RotationRecorder(),
            HeadArchiver(),
            FaultInjector(),
            ReplayIntegrityProbe(),
            GossipRing(gossip_rng),
            RotationProber(),
            ShardedStorageRecorder(),
            SessionKeeper(),
        ]
        if cfg.soak_study:
            self.observers.append(SoakRecorder())
        # Registration order is the same-time tiebreaker: the director's
        # first firing precedes the fleet's first pulls, and the fleet is
        # seeded in declaration order.
        CADirector(self).start()
        for runtime in state.runtimes:
            RAActor(self, runtime).start()
        if cfg.client_stream is not None:
            ClientLoadActor(self).start()
        self.scheduler.run_all()
        state.scheduler_events_processed = self.scheduler.processed_events

    # -- actor callbacks -------------------------------------------------------------

    def open_period(self, period: int, bin_start: float) -> PeriodContext:
        """Create (and register) the shared context for one Δ period."""
        state = self.state
        ctx = PeriodContext(
            period=period,
            bin_start=bin_start,
            pull_time=bin_start + state.config.delta_seconds,
            workload=state.counts[period],
            outage=state.active_fault("ca-outage", period),
            prev_epoch=state.ca.key_epoch,
            # The last statement the (possibly outgoing) key signed: any
            # live stream's root — rotation re-signs them all together.
            prev_root=next(
                (
                    stream.dictionary.signed_root
                    for stream in state.ca.live_streams(bin_start)
                ),
                None,
            ),
        )
        self.period_contexts[period] = ctx
        return ctx

    def pull_finished(self, period: int) -> None:
        """Count one agent's completed turn; run ``after_pulls`` on the last.

        Completion counting (rather than a scheduled barrier event) keeps
        the period hooks correct under stagger and jitter: they run inline
        in whichever agent's callback finishes the period, still at the
        period semantics the serial loop had.
        """
        ctx = self.period_contexts[period]
        ctx.pulls_finished += 1
        if ctx.pulls_finished == len(self.state.runtimes):
            for observer in self.observers:
                observer.after_pulls(ctx, self.state)

    # -- post-run assembly -----------------------------------------------------------

    def _assemble_report(self, duration: int) -> ScenarioReport:
        """Run the closing study phases and build the report."""
        cfg, state = self.config, self.state
        end_time = state.periods[-1][1] + cfg.delta_seconds
        extras: Dict[str, object] = {}
        if state.victim is not None:
            studies.final_handshake(state, end_time + 3)
        if cfg.baseline and state.victim is not None and state.victim.revoked_at is not None:
            extras["baseline"] = studies.baseline_comparison(state)
        if state.victim is not None:
            extras["victim"] = state.victim.as_dict()
        if cfg.sharded:
            extras["sharded_storage"] = studies.sharded_extras(state, end_time)
        if any(fault.crash for fault in cfg.faults):
            extras["crash_recovery"] = studies.crash_recovery_extras(state, end_time)
        if any(fault.kind == "region-outage" for fault in cfg.faults):
            extras["replication"] = studies.region_outage_extras(state, end_time)
        if any(fault.kind == "equivocating-ca" for fault in cfg.faults):
            extras["equivocation"] = studies.equivocation_extras(state)
        if cfg.key_rotation_periods:
            extras["key_rotation"] = studies.key_rotation_extras(state)
        if cfg.soak_study:
            extras["soak"] = studies.soak_extras(state, end_time)

        return ScenarioReport(
            scenario=cfg.name,
            title=cfg.title,
            summary=cfg.summary,
            config=config_dict(state, duration),
            metrics=collect_metrics(state),
            events=state.events,
            checks=build_checks(state, extras),
            extras=extras,
        )

    def _cleanup(self) -> None:
        """Close every store and drop checkpoint scratch directories.

        The durable engine holds open WAL handles (and temp directories
        when no explicit path was configured); a scenario run must not leak
        them even when a study phase raises.
        """
        state = self.state
        if state is None:
            return
        for runtime in state.runtimes:
            runtime.agent.close()
        state.ca.close()
        if state.oracle is not None:
            state.oracle.close()
        for directory in state.checkpoint_dirs:
            shutil.rmtree(directory, ignore_errors=True)


def run_scenario(config: ScenarioConfig, smoke: bool = False) -> ScenarioReport:
    """Run ``config`` (optionally its smoke variant) and return the report."""
    if smoke:
        config = config.smoke()
    return FleetEngine(config).run()
