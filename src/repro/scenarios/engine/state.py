"""The mutable state one scenario run threads through its actors.

:class:`RunState` is the serial runner's former instance state made
explicit: the deployment handles (CA, CDN, fleet runtimes, victim), the
run's timeline, and every accumulator the period loop used to update
inline — issuance batches, provability queue, fault bookkeeping, gossip
detections, fleet/contention accounting.  Actors and observers receive the
one shared instance instead of reaching into a runner object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cdn import CDNNetwork, GeoLocation
from repro.dictionary.authdict import CADictionary
from repro.net import Link
from repro.net.clock import SimulatedClock
from repro.pki import CertificationAuthority, SerialNumber, TrustStore
from repro.ritm import RITMCertificationAuthority, RITMConfig, RevocationAgent
from repro.ritm.dissemination import PullResult, RADisseminationClient, total_pulls
from repro.scenarios.config import FaultSpec, ScenarioConfig
from repro.scenarios.engine.mailbox import Mailbox


@dataclass
class PendingProvability:
    """A revocation batch waiting to become provable at each agent."""

    event_time: float
    #: The dictionary (stream) the batch went into, and that dictionary's
    #: size once it had.
    stream: str
    cumulative_size: int
    #: When the stream's expiry window closes (``None`` = never): past it
    #: there is no unexpired certificate left to prove anything about.
    expires_at: Optional[float] = None


@dataclass
class AgentRuntime:
    """Per-agent state the engine tracks across periods."""

    spec_name: str
    agent: RevocationAgent
    client: RADisseminationClient
    location: GeoLocation
    #: The agent's position in the fleet (drives stagger offsets).
    fleet_index: int = 0
    #: The modelled uplink, or ``None`` for the serial runner's behaviour.
    link: Optional[Link] = None
    #: This agent's message queue (head announcements, client batches).
    mailbox: Mailbox = field(default_factory=lambda: Mailbox(""))
    #: Index into the pending-provability list: entries before it are provable.
    provability_cursor: int = 0
    max_lag_seconds: float = 0.0
    missed_pulls: int = 0
    #: Pull results of clients discarded by a crash restart, so dissemination
    #: totals cover the whole run, not just the current process incarnation.
    archived_pulls: List[PullResult] = field(default_factory=list)
    #: Crash-restart state: checkpoint directory (durable mode), whether a
    #: restore must run before the next pull, which crash mode hit this
    #: agent, and the metrics of its first post-crash recovery pull.
    checkpoint_dir: Optional[str] = None
    pending_restore: bool = False
    crashed_mode: Optional[str] = None
    recovery: Optional[Dict[str, object]] = None
    #: Per-source CA-origin egress attributed to this agent at crash time,
    #: so recovery cost can be measured as a delta (region-outage study).
    egress_baseline: int = 0

    def pull_results(self) -> List[PullResult]:
        """Every pull this agent completed, across crash restarts."""
        return self.archived_pulls + self.client.pull_history



@dataclass
class VictimRuntime:
    """State for the scenario's victim certificate and its connections."""

    chain: object
    trust_store: TrustStore
    ca_public_keys: Dict[str, object]
    serial: SerialNumber
    initial_accepted: bool = False
    final_accepted: bool = False
    final_rejection: str = ""
    status_size_bytes: int = 0
    revoked_at: Optional[float] = None
    detected_at: Optional[float] = None
    deployment: Optional[object] = None
    clock: Optional[SimulatedClock] = None

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready summary for the report's extras."""
        return {
            "serial": str(self.serial),
            "initial_handshake_accepted": self.initial_accepted,
            "final_handshake_accepted": self.final_accepted,
            "final_rejection": self.final_rejection,
            "status_size_bytes": self.status_size_bytes,
            "revoked_at": self.revoked_at,
            "detected_at": self.detected_at,
            "detection_lag_seconds": (
                self.detected_at - self.revoked_at
                if self.detected_at is not None and self.revoked_at is not None
                else None
            ),
        }


@dataclass
class RunState:
    """Everything one run's actors and observers share.

    Construction happens in :class:`~repro.scenarios.engine.core.FleetEngine`;
    afterwards the instance is append/update-only until the report is
    assembled from it.
    """

    config: ScenarioConfig
    ritm_config: RITMConfig
    authority: CertificationAuthority
    ca: RITMCertificationAuthority
    cdn: CDNNetwork
    #: ``(period index, bin start time)`` pairs.
    periods: List[Tuple[int, float]]
    #: Per-period ``(serial count, revoke-victim flag, reason)`` work items.
    counts: List[Tuple[int, bool, str]]
    runtimes: List[AgentRuntime] = field(default_factory=list)
    victim: Optional[VictimRuntime] = None
    serial_pool: Optional[object] = None

    # -- the period loop's accumulators ----------------------------------------------
    events: List[Dict[str, object]] = field(default_factory=list)
    pending: List[PendingProvability] = field(default_factory=list)
    #: Every issuance batch of the run, tagged with the stream it went into.
    batches: List[Tuple[str, List[SerialNumber]]] = field(default_factory=list)
    numbered: List[Tuple[int, SerialNumber]] = field(default_factory=list)
    backlog: List[Tuple[float, List[SerialNumber], str, bool]] = field(
        default_factory=list
    )
    revocations_issued: int = 0
    checkpoint_dirs: List[str] = field(default_factory=list)
    #: Sharded mode: serial value → assigned certificate expiry and the
    #: per-period storage timeline; any differential study: the in-memory
    #: single-dictionary oracle fed every revocation.
    expiries: Dict[int, int] = field(default_factory=dict)
    expiry_cycle: int = 0
    oracle: Optional[CADictionary] = None
    storage_timeline: List[Dict[str, object]] = field(default_factory=list)
    #: Adversarial control-plane state: each stream's oldest published
    #: head, raw (ammunition for the replay injector), the CA's rotation
    #: history with the retired epochs' signed roots, the rotation cache
    #: probes, replay-fault replica-integrity counters, the planted
    #: equivocation summary, and the gossip ring's detections.
    head_archive: Dict[str, bytes] = field(default_factory=dict)
    rotations: List[Dict[str, object]] = field(default_factory=list)
    rotation_probes: List[Dict[str, object]] = field(default_factory=list)
    replay_probes: int = 0
    replay_mutations: int = 0
    forgery_attempts: int = 0
    forgery_errors: int = 0
    equivocation: Optional[Dict[str, object]] = None
    hidden_serial: Optional[SerialNumber] = None
    misbehavior_reports: List[object] = field(default_factory=list)
    first_detection_period: Optional[int] = None

    # -- fleet/contention accounting -----------------------------------------------
    #: ``(start, end)`` of every completed pull, for overlap metrics.
    pull_intervals: List[Tuple[float, float]] = field(default_factory=list)
    handshakes_served: int = 0
    handshake_roots_verified: int = 0
    scheduler_events_processed: int = 0
    #: The streamed client-load generator
    #: (:class:`repro.workloads.streaming.StreamingWorkload`) when the config
    #: declares a ``client_stream``; actors regenerate events from it in
    #: ``O(batch_size)`` memory.
    client_stream: Optional[object] = None
    #: Per-period soak timeline samples (throughput, storage, memory) the
    #: ``SoakRecorder`` observer appends for soak-study runs.
    soak_timeline: List[Dict[str, object]] = field(default_factory=list)

    # -- helpers shared by actors and observers --------------------------------------

    def pull_totals(self) -> PullResult:
        """Every pull of the run, agent by agent, totalled field by field."""
        return total_pulls(
            pull for runtime in self.runtimes for pull in runtime.pull_results()
        )

    def event(self, period: int, kind: str, detail: str) -> None:
        """Append one timeline entry (period -1/-2 = setup/closing)."""
        self.events.append({"period": period, "kind": kind, "detail": detail})

    def active_fault(self, kind: str, period: int) -> Optional[FaultSpec]:
        """The configured fault of ``kind`` covering ``period``, if any."""
        for fault in self.config.faults:
            if fault.kind == kind and fault.covers(period):
                return fault
        return None

    def restart_fault_for(
        self, runtime: AgentRuntime, period: int
    ) -> Optional[FaultSpec]:
        """The ``ra-restart`` fault keeping ``runtime`` down this period.

        Unlike :meth:`active_fault` this considers *every* restart fault,
        so several agents can restart in the same window (the crash-recovery
        scenario runs a durable and a cold restart side by side).
        """
        for fault in self.config.faults:
            if fault.kind != "ra-restart" or not fault.covers(period):
                continue
            target = fault.agent or self.runtimes[-1].spec_name
            if runtime.spec_name == target:
                return fault
        return None

    def region_outage_fault_for(
        self, runtime: AgentRuntime, period: int
    ) -> Optional[FaultSpec]:
        """The ``region-outage`` fault keeping ``runtime`` down this period.

        An agent is down when its own region is the failed one; RAs in
        other regions ride out the outage (their CDN resolution never even
        changes) and serve as anti-entropy peers afterwards.
        """
        for fault in self.config.faults:
            if fault.kind != "region-outage" or not fault.covers(period):
                continue
            if runtime.location.region == fault.geo_region():
                return fault
        return None

    def fault_stream(self, pull_time: float) -> str:
        """The dictionary a CDN-object fault targets: of the streams RAs
        will still hold at ``pull_time``, the one revoked into last (an
        unsharded CA only has the one, named after it)."""
        live = [stream.name for stream in self.ca.live_streams(pull_time)]
        for name, _ in reversed(self.batches):
            if name in live:
                return name
        return live[0] if live else self.ca.name

    def expiry_for(self, serial: SerialNumber, now: float) -> Optional[int]:
        """The certificate expiry a revocation of ``serial`` routes by: the
        victim's real one, deterministic churn 1..``cert_lifetime_periods``
        periods out for synthetic serials, ``None`` in an unsharded run."""
        lifetime = self.config.cert_lifetime_periods
        if not lifetime:
            return None
        if self.victim is not None and serial == self.victim.serial:
            expiry = self.victim.chain.leaf.not_after
        else:
            expiry = int(
                now + (self.expiry_cycle % lifetime + 1) * self.config.delta_seconds
            )
            self.expiry_cycle += 1
        self.expiries[serial.value] = expiry
        return expiry

    def client_expiry(self, serial: SerialNumber, now: float) -> Optional[int]:
        """The expiry of the (modelled) certificate behind a client's query:
        the one a revoked serial was revoked under while still unexpired,
        else some live certificate's, 1..``cert_lifetime_periods`` periods
        from expiring.  ``None`` in an unsharded run."""
        lifetime = self.config.cert_lifetime_periods
        if not lifetime:
            return None
        expiry = self.expiries.get(serial.value)
        if expiry is None or expiry <= now:
            expiry = int(now) + (serial.value % lifetime + 1) * self.config.delta_seconds
        return expiry

    def outstanding_expiries(self, now: float) -> List[int]:
        """One expiry per Δ across the horizon the modelled population's
        certificates can expire in (empty in an unsharded run) — what the
        CA must :meth:`~repro.ritm.RITMCertificationAuthority.cover`.  It
        runs three periods past ``cert_lifetime_periods``: an RA serves a
        period's clients from the state it pulled one period earlier, up to
        one Δ (plus stagger) after this call's ``now``."""
        lifetime = self.config.cert_lifetime_periods
        if not lifetime:
            return []
        delta = self.config.delta_seconds
        return [int(now) + step * delta for step in range(lifetime + 4)]

    def record_issuance(self, key, issuance, event_time: float) -> None:
        """Track one stream's issuance for provability accounting and replay
        phases (``key`` is the stream's expiry window, ``None`` = unsharded)."""
        self.batches.append((issuance.ca_name, list(issuance.serials)))
        self.numbered.extend(issuance.numbered_serials())
        self.revocations_issued += len(issuance.serials)
        if self.oracle is not None:
            # Mirror every revocation into the in-memory oracle the
            # replicas' verdicts are differentially checked against.
            self.oracle.insert(list(issuance.serials), int(event_time))
        self.pending.append(
            PendingProvability(
                event_time=event_time,
                stream=issuance.ca_name,
                cumulative_size=issuance.first_number + len(issuance.serials) - 1,
                expires_at=key.window_end if key is not None else None,
            )
        )

    def advance_provability(self, runtime: AgentRuntime, available_at: float) -> None:
        """Record dissemination lag for every batch the agent now covers.

        A batch whose stream's window closed before the agent held it is
        passed over: no unexpired certificate is left for it to matter to.
        """
        while runtime.provability_cursor < len(self.pending):
            entry = self.pending[runtime.provability_cursor]
            replica = runtime.agent.replica_for(entry.stream)
            if replica is not None and replica.size >= entry.cumulative_size:
                lag = available_at - entry.event_time
                runtime.max_lag_seconds = max(runtime.max_lag_seconds, lag)
            elif entry.expires_at is None or available_at < entry.expires_at:
                break
            runtime.provability_cursor += 1
