"""Declarative scenario configuration.

A :class:`ScenarioConfig` is the complete, validated description of one
operational scenario: which workload drives the CA, how the deployment is
shaped (Δ, store engine, RA fleet), which faults are injected when, and which
optional study phases (victim handshakes, long-lived session, baseline
comparison) the runner should execute.

Configs are frozen dataclasses so a registered scenario can never be mutated
by a run; parameter sweeps go through :meth:`ScenarioConfig.with_overrides`
(and its ``--smoke`` specialisation :meth:`ScenarioConfig.smoke`), which
re-validates the copy.
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

from repro.cdn.geography import Region
from repro.errors import ConfigurationError
from repro.store import DEFAULT_ENGINE, ENGINES
from repro.workloads.streaming import StreamConfig

#: Fault kinds the runner knows how to inject (see :mod:`repro.scenarios.faults`).
FAULT_KINDS = (
    "tampered-batch",
    "ca-outage",
    "ra-restart",
    "replayed-head",
    "retired-key-forgery",
    "equivocating-ca",
    "region-outage",
)

#: Optional baseline schemes a scenario can compare itself against.
BASELINES = ("", "ocsp-stapling")

#: Workload shapes: a calibrated trace window or an explicit event script.
WORKLOAD_KINDS = ("trace", "scripted")

#: Named per-RA link profiles resolvable to :class:`repro.net.Link` shapes.
#: ``""`` disables link modelling (pull latency stays purely computational)
#: and ``stalled`` models a pathologically slow RA uplink.
LINK_PROFILES = ("", "lan", "metro", "wan", "stalled")

#: Profiles a ``link_overrides`` entry may name (a concrete shape, not the
#: empty default).
CONCRETE_LINK_PROFILES = LINK_PROFILES[1:]

#: Simulated Unix time a scripted scenario starts at.
SCENARIO_EPOCH = 1_400_000_000

#: The name of the one CA every scenario deploys.
SCENARIO_CA_NAME = "Scenario CA"


def _region_for(name: str) -> Region:
    """Resolve a region given either the enum name or its human value."""
    for region in Region:
        if name in (region.name, region.value):
            return region
    raise ConfigurationError(
        f"unknown region {name!r}; expected one of {[r.name for r in Region]}"
    )


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: what goes wrong, when, and for how long.

    Kinds:

    * ``tampered-batch`` — the issuance batch published in period
      ``at_period`` is replaced on the CDN with a forged copy (a decoy serial
      substituted), exercising the RA's verify → rollback → resync path;
    * ``ca-outage`` — the CA publishes nothing for ``duration_periods``
      periods; revocations issued meanwhile queue up and flush on recovery;
    * ``ra-restart`` — the targeted RA misses its pulls for
      ``duration_periods`` periods, then catches up.  By default the restart
      is *soft* (the process keeps its memory).  With ``crash=True`` the
      process dies: its in-memory replicas are lost and it resumes with a
      cold full resync from the CA — unless ``durable=True``, in which case
      it warm-starts from its last on-disk checkpoint and fetches only the
      delta since its last applied epoch (docs/STORAGE.md);
    * ``replayed-head`` — a compromised CDN re-presents the *oldest* head
      object of the run in place of the current one for ``duration_periods``
      periods; RAs must reject it as a replay (its signed root is older than
      theirs) with zero replica mutation (docs/THREATS.md);
    * ``retired-key-forgery`` — an attacker holding a rotated-out CA signing
      key republishes the current head re-signed under that retired key after
      its overlap window has expired; RAs must refuse the signature
      (requires :attr:`ScenarioConfig.key_rotation_periods`);
    * ``region-outage`` — at ``at_period`` the CDN presence of ``region``
      fails *and* every RA in that region crashes (durably — each keeps its
      last checkpoint).  For ``duration_periods`` periods surviving RAs
      absorb the region's client traffic (their DNS resolution fails over
      to the nearest healthy region).  On recovery the crashed RAs
      warm-start from their checkpoints and catch up peer-to-peer via
      RA→RA anti-entropy (docs/REPLICATION.md) instead of cold-syncing
      from the CA;
    * ``equivocating-ca`` — the CA plants a fully self-consistent forged
      universe (shadow dictionary, parallel signed root of the same size, its
      own freshness chain) at the CDN edges of one region, targeting the RA
      named by ``agent`` (default: the last agent).  The Δ gossip ring must
      produce signed misbehavior evidence within one round.
    """

    kind: str
    at_period: int
    duration_periods: int = 1
    #: RA name targeted by ``ra-restart``/``equivocating-ca``; empty selects
    #: the last agent.
    agent: str = ""
    #: ``ra-restart`` only: the restart loses the process's memory.
    crash: bool = False
    #: ``ra-restart`` + ``crash`` only: recover from an RA checkpoint
    #: instead of a cold resync.
    durable: bool = False
    #: ``region-outage`` only: the CDN/RA region that fails (enum name or
    #: human value).
    region: str = ""

    def __post_init__(self) -> None:
        """Validate the fault kind, timing fields, and restart mode."""
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.at_period < 0:
            raise ConfigurationError("fault at_period cannot be negative")
        if self.duration_periods < 1:
            raise ConfigurationError("fault duration_periods must be at least 1")
        if (self.crash or self.durable) and self.kind != "ra-restart":
            raise ConfigurationError(
                f"crash/durable restarts only apply to ra-restart faults, "
                f"not {self.kind!r}"
            )
        if self.durable and not self.crash:
            raise ConfigurationError(
                "durable=True models recovery from a crash; set crash=True too"
            )
        if self.kind == "region-outage":
            if not self.region:
                raise ConfigurationError("a region-outage fault must name its region")
            _region_for(self.region)  # resolve eagerly, like AgentSpec
            if self.agent:
                raise ConfigurationError(
                    "region-outage targets a whole region, not a named agent"
                )
        elif self.region:
            raise ConfigurationError(
                f"only region-outage faults take a region, not {self.kind!r}"
            )

    def geo_region(self) -> Region:
        """The resolved failed :class:`~repro.cdn.geography.Region`
        (``region-outage`` faults only)."""
        return _region_for(self.region)

    def covers(self, period: int) -> bool:
        """Whether the fault is active during ``period``."""
        return self.at_period <= period < self.at_period + self.duration_periods


@dataclass(frozen=True)
class RevocationEvent:
    """One scripted workload event: revoke ``count`` serials in a period.

    When ``revoke_victim`` is set the scenario's victim certificate (issued
    for :attr:`ScenarioConfig.victim_host`) is revoked in the same batch.
    """

    at_period: int
    count: int = 0
    revoke_victim: bool = False
    reason: str = "unspecified"

    def __post_init__(self) -> None:
        """Validate event timing and that the event actually does something."""
        if self.at_period < 0:
            raise ConfigurationError("event at_period cannot be negative")
        if self.count < 0:
            raise ConfigurationError("event count cannot be negative")
        if self.count == 0 and not self.revoke_victim:
            raise ConfigurationError("an event must revoke serials or the victim")


@dataclass(frozen=True)
class WorkloadSpec:
    """What the CA revokes over the scenario's timeline.

    Two kinds exist: ``trace`` replays a window of the calibrated synthetic
    revocation trace (:mod:`repro.workloads.revocation_trace`), scaled by
    ``ca_share``; ``scripted`` executes an explicit list of
    :class:`RevocationEvent` entries.
    """

    kind: str = "scripted"
    events: Tuple[RevocationEvent, ...] = ()
    #: ISO dates bounding the trace window (``trace`` kind only).
    trace_start: str = ""
    trace_end: str = ""
    #: Fraction of the global trace handled by the CA under study.
    ca_share: float = 1.0
    #: Seed for the deterministic serial-number pool.
    serial_seed: int = 404

    def __post_init__(self) -> None:
        """Validate the workload shape for its kind."""
        if self.kind not in WORKLOAD_KINDS:
            raise ConfigurationError(
                f"unknown workload kind {self.kind!r}; expected one of {WORKLOAD_KINDS}"
            )
        if not 0.0 < self.ca_share <= 1.0:
            raise ConfigurationError("ca_share must be in (0, 1]")
        if self.kind == "trace":
            if self.events:
                raise ConfigurationError("trace workloads cannot carry scripted events")
            start, end = self.trace_window()
            if start > end:
                raise ConfigurationError("trace_start must not be after trace_end")
        elif self.trace_start or self.trace_end:
            raise ConfigurationError("scripted workloads cannot set a trace window")

    def trace_window(self) -> Tuple[_dt.date, _dt.date]:
        """The (start, end) dates of a ``trace`` workload, parsed and checked."""
        if self.kind != "trace":
            raise ConfigurationError("only trace workloads have a trace window")
        try:
            start = _dt.date.fromisoformat(self.trace_start)
            end = _dt.date.fromisoformat(self.trace_end)
        except ValueError as exc:
            raise ConfigurationError(f"bad trace window date: {exc}") from None
        return start, end

    def max_event_period(self) -> int:
        """The latest period any scripted event fires in (-1 when none)."""
        return max((event.at_period for event in self.events), default=-1)


@dataclass(frozen=True)
class ClientStreamSpec:
    """The client-hello load served by the RA fleet.

    Declares a :class:`repro.workloads.streaming.StreamConfig`-shaped trace —
    Zipf site popularity, diurnal timing, certificate-lifetime mix — that the
    engine's ``ClientLoadActor`` walks in ``O(batch_size)`` memory.  With
    ``diurnal_amplitude=0.0`` the load is flat: every period gets an equal
    share of ``events_total``.
    """

    #: Distinct clients in the simulated population.
    clients: int
    #: Distinct sites ranked by Zipf popularity.
    sites: int
    #: Total client-hello events across the run.
    events_total: int
    #: Zipf popularity exponent.
    zipf_exponent: float = 1.1
    #: Diurnal intensity swing (must stay below 1.0).
    diurnal_amplitude: float = 0.7
    #: Events buffered per compact-array batch (the memory knob).
    batch_size: int = 8192
    #: Seed for the stream (independent of the engine's ``rng_seed`` so the
    #: trace is stable under scheduling-seed sweeps).
    seed: int = 404

    def __post_init__(self) -> None:
        """Validate the stream shape eagerly, by building what it mirrors."""
        self.stream_config(duration_seconds=1)

    def stream_config(self, duration_seconds: int, start_time: float = 0.0) -> StreamConfig:
        """The :class:`StreamConfig` this spec declares, over one run window
        (its ``__post_init__`` is the validation: ``ConfigurationError``)."""
        return StreamConfig(
            duration_seconds=duration_seconds, start_time=start_time, **dataclasses.asdict(self)
        )


@dataclass(frozen=True)
class AgentSpec:
    """One Revocation Agent in the deployment: its name and CDN region."""

    name: str
    region: str = "EUROPE"

    def __post_init__(self) -> None:
        """Validate the agent name and resolve the region eagerly."""
        if not self.name:
            raise ConfigurationError("agent name cannot be empty")
        _region_for(self.region)

    def geo_region(self) -> Region:
        """The resolved :class:`~repro.cdn.geography.Region`."""
        return _region_for(self.region)


@dataclass(frozen=True)
class ScenarioConfig:
    """A complete scenario: deployment shape, workload, faults, and studies.

    Instances are immutable and fully validated at construction; the runner
    (:mod:`repro.scenarios.engine`) consumes them without further checks.
    """

    name: str
    title: str
    summary: str
    description: str
    delta_seconds: int
    agents: Tuple[AgentSpec, ...]
    workload: WorkloadSpec
    #: Number of Δ periods to simulate; must be 0 for ``trace`` workloads
    #: (the trace window and Δ determine the period count).
    duration_periods: int = 0
    faults: Tuple[FaultSpec, ...] = ()
    store_engine: str = DEFAULT_ENGINE
    #: When set, the runner issues a certificate for this host, runs a
    #: handshake before the workload and another after it.
    victim_host: str = ""
    #: Keep a TLS session open across the run and measure mid-session
    #: revocation detection (requires ``victim_host``).
    long_lived_session: bool = False
    #: Compare the observed attack window against a baseline scheme.
    baseline: str = ""
    #: Run the CA in expiry-split mode (§VIII "Ever-growing dictionaries"):
    #: revocations are routed into per-expiry-window shards, RAs prune whole
    #: shards once their window passes, and the runner tracks an unsharded
    #: oracle dictionary to compare verdicts and storage growth against.
    #: Composes with every other knob of a scripted scenario.
    sharded: bool = False
    #: Width of each expiry shard, in Δ periods (sharded mode only).
    shard_width_periods: int = 0
    #: Certificate-lifetime spread, in Δ periods: each revoked certificate's
    #: expiry falls 1..N periods after its revocation (sharded mode only).
    cert_lifetime_periods: int = 0
    #: CA key-rotation schedule in Δ refresh periods (0 = keys never
    #: rotate); threaded into :class:`~repro.ritm.config.RITMConfig`.
    key_rotation_periods: int = 0
    #: Grace window (in Δ periods) during which roots signed by a
    #: just-retired key still verify.  Must stay below
    #: ``key_rotation_periods`` when rotation is enabled.
    key_overlap_periods: int = 1
    #: Expand the declared agents into a fleet of this many RAs (0 keeps the
    #: declared agents as-is).  Clones cycle the declared specs and are named
    #: ``<template>-NNN``; see :meth:`effective_agents`.
    fleet_size: int = 0
    #: Phase offset between consecutive RAs' pulls, in seconds: agent ``i``
    #: pulls at ``head_time + i * stagger + jitter_i``.  Flattens the CA
    #: egress peak (the ``staggered-pulls`` scenario studies this).
    pull_stagger_seconds: float = 0.0
    #: Cap on the per-agent uniform jitter added to each pull time, drawn
    #: from the agent's seeded stream (see :attr:`rng_seed`).
    pull_jitter_seconds: float = 0.0
    #: Fleet-wide link profile (one of :data:`LINK_PROFILES`); ``""`` keeps
    #: pull latency purely computational as the serial runner did.
    link_profile: str = ""
    #: Per-agent link-profile overrides, keyed by effective agent name; each
    #: value must be a concrete profile (:data:`CONCRETE_LINK_PROFILES`).
    link_overrides: Mapping[str, str] = field(default_factory=dict)
    #: Master seed for the engine's scheduling draws (pull jitter, gossip
    #: ring ordering; the client stream has its own seed).  Two runs of the
    #: same config and seed produce byte-identical report JSON.
    rng_seed: int = 404
    #: The client status handshakes the fleet serves (see
    #: :class:`ClientStreamSpec`); ``None`` runs without client load.
    client_stream: "ClientStreamSpec | None" = None
    #: Every RA archives the batch objects it applies for peer relay
    #: (docs/REPLICATION.md), as a region-outage fault makes it do.
    segment_streaming: bool = False
    #: Field overrides applied by :meth:`smoke` for fast CI runs.
    smoke_overrides: Mapping[str, Any] = field(default_factory=dict)
    #: Labels for ``python -m repro list``.
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        """Cross-field validation of the whole scenario."""
        if not self.name:
            raise ConfigurationError("scenario name cannot be empty")
        if self.delta_seconds <= 0:
            raise ConfigurationError("delta_seconds must be positive")
        if not self.agents:
            raise ConfigurationError("a scenario needs at least one agent")
        names = [agent.name for agent in self.agents]
        if len(set(names)) != len(names):
            raise ConfigurationError("agent names must be unique")
        if self.store_engine not in ENGINES:
            raise ConfigurationError(
                f"unknown store engine {self.store_engine!r}; "
                f"available engines: {sorted(ENGINES)}"
            )
        if self.baseline not in BASELINES:
            raise ConfigurationError(
                f"unknown baseline {self.baseline!r}; expected one of {BASELINES}"
            )
        if self.workload.kind == "trace":
            if self.duration_periods != 0:
                raise ConfigurationError(
                    "trace workloads derive their duration from the trace window; "
                    "set duration_periods=0"
                )
        else:
            if self.duration_periods < 1:
                raise ConfigurationError("duration_periods must be at least 1")
            if self.workload.max_event_period() >= self.duration_periods:
                raise ConfigurationError("a workload event fires after the scenario ends")
            for fault in self.faults:
                if fault.at_period >= self.duration_periods:
                    raise ConfigurationError(
                        f"fault {fault.kind!r} at period {fault.at_period} "
                        f"starts after the scenario ends"
                    )
                if (
                    fault.kind == "region-outage"
                    and fault.at_period + fault.duration_periods
                    >= self.duration_periods
                ):
                    raise ConfigurationError(
                        "a region-outage must end before the scenario does "
                        "(the restored RAs need at least one period to catch "
                        "up from a peer)"
                    )
        effective_names = [spec.name for spec in self.effective_agents()]
        for fault in self.faults:
            if fault.kind in ("ra-restart", "equivocating-ca"):
                if fault.agent and fault.agent not in effective_names:
                    raise ConfigurationError(
                        f"{fault.kind} targets unknown agent {fault.agent!r}"
                    )
                if self.fleet_size and not fault.agent:
                    raise ConfigurationError(
                        f"{fault.kind} must name its target agent explicitly "
                        "when fleet_size expands the fleet (the implicit "
                        "'last agent' default is ambiguous across clones)"
                    )
            if fault.kind == "region-outage":
                failed = fault.geo_region()
                inside = [
                    spec for spec in self.effective_agents()
                    if spec.geo_region() == failed
                ]
                if not inside:
                    raise ConfigurationError(
                        f"region-outage fails {failed.name} but no agent is "
                        "deployed there"
                    )
                if len(inside) == len(self.effective_agents()):
                    raise ConfigurationError(
                        "region-outage would kill every agent; at least one "
                        "RA must survive in another region to absorb traffic "
                        "and serve anti-entropy"
                    )
            if fault.kind == "retired-key-forgery":
                if not self.key_rotation_periods:
                    raise ConfigurationError(
                        "a retired-key-forgery fault needs key_rotation_periods "
                        "(there is no retired key to forge with otherwise)"
                    )
                if fault.at_period <= self.key_rotation_periods + self.key_overlap_periods:
                    raise ConfigurationError(
                        "a retired-key-forgery fault must fire after the first "
                        "rotation's overlap window has expired "
                        f"(period > {self.key_rotation_periods + self.key_overlap_periods})"
                    )
            if fault.kind == "equivocating-ca":
                if len(self.agents) < 2:
                    raise ConfigurationError(
                        "an equivocating-ca fault needs at least two agents "
                        "(one honest view to gossip against)"
                    )
                target = fault.agent or self.agents[-1].name
                target_region = next(
                    a.geo_region() for a in self.agents if a.name == target
                )
                if all(
                    a.geo_region() == target_region
                    for a in self.agents
                    if a.name != target
                ):
                    raise ConfigurationError(
                        "equivocating-ca plants forged objects at the targeted "
                        "agent's CDN region; at least one honest agent must sit "
                        "in a different region"
                    )
        if self.long_lived_session and not self.victim_host:
            raise ConfigurationError("long_lived_session requires victim_host")
        if self.baseline and not self.victim_host:
            raise ConfigurationError("a baseline comparison requires victim_host")
        if self.key_rotation_periods < 0:
            raise ConfigurationError("key_rotation_periods cannot be negative")
        if self.key_rotation_periods:
            if self.key_overlap_periods < 1:
                raise ConfigurationError("key_overlap_periods must be at least 1")
            if self.key_overlap_periods >= self.key_rotation_periods:
                raise ConfigurationError(
                    "key_overlap_periods must be smaller than key_rotation_periods"
                )
        if self.sharded:
            if self.workload.kind != "scripted":
                raise ConfigurationError(
                    "sharded scenarios need a scripted workload (expiry churn "
                    "is derived from the period schedule)"
                )
            if self.shard_width_periods < 1:
                raise ConfigurationError(
                    "sharded scenarios need shard_width_periods >= 1"
                )
            if self.cert_lifetime_periods < 1:
                raise ConfigurationError(
                    "sharded scenarios need cert_lifetime_periods >= 1"
                )
        elif self.shard_width_periods or self.cert_lifetime_periods:
            raise ConfigurationError(
                "shard_width_periods/cert_lifetime_periods require sharded=True"
            )
        if self.fleet_size and self.fleet_size < len(self.agents):
            raise ConfigurationError(
                "fleet_size cannot be smaller than the declared agent list"
            )
        if len(set(effective_names)) != len(effective_names):
            raise ConfigurationError(
                "fleet expansion produced a clone name that collides with a "
                "declared agent; rename the declared agents"
            )
        if self.pull_stagger_seconds < 0.0:
            raise ConfigurationError("pull_stagger_seconds cannot be negative")
        if self.pull_jitter_seconds < 0.0:
            raise ConfigurationError("pull_jitter_seconds cannot be negative")
        worst_offset = (
            (len(effective_names) - 1) * self.pull_stagger_seconds
            + self.pull_jitter_seconds
        )
        if worst_offset >= self.delta_seconds:
            raise ConfigurationError(
                f"the worst-case pull offset ({worst_offset:.3f}s of stagger "
                f"plus jitter) must stay inside one Δ period "
                f"({self.delta_seconds}s) or pulls spill into the next head"
            )
        if self.link_profile not in LINK_PROFILES:
            raise ConfigurationError(
                f"unknown link profile {self.link_profile!r}; "
                f"expected one of {LINK_PROFILES}"
            )
        for agent_name, profile in self.link_overrides.items():
            if agent_name not in effective_names:
                raise ConfigurationError(
                    f"link override targets unknown agent {agent_name!r}"
                )
            if profile not in CONCRETE_LINK_PROFILES:
                raise ConfigurationError(
                    f"link override for {agent_name!r} names {profile!r}; "
                    f"expected one of {CONCRETE_LINK_PROFILES}"
                )

    # -- derived values ------------------------------------------------------------

    @property
    def soak_study(self) -> bool:
        """Whether the run closes with the soak study (docs/WORKLOADS.md):
        differential verdicts of every RA against an in-memory oracle, the
        stream generator's memory budget, and subsystem coverage.  It pins
        the batch archive under client load, so a run gets it exactly when
        its RAs archive batches while serving a client stream."""
        return self.client_stream is not None and self.segment_streaming

    def attack_window_seconds(self) -> int:
        """The paper's 2Δ bound for this scenario's Δ."""
        return 2 * self.delta_seconds

    def effective_agents(self) -> Tuple[AgentSpec, ...]:
        """The RA fleet after :attr:`fleet_size` expansion.

        With ``fleet_size`` unset this is exactly :attr:`agents`.  Otherwise
        the declared specs are kept (they anchor fault targets and study
        phases) and clones fill the fleet, cycling the declared specs for
        their regions and named ``<template>-NNN`` so fleet ordering — and
        with it every same-time scheduling decision — is deterministic.
        """
        if not self.fleet_size or self.fleet_size == len(self.agents):
            return self.agents
        fleet = list(self.agents)
        for index in range(self.fleet_size - len(self.agents)):
            template = self.agents[index % len(self.agents)]
            fleet.append(
                AgentSpec(name=f"{template.name}-{index:03d}", region=template.region)
            )
        return tuple(fleet)

    # -- copies --------------------------------------------------------------------

    def with_overrides(self, **overrides: Any) -> "ScenarioConfig":
        """A re-validated copy with the given fields replaced.

        ``workload`` may be given as a dict of :class:`WorkloadSpec` field
        overrides instead of a full spec, and ``client_stream`` likewise as a
        dict of :class:`ClientStreamSpec` field overrides.
        """
        if isinstance(overrides.get("workload"), Mapping):
            overrides = dict(overrides)
            overrides["workload"] = dataclasses.replace(
                self.workload, **overrides["workload"]
            )
        if (
            isinstance(overrides.get("client_stream"), Mapping)
            and self.client_stream is not None
        ):
            overrides = dict(overrides)
            overrides["client_stream"] = dataclasses.replace(
                self.client_stream, **overrides["client_stream"]
            )
        return dataclasses.replace(self, **overrides)

    def smoke(self) -> "ScenarioConfig":
        """The scaled-down variant used by ``--smoke`` runs and CI."""
        if not self.smoke_overrides:
            return self
        return self.with_overrides(**dict(self.smoke_overrides))
