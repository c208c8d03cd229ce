"""The four RITM workloads: one Δ-period loop, four traffic shapes.

Every workload drives a closed loop — one operation in flight, one thread —
against a world built only through ``repro``'s public entry points.  A
simulated Δ period is, in order,

1. for ``fleet-soak`` only, one registered-scenario chunk through
   ``run_scenario``;
2. the **write path**: every other CA does its Δ ``refresh``, one issuing CA
   ``revoke``s a batch, the clock moves to the period end, the RA ``pull``s,
   and the RA builds the first status for a just-revoked serial
   (``revoke`` + ``pull`` + first status = *revoke → provable*);
3. the **status path**: ``RevocationAgent.build_status`` for serials that are
   half present, half absent, each verified with ``is_acceptable``;
4. the **handshake path**: full client → RA → server TLS handshakes through
   ``build_close_to_client_deployment(...).run_handshake()``, *cold* (fresh
   client, cleared proof cache, uniform domains) or *warm* (shared
   verified-root and chain caches, Zipf domains).

A workload (:class:`Plan`) is the path it is *for*, at full size, plus a
**probe slice** of the others — 2 to 15 per cent of the period's wall — because
the benchmark contract has every workload report every end-to-end metric.
The slice rides in every period, not in one pass up front: the sandbox's
speed drifts by tens of per cent from second to second, and a probe that
lasts one second reads whichever speed it met (README.md).

The operation plan of period ``p`` is a pure function of ``(seed, workload,
p)``.  Every run completes the **fixed window** — the first
``window_periods`` periods — however slow the machine, and every end-to-end
figure is read there, as a plain median, percentile or rate: a fixed number
of periods, at the same dictionary sizes in every run, however many more
periods the machine's speed lets into ``--seconds``.  The later periods are
run and checked against the oracle like the rest; the traced pass records its
spans in the first few of them.  Every timing is a lap of the benchmark's
reference clock (``bench/speed.py``), so it is stated at reference speed.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cdn.geography import GeoLocation, Region
from repro.cdn.network import CDNNetwork
from repro.net.clock import SimulatedClock
from repro.perf import VerifiedRootCache
from repro.pki.serial import SerialNumber
from repro.ritm import (
    RevocationAgent,
    RITMCertificationAuthority,
    RITMConfig,
    attach_agent_to_cas,
    build_close_to_client_deployment,
)
from repro.scenarios import RevocationEvent, get, run_scenario
from repro.tls.connection import ChainValidationCache
from repro.workloads.certificates import generate_corpus

from bench.speed import ReferenceClock
from bench.stats import highest_supported_percentile, percentile, tail_percentile
from bench.trace import OP_NAMES, Tracer

EPOCH = 1_400_000_000

#: ``encode_issuance`` packs the batch length into 16 bits and raises a bare
#: ``struct.error`` beyond it (README "known pitfalls"), so preload in chunks.
PRELOAD_CHUNK = 50_000

#: The leaf certificates revoked at set-up, by popularity rank: 5 % of the
#: hosts (their handshakes must be rejected; everyone else's accepted).
REVOKED_RANK_FIRST = 10
REVOKED_RANK_STRIDE = 20

ZIPF_EXPONENT = 1.1


@dataclass(frozen=True)
class Plan:
    """One workload: world size and the per-period operation mix."""

    name: str
    why: str
    issuing_cas: int
    #: Entries preloaded into each issuing CA's dictionary.
    dictionary_size: int
    domains: int
    #: Serials one issuing CA (round robin) revokes each period.
    revocations: int
    #: ``build_status`` calls per period, half present and half absent.
    status_builds: int
    handshakes: int
    #: Warm: shared client caches, Zipf popularity.  Cold: fresh client,
    #: cleared RA proof cache, uniform popularity.
    warm: bool
    #: The fixed window: periods every run completes, where every end-to-end
    #: metric is read.
    window_periods: int
    #: Periods the traced pass records spans for, right after the fixed window.
    trace_periods: int
    #: Registered scenario, one chunk of it ahead of every period; its engine
    #: and transport also configure the probe world.
    scenario: Optional[str] = None


PLANS: Dict[str, Plan] = {
    plan.name: plan
    for plan in (
        Plan(
            name="cold-handshake",
            why="First contact: fresh client, no caches, so chain and root Ed25519 "
            "verification dominates; the must-move workload for any crypto change.",
            issuing_cas=2,
            dictionary_size=20_000,
            domains=40,
            revocations=20,
            status_builds=600,
            handshakes=60,
            warm=False,
            window_periods=17,  # 1,020 handshakes: p99 has >= 10 samples beyond it
            trace_periods=4,
        ),
        Plan(
            name="warm-handshake",
            why="Flash crowd / resumption: shared root and chain caches bypass Ed25519, "
            "so TLS records, DPI, status codec and the path engine do the work; "
            "predicted unchanged by a crypto change.",
            issuing_cas=2,
            dictionary_size=20_000,
            domains=64,
            revocations=20,
            status_builds=1_000,
            handshakes=2_500,
            warm=True,
            window_periods=12,
            trace_periods=3,
        ),
        Plan(
            name="revocation-churn",
            why="Write path beside reads: 1,000 random-position inserts per period into a "
            "100,000-entry dictionary, then proofs on the cache-miss path; a store change "
            "trading inserts for proofs (or back) shows here.",
            issuing_cas=1,
            dictionary_size=100_000,
            domains=20,
            revocations=1_000,
            status_builds=200,
            handshakes=125,
            warm=True,
            window_periods=40,
            trace_periods=6,
        ),
        Plan(
            name="fleet-soak",
            why="The integrated path: the registered soak scenario (6 RAs, durable-compact, "
            "WAL segments, streamed clients) in chunks, plus the same probes on the "
            "soak's engine and transport; guards the 2-delta bound.",
            issuing_cas=1,
            dictionary_size=5_000,
            domains=20,
            revocations=20,
            status_builds=1_000,
            handshakes=500,
            warm=True,
            window_periods=8,
            trace_periods=2,
            scenario="soak",
        ),
    )
}

#: One scenario chunk: the registered ``soak`` at a twentieth of its length
#: (about 2 s), so that ``--seconds`` holds about ten of them.
SOAK_CHUNK_PERIODS = 12
SOAK_CHUNK_EVENTS = 7_500
SOAK_CHUNK_BURST = 100


def scenario_chunk(plan: Plan, seed: int):
    """The scenario config one chunk runs — registered defaults, scaled down."""
    events = tuple(
        RevocationEvent(at_period=p, count=20, reason="steady churn")
        for p in range(SOAK_CHUNK_PERIODS)
    ) + (
        RevocationEvent(
            at_period=SOAK_CHUNK_PERIODS // 2, count=SOAK_CHUNK_BURST, reason="mass compromise"
        ),
    )
    return get(plan.scenario).with_overrides(
        duration_periods=SOAK_CHUNK_PERIODS,
        client_stream={"events_total": SOAK_CHUNK_EVENTS},
        workload={"events": events},
        rng_seed=seed,
    )


def report_digest(report) -> str:
    """SHA-256 of the scenario report minus ``extras`` (which holds wall-clock)."""
    body = report.to_json_dict()
    del body["extras"]
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()


class World:
    """CAs with populated dictionaries, a CDN, one synced RA, a TLS corpus."""

    def __init__(self, plan: Plan, seed: int) -> None:
        self.plan = plan
        self.seed = seed
        rng = random.Random(f"{seed}:{plan.name}:world")
        self.segment_streaming = False
        if plan.scenario is None:
            self.config = RITMConfig()
        else:
            registered = get(plan.scenario)
            self.config = RITMConfig(
                delta_seconds=registered.delta_seconds, store_engine=registered.store_engine
            )
            self.segment_streaming = registered.segment_streaming
        self.delta = self.config.delta_seconds

        per_ca = -(-plan.domains // plan.issuing_cas)
        self.corpus = generate_corpus(
            ca_count=plan.issuing_cas,
            domains_per_ca=per_ca,
            use_intermediates=True,
            now=EPOCH,
            seed=rng.randrange(2**31),
        )
        self.chains = self.corpus.chains[: plan.domains]
        self.cdn = CDNNetwork()
        self.cas: Dict[str, RITMCertificationAuthority] = {}
        for authority in self.corpus.authorities:
            ca = RITMCertificationAuthority(authority, self.config, self.cdn)
            ca.bootstrap(now=EPOCH + 1)
            self.cas[ca.name] = ca
        self.issuing = [self.cas[name] for name in self.corpus.chains_by_ca]
        self.ca_public_keys = {name: ca.public_key for name, ca in self.cas.items()}

        # Fixed popularity ranks (10th, 30th, 50th, ...), not a random draw: a
        # rejected handshake is shorter than an accepted one, so the share of
        # traffic that meets a revoked host must not swing with the seed.
        revoked = self.chains[REVOKED_RANK_FIRST - 1 :: REVOKED_RANK_STRIDE]
        self.revoked_hosts = {chain.leaf.subject for chain in revoked}
        #: Serial values that may never be drawn again: every leaf, every
        #: revoked serial, every absent probe.
        self._used = {chain.leaf.serial.value for chain in self.corpus.chains}
        self._serial_rng = random.Random(f"{seed}:{plan.name}:serials")
        #: Revoked serials per issuing CA, for drawing present probes.
        self.present: Dict[str, List[SerialNumber]] = {ca.name: [] for ca in self.issuing}
        for ca in self.issuing:
            preload = [c.leaf.serial for c in revoked if c.leaf.issuer == ca.name]
            preload += self.fresh_serials(plan.dictionary_size - len(preload))
            for start in range(0, len(preload), PRELOAD_CHUNK):
                ca.revoke(preload[start : start + PRELOAD_CHUNK], now=EPOCH + 2, reason="preload")
            self.present[ca.name].extend(preload)

        self.agent = RevocationAgent("bench-ra", self.config)
        self.ra_client = attach_agent_to_cas(
            self.agent, list(self.cas.values()), self.cdn, GeoLocation(Region.EUROPE)
        )
        self.ra_client.segment_streaming = self.segment_streaming
        first_pull = self.ra_client.pull(now=EPOCH + 3)
        expected = plan.dictionary_size * len(self.issuing)
        if first_pull.errors or first_pull.serials_applied != expected:
            raise RuntimeError(
                f"set-up pull applied {first_pull.serials_applied}/{expected} serials, "
                f"errors {first_pull.errors}"
            )

        #: Client-side verdict memo for the status-path oracle (one Ed25519
        #: check per signed root instead of one per probe).
        self.verifier_cache = VerifiedRootCache(maxsize=self.config.root_cache_size)
        self.client_root_cache: Optional[VerifiedRootCache] = None
        self.client_chain_cache: Optional[ChainValidationCache] = None
        if plan.warm:
            self.client_root_cache = VerifiedRootCache(maxsize=self.config.root_cache_size)
            self.client_chain_cache = ChainValidationCache()
            weights = [1.0 / rank**ZIPF_EXPONENT for rank in range(1, len(self.chains) + 1)]
            self.cumulative_weights = list(itertools.accumulate(weights))
            for chain in self.chains:  # every domain once, untimed
                self.handshake(chain, EPOCH + 4)
        #: One accepted host per issuing CA: a visit to each re-verifies every
        #: signed root a pull replaced.
        self.one_host_per_ca = [
            next(
                chain
                for chain in self.chains
                if chain.leaf.issuer == ca.name and chain.leaf.subject not in self.revoked_hosts
            )
            for ca in self.issuing
        ]

    def fresh_serials(self, count: int) -> List[SerialNumber]:
        """``count`` never-before-drawn 3-byte serials (seeded, no ``hash()``)."""
        used, rng = self._used, self._serial_rng
        serials = []
        while len(serials) < count:
            value = rng.randrange(1, 256**3)
            if value not in used:
                used.add(value)
                serials.append(SerialNumber(value))
        return serials

    def handshake(self, chain, now: float) -> Tuple[bool, int]:
        """One full handshake on a fresh clock: (client accepted, wire bytes).

        The clock is per handshake on purpose: a shared one drifts past 2Δ
        and silently turns every later handshake into a stale-status reject.
        """
        deployment = build_close_to_client_deployment(
            server_chain=chain,
            trust_store=self.corpus.trust_store,
            ca_public_keys=self.ca_public_keys,
            config=self.config,
            agent=self.agent,
            clock=SimulatedClock(now),
            root_cache=self.client_root_cache,
            validation_cache=self.client_chain_cache,
        )
        accepted = deployment.run_handshake()
        return accepted, deployment.engine.total_wire_bytes()

    def close(self) -> None:
        """Release store I/O (the durable engines hold WAL handles)."""
        self.agent.close()
        for ca in self.cas.values():
            ca.close()


#: Operations at the head of a warm path that are run and checked but not
#: sampled.  The first one after a switch of paths reads 1.2 to 1.6 times the
#: period's median (cold CPU caches): one such sample per period is the top
#: 1 % of a hundred-operation slice.
UNSAMPLED_LEAD = 3


@dataclass
class Period:
    """The timing samples of one completed Δ period, at reference speed."""

    traced: bool
    issue_s: float
    apply_s: float
    first_proof_s: float
    status_s: List[float] = field(default_factory=list)
    handshake_s: List[float] = field(default_factory=list)
    #: Handshakes the period's scenario chunk served.
    chunk_events: int = 0
    #: The whole period: at reference speed, and as the wall clock read it.
    reference_wall_s: float = 0.0
    wall_s: float = 0.0

    @property
    def provable_s(self) -> float:
        return self.issue_s + self.apply_s + self.first_proof_s

    @property
    def events_per_s(self) -> float:
        """Handshakes answered — here and in the chunk — per second of the whole period."""
        return (len(self.handshake_s) + self.chunk_events) / self.reference_wall_s


class Recorder:
    """Per-period timing samples, fixed-window counters, and the operation tally."""

    def __init__(self) -> None:
        #: ``periods[p]`` is period ``p``: the loop stops at the first period
        #: that does not complete.
        self.periods: List[Period] = []
        self.scenario_digests: List[str] = []
        self.scenario_fleet: Dict[str, int] = {}
        # fixed window
        #: host → [wire bytes, handshakes]; averaged per host, then over hosts,
        #: so the figure does not swing with which host the seed made popular.
        self.wire: Dict[str, List[int]] = {}
        self.pull_bytes = 0
        self.pull_serials = 0
        self.lag_over_delta = 0.0
        self.peak_rss_mb = 0.0
        self.resyncs = 0
        # tally
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)


def run_scenario_chunk(world: World, rec: Recorder) -> Optional[int]:
    """One ``run_scenario`` chunk: the handshakes it served, or None if it raised."""
    config = scenario_chunk(world.plan, world.seed)
    try:
        report = run_scenario(config)
    except Exception:  # noqa: BLE001 - an exception is a failed operation, not a crash
        rec.fail(f"scenario chunk raised:\n{traceback.format_exc()}")
        return None
    fleet = report.metrics["fleet"]
    pulls = report.metrics["dissemination"]
    lag = report.metrics["attack_window"]["max_lag_seconds"] / config.delta_seconds
    rec.scenario_digests.append(report_digest(report))
    rec.scenario_fleet = {
        "scheduler_events": fleet["scheduler_events_processed"],
        "mailbox_depth_max": fleet["mailbox_depth_max"],
        "resyncs": pulls["resyncs"],
        "pull_bytes": pulls["bytes_downloaded"],
        "pull_serials": pulls["serials_applied"],
        "lag_over_delta": lag,
    }
    if not report.all_checks_passed:
        failed = [check.name for check in report.failed_checks()]
        rec.fail(f"scenario checks failed: {failed}")
    elif lag > 2.0:
        rec.fail(f"scenario provable lag {lag:.3f} delta exceeds the 2-delta bound")
    elif rec.scenario_digests[-1] != rec.scenario_digests[0]:
        rec.fail("scenario report digest changed between chunks of one run")
    return fleet["handshakes_served"]


def run_period(world: World, period: int, rec: Recorder, tracer: Optional[Tracer]) -> bool:
    """One Δ period of the plan; ``tracer`` is set only inside the trace window.

    False means the chunk or the write path raised: the world may be half
    updated, so the caller stops the run there.
    """
    plan = world.plan
    rng = random.Random(f"{world.seed}:{plan.name}:period:{period}")
    in_window = period < plan.window_periods
    clock = time.perf_counter
    started = clock()
    reference = ReferenceClock()
    delta = world.delta
    opens = EPOCH + 10 + period * delta
    closes = opens + delta
    ca = world.issuing[period % len(world.issuing)]

    def begin_operation() -> None:
        rec.attempted += 1
        if tracer is not None:
            tracer.request = rec.attempted

    def close_lap(lap: List[float], samples: List[float]) -> None:
        """State the lap's raw walls at reference speed and move them to ``samples``."""
        slowdown = reference.lap()
        samples.extend(wall / slowdown for wall in lap)
        lap.clear()

    chunk_events = 0
    if plan.scenario is not None:
        begin_operation()
        chunk_events = run_scenario_chunk(world, rec)
        if chunk_events is None:
            return False
        reference.lap()

    # -- write path ----------------------------------------------------------
    begin_operation()
    batch = world.fresh_serials(plan.revocations)
    try:
        for other in world.cas.values():
            if other is not ca:
                other.refresh(now=opens + 1)
        t0 = clock()
        ca.revoke(batch, now=opens + 1, reason="bench")
        t1 = clock()
        # The pull belongs at the period end: one issued earlier can
        # legitimately find nothing to apply.
        pulled = world.ra_client.pull(now=closes)
        t2 = clock()
        status = world.agent.build_status(ca.name, batch[0])
        t3 = clock()
    except Exception:  # noqa: BLE001
        rec.fail(f"period {period} write path raised:\n{traceback.format_exc()}")
        return False
    slowdown = reference.lap()
    world.present[ca.name].extend(batch)
    samples = Period(
        traced=tracer is not None,
        issue_s=(t1 - t0) / slowdown,
        apply_s=(t2 - t1) / slowdown,
        first_proof_s=(t3 - t2) / slowdown,
        chunk_events=chunk_events,
    )
    rec.resyncs += pulled.resyncs
    lag = (closes + pulled.latency_seconds - (opens + 1)) / delta
    if pulled.errors or pulled.serials_applied != plan.revocations:
        rec.fail(f"period {period} pull applied {pulled.serials_applied}, errors {pulled.errors}")
    elif not status.is_revoked or status.is_acceptable(
        ca.public_key, closes + 1, delta, root_cache=world.verifier_cache
    ):
        rec.fail(f"period {period}: just-revoked serial {batch[0]} not proven revoked")
    elif lag > 2.0:
        rec.fail(f"period {period}: provable lag {lag:.3f} delta exceeds the 2-delta bound")
    if in_window:
        rec.pull_bytes += pulled.bytes_downloaded
        rec.pull_serials += pulled.serials_applied
        rec.lag_over_delta = max(rec.lag_over_delta, lag)

    # -- status path -----------------------------------------------------------
    builds = plan.status_builds + UNSAMPLED_LEAD
    probes = [(serial, True) for serial in rng.sample(world.present[ca.name], builds // 2)]
    probes += [(serial, False) for serial in world.fresh_serials(builds - builds // 2)]
    rng.shuffle(probes)
    lap: List[float] = []
    for index, (serial, revoked) in enumerate(probes):
        begin_operation()
        try:
            t0 = clock()
            status = world.agent.build_status(ca.name, serial)
            t1 = clock()
            accepted = status.is_acceptable(
                ca.public_key, closes + 1, delta, root_cache=world.verifier_cache
            )
        except Exception:  # noqa: BLE001
            rec.fail(f"status for {serial} raised:\n{traceback.format_exc()}")
            continue
        if status.is_revoked != revoked or accepted == revoked:
            rec.fail(f"status for {serial}: revoked={status.is_revoked}, expected {revoked}")
        if index >= UNSAMPLED_LEAD:
            lap.append(t1 - t0)
    close_lap(lap, samples.status_s)

    # -- handshake path ----------------------------------------------------------
    if plan.warm:
        picks = rng.choices(
            world.chains,
            cum_weights=world.cumulative_weights,
            k=plan.handshakes + UNSAMPLED_LEAD,
        )
        # The pull replaced the signed roots, and the first warm client to meet
        # each pays an Ed25519 check (10 times the median).  Those visits lead
        # the path: checked, inside the period's wall and the trace, but
        # outside the latency sample.
        visits = [(chain, False) for chain in world.one_host_per_ca]
        visits += [(chain, index >= UNSAMPLED_LEAD) for index, chain in enumerate(picks)]
    else:
        # A cold handshake starts from nothing by construction: no lead.
        visits = [(chain, True) for chain in rng.choices(world.chains, k=plan.handshakes)]
    for chain, sampled in visits:
        begin_operation()
        if not plan.warm:
            world.agent.proof_cache.clear()
        try:
            t0 = clock()
            accepted, wire = world.handshake(chain, closes + 1)
            t1 = clock()
        except Exception:  # noqa: BLE001
            rec.fail(f"handshake to {chain.leaf.subject} raised:\n{traceback.format_exc()}")
            continue
        if accepted == (chain.leaf.subject in world.revoked_hosts):
            rec.fail(f"handshake to {chain.leaf.subject}: accepted={accepted}")
        if not sampled:
            continue
        lap.append(t1 - t0)
        if in_window:
            per_host = rec.wire.setdefault(chain.leaf.subject, [0, 0])
            per_host[0] += wire
            per_host[1] += 1
        if reference.lap_is_due():
            close_lap(lap, samples.handshake_s)
    close_lap(lap, samples.handshake_s)

    samples.reference_wall_s = reference.elapsed
    samples.wall_s = clock() - started
    rec.periods.append(samples)
    if period == plan.window_periods - 1:
        # Read here, not at exit: how many more periods fit into --seconds
        # (and grow the dictionary) depends on the machine's speed.
        rec.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return True


def run_loop(world: World, seconds: float, tracer: Optional[Tracer]) -> Recorder:
    """Run periods for ``seconds``, and at least the fixed windows.

    The fixed windows are the ``window_periods`` every run completes however
    slow the machine, then, in a traced pass, the ``trace_periods`` that
    record spans.  The loop ends when both are done and ``seconds`` are up —
    or at the first period whose chunk or write path raises.

    The cyclic collector is off while a period runs and collects between
    periods, outside every timing: left on, about one status build in 250
    triggers a collection and pays 40 to 340 times the median for it, which
    puts p99 on a slope no sample size steadies (README.md).  The world
    built at set-up is frozen out of those collections to keep them short.
    """
    plan = world.plan
    rec = Recorder()
    traced = range(plan.window_periods, plan.window_periods + plan.trace_periods)
    floor = traced.stop if tracer is not None else traced.start
    gc.collect()
    gc.freeze()
    gc.disable()
    started = time.perf_counter()
    try:
        for period in itertools.count():
            if period >= floor and time.perf_counter() - started >= seconds:
                break
            if tracer is not None and period == traced.start:
                tracer.install()
            active = tracer if tracer is not None and period in traced else None
            if not run_period(world, period, rec, active):
                break
            if tracer is not None and period == traced.stop - 1:
                tracer.uninstall()
            gc.collect()
    finally:
        if tracer is not None:
            tracer.uninstall()
        gc.enable()
        gc.unfreeze()
    return rec


def _median(samples: Sequence[float]) -> float:
    """Median, or 0 for a path that never completed (the run has failed by then)."""
    return statistics.median(samples) if samples else 0.0


def _p99(periods: Sequence[Sequence[float]]) -> float:
    periods = [samples for samples in periods if samples]
    return tail_percentile(periods, 99) if periods else 0.0


def _hit_rate(*stats) -> float:
    hits = sum(s.hits for s in stats)
    lookups = sum(s.hits + s.misses for s in stats)
    return hits / lookups if lookups else 0.0


def end_to_end_metrics(world: World, rec: Recorder, setup_s: float) -> Dict[str, float]:
    """The ten user-visible numbers of one untraced run.

    Every figure is read in the fixed window — a fixed number of periods at
    the same dictionary sizes in every run.  What a period yields once (its
    write path, its rates) is reported as the median over the window's
    periods; handshake and status walls as the median of the pooled samples.
    Their p99s are per-layer diagnostics (README "Tails").
    """
    window = rec.periods[: world.plan.window_periods]
    handshakes = [period.handshake_s for period in window]
    statuses = [period.status_s for period in window]
    if world.plan.scenario is None:
        pull_bytes, pull_serials = rec.pull_bytes, rec.pull_serials
        lag_over_delta = rec.lag_over_delta
    else:
        pull_bytes = rec.scenario_fleet.get("pull_bytes", 0)
        pull_serials = rec.scenario_fleet.get("pull_serials", 0)
        lag_over_delta = rec.scenario_fleet.get("lag_over_delta", 0.0)
    return {
        "setup_s": setup_s,
        "handshakes_per_s": _median([len(walls) / sum(walls) for walls in handshakes if walls]),
        "handshake_p50_ms": _median([wall for walls in handshakes for wall in walls]) * 1e3,
        "wire_bytes_per_handshake": (
            statistics.fmean(wire / count for wire, count in rec.wire.values()) if rec.wire else 0.0
        ),
        "revoke_to_provable_p50_ms": _median([period.provable_s for period in window]) * 1e3,
        "status_build_p50_us": _median([wall for walls in statuses for wall in walls]) * 1e6,
        "pull_bytes_per_revocation": pull_bytes / pull_serials if pull_serials else 0.0,
        "events_per_s": _median([period.events_per_s for period in window]),
        "provable_lag_over_delta": lag_over_delta,
        "peak_rss_mb": rec.peak_rss_mb,
    }


def per_layer_metrics(world: World, rec: Recorder, tracer: Tracer) -> Dict[str, float]:
    """Span totals of the trace window plus the run's counters and diagnostics."""
    metrics: Dict[str, float] = {}
    for op, (calls, self_s) in tracer.totals().items():
        metrics[f"{op}.calls"] = calls
        metrics[f"{op}.self_s"] = self_s
    edges = world.cdn.all_edges()
    edge_requests = sum(edge.requests_served for edge in edges)
    root_caches = [world.agent.root_cache.stats]
    if world.client_root_cache is not None:
        root_caches.append(world.client_root_cache.stats)
    # The diagnostics are timings too: take them where no wrapper was installed.
    untraced = [period for period in rec.periods if not period.traced]
    window = untraced[: world.plan.window_periods]
    untraced_handshakes = [x for period in untraced for x in period.handshake_s]
    traced = [period for period in rec.periods if period.traced]
    traced_wall = sum(period.wall_s for period in traced)
    # What the traced periods would have cost untraced: the median untraced period.
    expected = len(traced) * _median([period.reference_wall_s for period in untraced])
    metrics.update(
        {
            "perf.proof_cache.hit_rate": _hit_rate(world.agent.proof_cache.stats),
            "perf.root_cache.hit_rate": _hit_rate(*root_caches),
            "perf.chain_cache.hit_rate": (
                _hit_rate(world.client_chain_cache.stats) if world.client_chain_cache else 0.0
            ),
            "cdn.edge_cache.hit_rate": (
                sum(edge.cache_hits for edge in edges) / edge_requests if edge_requests else 0.0
            ),
            "net.scheduler_events": rec.scenario_fleet.get("scheduler_events", 0),
            "engine.mailbox_depth_max": rec.scenario_fleet.get("mailbox_depth_max", 0),
            "dissemination.resyncs": rec.resyncs + rec.scenario_fleet.get("resyncs", 0),
            "churn.issue_p50_ms": _median([period.issue_s for period in untraced]) * 1e3,
            "churn.apply_p50_ms": _median([period.apply_s for period in untraced]) * 1e3,
            "churn.first_proof_p50_ms": _median([p.first_proof_s for p in untraced]) * 1e3,
            "handshake_p99_ms": _p99([period.handshake_s for period in window]) * 1e3,
            "status_build_p99_us": _p99([period.status_s for period in window]) * 1e6,
            # The plain pooled tail, disturbed periods and all.
            "warm.tail_p99_ms": (
                percentile(untraced_handshakes, 99) * 1e3 if untraced_handshakes else 0.0
            ),
            # The first 48 bits of the digest: exact in a JSON number.
            "soak.report_digest": (
                int(rec.scenario_digests[0][:12], 16) if rec.scenario_digests else 0
            ),
            "trace.coverage": tracer.root_s / traced_wall if traced_wall else 0.0,
            "trace.overhead_ratio": (
                sum(period.reference_wall_s for period in traced) / expected if expected else 0.0
            ),
        }
    )
    return metrics


#: World builds per run; ``setup_s`` is their median.  A build lasts one to
#: three seconds, which is one machine phase: a single reading swung by a
#: quarter between two ten-seed studies of one code.
SETUP_BUILDS = 3


def build_world(plan: Plan, seed: int) -> Tuple[World, float]:
    """The world, and the median reference wall of building it ``SETUP_BUILDS`` times."""
    walls = []
    world = None
    for _ in range(SETUP_BUILDS):
        if world is not None:
            # Released before the next build, so peak RSS stays one world's.
            world.close()
            world = None
            gc.collect()
        reference = ReferenceClock()
        world = World(plan, seed)
        reference.lap()
        walls.append(reference.elapsed)
    return world, statistics.median(walls)


def run_workload(name: str, seed: int, seconds: float, trace: bool, span_path=None):
    """One run: (``{metric: value}``, recorder).

    With ``trace`` the metrics are the per-layer set, otherwise the
    end-to-end set.  Tracing is never on while an end-to-end number is taken.
    A run that could not complete its windows still returns every metric (0
    for what it never measured) with ``recorder.failed > 0``.
    """
    plan = PLANS[name]
    world, setup_s = build_world(plan, seed)
    tracer = Tracer() if trace else None
    rec = run_loop(world, seconds, tracer)
    world.close()
    for what in rec.failures:
        print(f"FAILED OPERATION: {what}", file=sys.stderr)
    sampled = sum(len(period.handshake_s) for period in rec.periods[: plan.window_periods])
    supported = highest_supported_percentile(sampled)
    if supported < 99.0:
        print(
            f"note: {sampled} handshake samples support p{supported:g} at most; "
            "handshake_p99_ms rests on fewer than 10 samples beyond it",
            file=sys.stderr,
        )
    if tracer is None:
        return end_to_end_metrics(world, rec, setup_s), rec
    if span_path is not None:
        tracer.write_spans(span_path)
    return per_layer_metrics(world, rec, tracer), rec


#: ``name → unit`` of every metric, in reporting order; BENCHMARK.json must
#: agree (bench/tests/test_contract.py).
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "handshakes_per_s": "1/s",
    "handshake_p50_ms": "ms",
    "wire_bytes_per_handshake": "B",
    "revoke_to_provable_p50_ms": "ms",
    "status_build_p50_us": "us",
    "pull_bytes_per_revocation": "B",
    "events_per_s": "1/s",
    "provable_lag_over_delta": "ratio",
    "peak_rss_mb": "MB",
}

DIAGNOSTIC_UNITS: Dict[str, str] = {
    "perf.proof_cache.hit_rate": "ratio",
    "perf.root_cache.hit_rate": "ratio",
    "perf.chain_cache.hit_rate": "ratio",
    "cdn.edge_cache.hit_rate": "ratio",
    "net.scheduler_events": "count",
    "engine.mailbox_depth_max": "count",
    "dissemination.resyncs": "count",
    "churn.issue_p50_ms": "ms",
    "churn.apply_p50_ms": "ms",
    "churn.first_proof_p50_ms": "ms",
    "handshake_p99_ms": "ms",
    "status_build_p99_us": "us",
    "warm.tail_p99_ms": "ms",
    "soak.report_digest": "id",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}

PER_LAYER_UNITS: Dict[str, str] = {
    **{f"{op}.calls": "count" for op in OP_NAMES},
    **{f"{op}.self_s": "s" for op in OP_NAMES},
    **DIAGNOSTIC_UNITS,
}

#: End-to-end metrics that are counts over a fixed op plan: identical for a seed.
EXACT_METRICS = ("wire_bytes_per_handshake", "pull_bytes_per_revocation", "provable_lag_over_delta")
