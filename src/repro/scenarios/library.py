"""The built-in scenario library.

Seventeen scenarios ship with the engine.  Four re-express the original
``examples/`` scripts (``quickstart``, ``heartbleed``, ``iot-long-lived``,
``ca-audit-gossip``); five are new workloads the declarative engine makes
cheap (``flash-crowd`` with a store-engine comparison, ``degraded-ra``
probing the attack window under missed pulls, ``tampered-cdn`` combining
a forged batch with a CA outage, ``sharded-longrun`` driving the §VIII
expiry-split deployment mode through a multi-quarter clock advance, and
``ra-crash-recovery`` comparing a durable RA's warm restart against a cold
full resync on the write-ahead-logged store engine); three form the
adversarial control-plane matrix of docs/THREATS.md (``replayed-head``
re-presenting captured signed state, ``rotated-ca-key`` driving scheduled
key rotation plus a retired-key forgery, and ``equivocating-ca`` planting a
split-world view at one region's CDN edges for the gossip ring to catch —
the same fault ``ca-audit-gossip`` aims at its victim's revocation);
three exercise the fleet engine's concurrency model
(``thundering-herd`` slamming an expanded jittered fleet plus client load
into one mass-revocation period, ``staggered-pulls`` spreading the fleet's
pull offsets across the period to flatten the CDN peak, and
``slow-ra-holb`` pinning one RA behind a stalled uplink to show the event
loop has no head-of-line blocking); and ``region-outage`` kills a whole
region mid-run — CDN edges and RAs alike — to prove the WAL-segment
replication stream and RA→RA anti-entropy recover the fleet without a
cold-sync storm at the CA origin (docs/REPLICATION.md).  Finally, ``soak``
streams a million-client Zipf/diurnal handshake trace through the fleet for
thirty simulated days on the durable-compact engine with steady-state
segment streaming, pinning differential verdicts against an in-memory
oracle and the generator's bounded-memory contract (docs/WORKLOADS.md).

Each scenario is a plain :class:`~repro.scenarios.config.ScenarioConfig`;
adding a new one is a ~30-line :func:`~repro.scenarios.registry.register`
call (see ``docs/SCENARIOS.md``).
"""

from __future__ import annotations

from repro.scenarios.config import (
    AgentSpec,
    ClientStreamSpec,
    FaultSpec,
    RevocationEvent,
    ScenarioConfig,
    WorkloadSpec,
)
from repro.scenarios.registry import register

QUICKSTART = register(
    ScenarioConfig(
        name="quickstart",
        title="Quickstart: revoke-and-reject in one Δ",
        summary=(
            "A complete CA → CDN → RA pipeline: the opening handshake is "
            "accepted, the server certificate is revoked mid-run, and the "
            "next handshake is rejected with a verifiable proof."
        ),
        description=(
            "Builds the paper's Fig. 1/Fig. 3 pipeline with one gateway RA. "
            "The CA bootstraps an empty dictionary, the RA pulls it, and a "
            "client handshake through the RA succeeds with a compact absence "
            "proof attached. At period 2 the CA revokes the server's serial; "
            "the RA picks the batch up on its next pull and the closing "
            "handshake is refused with reason certificate-revoked."
        ),
        delta_seconds=10,
        duration_periods=4,
        agents=(AgentSpec("gateway-ra", "EUROPE"),),
        workload=WorkloadSpec(
            kind="scripted",
            events=(RevocationEvent(at_period=2, revoke_victim=True, reason="key compromise"),),
        ),
        victim_host="shop.example",
        tags=("example", "handshake"),
    )
)

HEARTBLEED = register(
    ScenarioConfig(
        name="heartbleed",
        title="Heartbleed-scale mass revocation",
        summary=(
            "Replays the burst week (14-20 April 2014) of the calibrated "
            "revocation trace through a real CA + CDN + RA pipeline and "
            "measures dissemination volume and worst-case provability lag."
        ),
        description=(
            "The paper motivates RITM with catastrophic events such as "
            "Heartbleed (§I, §VII-A). Every Δ the CA batches the revocations "
            "issued in that period and publishes the batch plus a fresh head "
            "object; an ISP RA pulls every Δ and applies the updates. The "
            "report records how many revocations flowed, how many bytes the "
            "RA downloaded, and the worst time from 'CA revokes' to 'RA can "
            "prove it' — the dissemination lag that bounds the 2Δ attack "
            "window. ca_share is the fraction of the global burst handled by "
            "the CA under study (0.25 reproduces the paper's largest CA)."
        ),
        delta_seconds=3600,
        agents=(AgentSpec("isp-ra", "UNITED_STATES"),),
        workload=WorkloadSpec(
            kind="trace",
            trace_start="2014-04-14",
            trace_end="2014-04-20",
            ca_share=0.05,
        ),
        smoke_overrides={
            "delta_seconds": 21600,
            "workload": {"ca_share": 0.01},
        },
        tags=("example", "trace", "mass-revocation"),
    )
)

IOT_LONG_LIVED = register(
    ScenarioConfig(
        name="iot-long-lived",
        title="IoT long-lived connection: mid-session revocation",
        summary=(
            "Keeps a TLS session open for hours, revokes the server's "
            "certificate mid-session, and shows the client tearing the "
            "session down within 2Δ — versus the 4-day exposure of OCSP "
            "Stapling on the same timeline."
        ),
        description=(
            "The paper stresses that a revocation system must notify clients "
            "during established connections (§II, §V): an IoT device or VPN "
            "endpoint that keeps a session open for hours would otherwise "
            "keep talking to a revoked server. The RA piggybacks a fresh "
            "status on server traffic every Δ; the client enforces the 2Δ "
            "freshness window. The baseline section replays the same "
            "timeline against OCSP Stapling with a 4-day response lifetime."
        ),
        delta_seconds=30,
        duration_periods=240,
        agents=(AgentSpec("home-gateway-ra", "EUROPE"),),
        workload=WorkloadSpec(
            kind="scripted",
            events=(
                RevocationEvent(
                    at_period=40, revoke_victim=True, reason="device key extracted"
                ),
            ),
        ),
        victim_host="telemetry.iot.example",
        long_lived_session=True,
        baseline="ocsp-stapling",
        smoke_overrides={
            "duration_periods": 12,
            "workload": {
                "events": (
                    RevocationEvent(
                        at_period=4, revoke_victim=True, reason="device key extracted"
                    ),
                )
            },
        },
        tags=("example", "long-lived", "baseline"),
    )
)

CA_AUDIT_GOSSIP = register(
    ScenarioConfig(
        name="ca-audit-gossip",
        title="CA accountability: catching an equivocating CA",
        summary=(
            "A CA revokes the victim for one RA and, through the US CDN "
            "edges, serves campus-ra a doctored copy (the victim's revocation "
            "silently replaced by a decoy); the same period's gossip round "
            "produces portable cryptographic evidence of the equivocation."
        ),
        description=(
            "RITM keeps CAs accountable (§III 'Consistency Checking', §V "
            "'Misbehaving CA'): a CA that shows different dictionaries to "
            "different parts of the system must sign two conflicting roots "
            "of the same size. In period 1 the CA revokes the victim; the "
            "honest batch reaches isp-ra from the origin, while a forged "
            "batch with a parallel signed root reaches campus-ra through the "
            "US edges. The gossip ring's round between the two consistency "
            "checkers yields a misbehavior report that verifies under the "
            "CA's own keyring."
        ),
        delta_seconds=10,
        duration_periods=2,
        agents=(
            AgentSpec("isp-ra", "EUROPE"),
            AgentSpec("campus-ra", "UNITED_STATES"),
        ),
        workload=WorkloadSpec(
            kind="scripted",
            events=(
                RevocationEvent(
                    at_period=1, revoke_victim=True, reason="equivocation target"
                ),
            ),
        ),
        faults=(FaultSpec(kind="equivocating-ca", at_period=1, agent="campus-ra"),),
        victim_host="bank.example",
        tags=("example", "accountability", "gossip"),
    )
)

FLASH_CROWD = register(
    ScenarioConfig(
        name="flash-crowd",
        title="Flash-crowd revocation burst with store-engine comparison",
        summary=(
            "A sudden revocation burst (a compromised intermediate, a "
            "botched firmware batch) hits the CA; the same batch stream is "
            "replayed against every store engine to compare update cost and "
            "confirm byte-identical roots."
        ),
        description=(
            "Steady background revocations are interrupted by a burst three "
            "orders of magnitude larger in a single Δ. The main run uses the "
            "configured engine; afterwards the recorded batch stream is "
            "replayed against each engine in compare_engines, timing the "
            "insert+root cycle and asserting that all engines commit to the "
            "same root (the repro.store contract)."
        ),
        delta_seconds=60,
        duration_periods=8,
        agents=(
            AgentSpec("metro-ra", "EUROPE"),
            AgentSpec("exchange-ra", "JAPAN"),
        ),
        workload=WorkloadSpec(
            kind="scripted",
            events=(
                RevocationEvent(at_period=0, count=50, reason="background"),
                RevocationEvent(at_period=1, count=50, reason="background"),
                RevocationEvent(at_period=2, count=50, reason="background"),
                RevocationEvent(at_period=3, count=10_000, reason="flash crowd"),
                RevocationEvent(at_period=4, count=500, reason="aftershock"),
                RevocationEvent(at_period=6, count=50, reason="background"),
            ),
        ),
        compare_engines=("naive", "incremental", "durable"),
        smoke_overrides={
            "workload": {
                "events": (
                    RevocationEvent(at_period=0, count=20, reason="background"),
                    RevocationEvent(at_period=3, count=800, reason="flash crowd"),
                    RevocationEvent(at_period=4, count=50, reason="aftershock"),
                )
            },
        },
        tags=("burst", "engines"),
    )
)

DEGRADED_RA = register(
    ScenarioConfig(
        name="degraded-ra",
        title="Degraded RA: missed pulls stretch the attack window",
        summary=(
            "One RA restarts and misses six consecutive pulls while "
            "revocations keep flowing; its worst-case provability lag blows "
            "through the 2Δ bound while a healthy RA stays inside it."
        ),
        description=(
            "The 2Δ attack window (§V) assumes RAs actually pull every Δ. "
            "This scenario runs two RAs against a steady revocation stream "
            "and injects an ra-restart fault into one of them. The healthy "
            "RA's worst lag stays within the bound; the degraded RA's lag "
            "grows with the outage, quantifying the exposure a monitoring "
            "system must alarm on, and converges again after recovery."
        ),
        delta_seconds=60,
        duration_periods=16,
        agents=(
            AgentSpec("healthy-ra", "EUROPE"),
            AgentSpec("flaky-ra", "UNITED_STATES"),
        ),
        workload=WorkloadSpec(
            kind="scripted",
            events=tuple(
                RevocationEvent(at_period=period, count=20, reason="steady stream")
                for period in range(16)
            ),
        ),
        faults=(FaultSpec(kind="ra-restart", at_period=4, duration_periods=6, agent="flaky-ra"),),
        smoke_overrides={
            "duration_periods": 10,
            "workload": {
                "events": tuple(
                    RevocationEvent(at_period=period, count=10, reason="steady stream")
                    for period in range(10)
                )
            },
            "faults": (
                FaultSpec(kind="ra-restart", at_period=2, duration_periods=4, agent="flaky-ra"),
            ),
        },
        tags=("fault", "attack-window"),
    )
)

TAMPERED_CDN = register(
    ScenarioConfig(
        name="tampered-cdn",
        title="Hostile distribution: tampered batch + CA outage",
        summary=(
            "A batch on the CDN is forged (a decoy serial substituted under "
            "the honest signed root) and later the CA goes dark for two "
            "periods; the RA detects the tampering, resyncs, and converges "
            "once the backlog flushes."
        ),
        description=(
            "RITM's dissemination network is untrusted: edge caches can be "
            "compromised and origins can serve stale or forged objects. The "
            "RA verifies every batch against the CA-signed root, rolls back "
            "a tampered merge, and recovers the honest suffix through the "
            "sync protocol. A CA outage then queues revocations, which flush "
            "in one batch on recovery — the report's timeline shows both "
            "fault windows and the resync count."
        ),
        delta_seconds=30,
        duration_periods=10,
        agents=(AgentSpec("border-ra", "EUROPE"),),
        workload=WorkloadSpec(
            kind="scripted",
            events=(
                RevocationEvent(at_period=1, count=25, reason="routine"),
                RevocationEvent(at_period=2, count=25, reason="routine"),
                RevocationEvent(at_period=5, count=25, reason="issued during outage"),
                RevocationEvent(at_period=7, count=25, reason="routine"),
            ),
        ),
        faults=(
            FaultSpec(kind="tampered-batch", at_period=2),
            FaultSpec(kind="ca-outage", at_period=5, duration_periods=2),
        ),
        tags=("fault", "tamper", "outage"),
    )
)

RA_CRASH_RECOVERY = register(
    ScenarioConfig(
        name="ra-crash-recovery",
        title="RA crash recovery: durable warm restart vs cold resync",
        summary=(
            "Two RAs on the write-ahead-logged durable store engine crash "
            "in the same window; the one with an on-disk checkpoint "
            "warm-starts and fetches only the delta since its last applied "
            "epoch, while the cold one re-downloads the CA's whole batch "
            "history — and the warm RA is provably back inside the 2Δ "
            "bound first."
        ),
        description=(
            "RITM assumes RAs are long-lived middleboxes, but processes "
            "die: at the ROADMAP's millions-of-users scale a fleet-wide "
            "restart that cold-resyncs every replica from the CA is a "
            "resync storm the CDN bill and the attack window both pay for. "
            "This scenario drives a steady revocation stream against two "
            "RAs backed by the durable store engine (WAL + snapshots, "
            "docs/STORAGE.md). Both crash at the same period and stay down "
            "for the same window. durable-ra checkpoints its replicas, "
            "signed heads, and applied-batch cursors to disk and restores "
            "them on restart, so its recovery pull fetches only the "
            "batches issued while it was down; coldstart-ra loses its "
            "memory and re-fetches the entire batch history. The report "
            "compares recovery bytes and the time each RA re-entered the "
            "2Δ provability bound, and differentially checks every "
            "recovered verdict against an in-memory oracle dictionary."
        ),
        delta_seconds=30,
        duration_periods=16,
        agents=(
            AgentSpec("coldstart-ra", "UNITED_STATES"),
            AgentSpec("durable-ra", "EUROPE"),
        ),
        workload=WorkloadSpec(
            kind="scripted",
            events=tuple(
                RevocationEvent(at_period=period, count=40, reason="steady stream")
                for period in range(16)
            ),
        ),
        faults=(
            FaultSpec(
                kind="ra-restart",
                at_period=10,
                duration_periods=3,
                agent="durable-ra",
                crash=True,
                durable=True,
            ),
            FaultSpec(
                kind="ra-restart",
                at_period=10,
                duration_periods=3,
                agent="coldstart-ra",
                crash=True,
            ),
        ),
        store_engine="durable",
        smoke_overrides={
            "duration_periods": 10,
            "workload": {
                "events": tuple(
                    RevocationEvent(at_period=period, count=15, reason="steady stream")
                    for period in range(10)
                )
            },
            "faults": (
                FaultSpec(
                    kind="ra-restart",
                    at_period=6,
                    duration_periods=2,
                    agent="durable-ra",
                    crash=True,
                    durable=True,
                ),
                FaultSpec(
                    kind="ra-restart",
                    at_period=6,
                    duration_periods=2,
                    agent="coldstart-ra",
                    crash=True,
                ),
            ),
        },
        tags=("fault", "durability", "storage"),
    )
)

SHARDED_LONGRUN = register(
    ScenarioConfig(
        name="sharded-longrun",
        title="Ever-growing dictionaries: expiry shards bound RA storage",
        summary=(
            "A multi-quarter run with steady revocations and certificate "
            "expiry churn: the CA routes revocations into expiry shards, RAs "
            "delete whole shards as their windows pass, and RA storage "
            "plateaus while an unsharded oracle dictionary grows forever."
        ),
        description=(
            "The paper's §VIII relaxation for ever-growing dictionaries: a "
            "CA maintains one dictionary per expiry window, so an RA can "
            "reclaim a whole shard once every certificate in it has expired. "
            "The clock advances one week per Δ for 40 weeks; each revoked "
            "certificate expires 1-10 weeks later, shards are 6 weeks wide, "
            "and both sides prune every period. The runner feeds the same "
            "revocations to an unsharded oracle and checks that (a) RA "
            "storage is actually reclaimed, (b) every live serial gets the "
            "same proof verdict from the sharded replica as from the oracle, "
            "(c) proving a serial in a never-revoked window does not mutate "
            "shard state, and (d) the sharded RA footprint ends below the "
            "monotonically growing baseline."
        ),
        delta_seconds=7 * 86_400,
        duration_periods=40,
        agents=(AgentSpec("backbone-ra", "EUROPE"),),
        workload=WorkloadSpec(
            kind="scripted",
            events=tuple(
                RevocationEvent(at_period=period, count=25, reason="steady issuance")
                for period in range(40)
            ),
        ),
        sharded=True,
        shard_width_periods=6,
        cert_lifetime_periods=10,
        prune_every_periods=1,
        smoke_overrides={
            "duration_periods": 12,
            "shard_width_periods": 3,
            "cert_lifetime_periods": 4,
            "workload": {
                "events": tuple(
                    RevocationEvent(at_period=period, count=8, reason="steady issuance")
                    for period in range(12)
                )
            },
        },
        tags=("sharding", "storage", "longrun"),
    )
)

REPLAYED_HEAD = register(
    ScenarioConfig(
        name="replayed-head",
        title="Replay attack: a stale signed head re-presented on the CDN",
        summary=(
            "A compromised distribution point re-serves a head object "
            "captured periods earlier; the RA's replay window rejects the "
            "stale publication sequence outright and its replica is "
            "bit-for-bit untouched, then converges again on the next honest "
            "publication."
        ),
        description=(
            "The paper's §V replay attack: everything the CA publishes is "
            "signed, so the only thing a hostile CDN can do without forging "
            "signatures is re-present *old* signed state and freeze clients "
            "in the past. Every head carries a monotonic publication "
            "sequence; the RA keeps a per-CA cursor and treats anything more "
            "than replay_window publications behind it as an attack "
            "(ReplayError), not benign staleness. The injector captures the "
            "run's first head publication and republishes those exact bytes "
            "over the current head at period 5. The report pins three "
            "verdicts: the replay was rejected, the replica's size and root "
            "were not mutated by the rejected pull, and the fleet converged "
            "on the honest dictionary by the end of the run."
        ),
        delta_seconds=10,
        duration_periods=8,
        agents=(AgentSpec("border-ra", "EUROPE"),),
        workload=WorkloadSpec(
            kind="scripted",
            events=(
                RevocationEvent(at_period=0, count=10, reason="routine"),
                RevocationEvent(at_period=1, count=10, reason="routine"),
                RevocationEvent(at_period=2, count=10, reason="routine"),
                RevocationEvent(at_period=3, count=10, reason="routine"),
                RevocationEvent(at_period=6, count=10, reason="routine"),
            ),
        ),
        faults=(FaultSpec(kind="replayed-head", at_period=5),),
        tags=("fault", "adversarial", "replay"),
    )
)

ROTATED_CA_KEY = register(
    ScenarioConfig(
        name="rotated-ca-key",
        title="CA key rotation: scheduled epochs, overlap windows, and a "
        "retired-key forgery",
        summary=(
            "The CA rotates its dictionary-signing key every three periods; "
            "RAs learn each rotation from the signed announcement chain "
            "without missing a pull, a retired epoch's root verifies only "
            "inside its overlap window (cached and uncached alike), and a "
            "head forged with an extracted retired key is rejected."
        ),
        description=(
            "A single immortal signing key makes one key compromise fatal "
            "forever, so the CA rotates on a schedule: each rotation "
            "re-signs the dictionary under a fresh key and extends a "
            "key-announcement chain anchored at the genesis key, and the "
            "outgoing key stays acceptable for one overlap period so "
            "in-flight pulls and checkpoint restores keep verifying. RAs "
            "that hit an unverifiable head fetch the chain, validate it "
            "link by link, and retry once. The runner probes each retired "
            "epoch's root through the verified-root cache and against the "
            "raw keyring both inside and after the overlap window, and at "
            "period 5 an attacker who extracted the retired epoch-0 key "
            "republishes the current head re-signed under it — the "
            "time-scoped keyring refuses the signature and the fleet "
            "recovers on the next honest publication. The victim handshake "
            "closes the loop: revocation proofs still verify end-to-end "
            "three key epochs away from the genesis key."
        ),
        delta_seconds=10,
        duration_periods=12,
        agents=(AgentSpec("metro-ra", "EUROPE"),),
        workload=WorkloadSpec(
            kind="scripted",
            events=(
                RevocationEvent(at_period=1, count=8, reason="routine"),
                RevocationEvent(at_period=5, count=8, reason="routine"),
                RevocationEvent(
                    at_period=9, revoke_victim=True, reason="key compromise"
                ),
            ),
        ),
        victim_host="rotating.example",
        key_rotation_periods=3,
        key_overlap_periods=1,
        faults=(FaultSpec(kind="retired-key-forgery", at_period=5),),
        tags=("fault", "adversarial", "rotation"),
    )
)

EQUIVOCATING_CA = register(
    ScenarioConfig(
        name="equivocating-ca",
        title="Split-world equivocation caught by the always-on gossip ring",
        summary=(
            "A CA plants a fully self-consistent forged dictionary — same "
            "size, genuine signature, one revocation silently replaced — at "
            "one region's CDN edges; the targeted RA adopts it without a "
            "single verification error, and the same period's cross-RA "
            "gossip round produces signed, portable misbehavior evidence."
        ),
        description=(
            "The §V misbehaving-CA attack the local checks cannot stop: the "
            "forged universe is internally consistent (a shadow dictionary "
            "rebuilt from the honest batches with the victim serial swapped "
            "for a decoy, signed by the CA's real key, with its own valid "
            "freshness chain), so the targeted RA applies it cleanly and is "
            "blind to the hidden revocation. The forgery travels through "
            "the real dissemination path — planted at the targeted region's "
            "edge caches while the origin and every other region stay "
            "honest — and detection is the always-on consistency layer: "
            "every period each adjacent pair of RAs "
            "exchanges observed roots, and two same-size roots with "
            "different hashes are cryptographic proof of equivocation. The "
            "report pins that detection lands in the same period the "
            "forgery was planted and that the evidence verifies under the "
            "CA's own keyring."
        ),
        delta_seconds=10,
        duration_periods=2,
        agents=(
            AgentSpec("honest-ra", "EUROPE"),
            AgentSpec("branch-ra", "JAPAN"),
        ),
        workload=WorkloadSpec(
            kind="scripted",
            events=(
                RevocationEvent(at_period=0, count=4, reason="routine"),
                RevocationEvent(at_period=1, count=1, reason="ca key abuse"),
            ),
        ),
        faults=(FaultSpec(kind="equivocating-ca", at_period=1, agent="branch-ra"),),
        tags=("fault", "adversarial", "accountability", "gossip"),
    )
)

THUNDERING_HERD = register(
    ScenarioConfig(
        name="thundering-herd",
        title="Thundering herd: a jittered fleet absorbs a mass-revocation burst",
        summary=(
            "Twelve RAs across three regions pull a mass-revocation burst "
            "over WAN uplinks within a fraction of a second of each other "
            "while serving thousands of client status handshakes; the "
            "report pins that pulls genuinely overlapped and the whole "
            "fleet still converged inside the 2Δ bound."
        ),
        description=(
            "The fleet-engine stress case the serial runner could not "
            "express: a CA publishes a large batch and every RA in an "
            "expanded fleet races to fetch it at bin+Δ plus an independent "
            "seeded jitter draw, so the CDN sees a thundering herd rather "
            "than a lockstep queue. Mid-period, a client-load actor posts "
            "handshake batches into each RA's mailbox; RAs serve them "
            "against the pre-pull replica state (sampling Ed25519 root "
            "re-verification through the batch-verify path). The fleet "
            "block of the report records peak concurrent pulls, the "
            "overlap factor, and mailbox high-watermarks."
        ),
        delta_seconds=15,
        duration_periods=6,
        agents=(
            AgentSpec("edge-us", "UNITED_STATES"),
            AgentSpec("edge-eu", "EUROPE"),
            AgentSpec("edge-ap", "JAPAN"),
        ),
        workload=WorkloadSpec(
            kind="scripted",
            events=(
                RevocationEvent(at_period=0, count=60, reason="warmup"),
                RevocationEvent(at_period=1, count=2400, reason="mass compromise"),
                RevocationEvent(at_period=2, count=400, reason="aftershock"),
                RevocationEvent(at_period=4, count=40, reason="routine"),
            ),
        ),
        fleet_size=12,
        pull_jitter_seconds=0.25,
        link_profile="wan",
        client_handshakes=18_000,
        smoke_overrides={
            "fleet_size": 6,
            "client_handshakes": 3_000,
            "workload": {
                "events": (
                    RevocationEvent(at_period=0, count=30, reason="warmup"),
                    RevocationEvent(at_period=1, count=600, reason="mass compromise"),
                    RevocationEvent(at_period=2, count=100, reason="aftershock"),
                    RevocationEvent(at_period=4, count=20, reason="routine"),
                )
            },
        },
        tags=("fleet", "concurrency", "mass-revocation"),
    )
)

SOAK = register(
    ScenarioConfig(
        name="soak",
        title="Soak: a million streamed clients over thirty simulated days",
        summary=(
            "A six-RA fleet on the durable-compact engine serves a "
            "million-client Zipf/diurnal handshake stream for 30 simulated "
            "days of steady revocation churn, with RA pulls riding the WAL "
            "segment-replication transport; the report pins differential "
            "verdicts against an in-memory oracle, the generator's "
            "bounded-memory contract, and that every shipped subsystem was "
            "genuinely exercised."
        ),
        description=(
            "The ROADMAP's million-user north star as one long-run "
            "scenario. A streaming workload generator (docs/WORKLOADS.md) "
            "models one million clients visiting Zipf-distributed sites on "
            "a diurnal traffic curve; the client-load actor posts cursors "
            "into that trace, so each RA regenerates its slice in "
            "O(batch_size) memory — the fleet never materializes its "
            "client population. The CA revokes certificates every 3-hour Δ "
            "period (plus a mid-run mass-revocation burst) on the "
            "durable-compact store engine, and every RA pull streams "
            "verified WAL segments instead of bespoke batch objects. A "
            "per-period observer emits a memory/throughput timeline, and "
            "the closing study sweeps every revoked serial across every "
            "replica against an in-memory oracle. CI smoke-runs a "
            "scaled-down copy and re-asserts the pinned verdicts from the "
            "report artifact."
        ),
        delta_seconds=10_800,
        duration_periods=240,
        agents=(
            AgentSpec("soak-us", "UNITED_STATES"),
            AgentSpec("soak-eu", "EUROPE"),
            AgentSpec("soak-ap", "JAPAN"),
        ),
        workload=WorkloadSpec(
            kind="scripted",
            events=tuple(
                RevocationEvent(at_period=p, count=20, reason="steady churn")
                for p in range(240)
            )
            + (
                RevocationEvent(
                    at_period=120, count=2_000, reason="mass compromise"
                ),
            ),
        ),
        store_engine="durable-compact",
        segment_streaming=True,
        fleet_size=6,
        client_stream=ClientStreamSpec(
            clients=1_000_000,
            sites=40_000,
            events_total=150_000,
            zipf_exponent=1.1,
            diurnal_amplitude=0.7,
            batch_size=8192,
        ),
        smoke_overrides={
            "duration_periods": 24,
            "fleet_size": 3,
            "client_stream": {
                "clients": 150_000,
                "sites": 2_500,
                "events_total": 2_400,
                "batch_size": 512,
            },
            "workload": {
                "events": tuple(
                    RevocationEvent(at_period=p, count=10, reason="steady churn")
                    for p in range(24)
                )
                + (
                    RevocationEvent(
                        at_period=12, count=200, reason="mass compromise"
                    ),
                ),
            },
        },
        tags=("fleet", "soak", "streaming", "workloads"),
    )
)

STAGGERED_PULLS = register(
    ScenarioConfig(
        name="staggered-pulls",
        title="Staggered pulls: spreading the fleet flattens the CDN peak",
        summary=(
            "Eight RAs pull with a 2-second per-agent stagger instead of "
            "all at bin+Δ; the report pins that the peak pull concurrency "
            "drops below the fleet size while every agent's provability "
            "lag stays inside the 2Δ bound."
        ),
        description=(
            "The operational counterpart to thundering-herd: an operator "
            "who controls the fleet's pull offsets can trade a bounded "
            "extra per-agent lag (agent i pulls at bin+Δ+2i seconds) for a "
            "flat CDN load curve. The stagger rides the same event "
            "scheduler as everything else — pulls are genuinely distinct "
            "events, not a serialised loop — and the config validation "
            "guarantees the worst stagger offset still lands inside the "
            "period, so the 2Δ freshness contract is preserved by "
            "construction."
        ),
        delta_seconds=30,
        duration_periods=5,
        agents=(
            AgentSpec("pop-east", "UNITED_STATES"),
            AgentSpec("pop-west", "EUROPE"),
        ),
        workload=WorkloadSpec(
            kind="scripted",
            events=(
                RevocationEvent(at_period=0, count=50, reason="routine"),
                RevocationEvent(at_period=1, count=800, reason="batch compromise"),
                RevocationEvent(at_period=3, count=120, reason="routine"),
            ),
        ),
        fleet_size=8,
        pull_stagger_seconds=2.0,
        link_profile="metro",
        smoke_overrides={
            "duration_periods": 4,
            "workload": {
                "events": (
                    RevocationEvent(at_period=0, count=20, reason="routine"),
                    RevocationEvent(at_period=1, count=200, reason="batch compromise"),
                    RevocationEvent(at_period=3, count=40, reason="routine"),
                )
            },
        },
        tags=("fleet", "concurrency", "operations"),
    )
)

REGION_OUTAGE = register(
    ScenarioConfig(
        name="region-outage",
        title="Region outage: WAL-segment replication and RA→RA anti-entropy",
        summary=(
            "An entire region — CDN edges and both of its RAs — goes dark "
            "for four periods while revocations keep flowing; surviving "
            "regions absorb the failed-over traffic inside the 2Δ bound, "
            "and the restored RAs catch up peer-to-peer from archived WAL "
            "segments instead of cold-syncing from the CA origin."
        ),
        description=(
            "The replication story of docs/REPLICATION.md end to end: every "
            "RA runs in segment-streaming mode, so each pull ships the CA's "
            "signed, sequence-numbered WAL segments and leaves a verified "
            "segment archive behind. At the fault period the European "
            "region fails wholesale — its CDN presence is withdrawn (DNS "
            "fails surviving traffic over to the nearest healthy region) "
            "and every RA in the region crashes with its checkpoint on "
            "disk. Survivors keep pulling through neighbour edges and stay "
            "inside the 2Δ provability bound. When the region returns, "
            "each restored RA warm-starts from its checkpoint, ranks the "
            "survivors by regional proximity, and replays the missed "
            "segments from its nearest peer's archive — the CA origin "
            "never serves a full cold sync. The report differentially "
            "checks every restored verdict against an in-memory oracle and "
            "pins the CA-egress saving against the N-cold-syncs "
            "counterfactual."
        ),
        delta_seconds=30,
        duration_periods=16,
        agents=(
            AgentSpec("eu-frankfurt-ra", "EUROPE"),
            AgentSpec("eu-dublin-ra", "EUROPE"),
            AgentSpec("us-east-ra", "UNITED_STATES"),
            AgentSpec("ap-tokyo-ra", "JAPAN"),
        ),
        workload=WorkloadSpec(
            kind="scripted",
            events=tuple(
                RevocationEvent(at_period=period, count=30, reason="steady stream")
                for period in range(16)
            ),
        ),
        faults=(
            FaultSpec(
                kind="region-outage",
                at_period=6,
                duration_periods=4,
                region="EUROPE",
            ),
        ),
        store_engine="durable",
        smoke_overrides={
            "duration_periods": 10,
            "workload": {
                "events": tuple(
                    RevocationEvent(at_period=period, count=12, reason="steady stream")
                    for period in range(10)
                )
            },
            "faults": (
                FaultSpec(
                    kind="region-outage",
                    at_period=4,
                    duration_periods=3,
                    region="EUROPE",
                ),
            ),
        },
        tags=("fault", "replication", "fleet", "storage"),
    )
)

SLOW_RA_HOLB = register(
    ScenarioConfig(
        name="slow-ra-holb",
        title="Slow RA: a stalled uplink cannot head-of-line-block the fleet",
        summary=(
            "Three healthy RAs share the period with one RA behind a "
            "pathological 25-second uplink; the report pins that the "
            "healthy agents stay inside the 2Δ bound while the stalled "
            "agent alone blows past it."
        ),
        description=(
            "In a lockstep loop one slow puller delays everyone behind it; "
            "on the event scheduler each RA's pull is its own event, so a "
            "stalled uplink only stretches that agent's own "
            "availability time. The stalled link profile (25 s one-way at "
            "256 kbit/s) pushes one round trip past a full Δ period: the "
            "slow RA's dissemination lag lands far outside the 2Δ bound "
            "while the metro-linked rest of the fleet converges as usual — "
            "per-agent isolation the attack-window metrics make explicit."
        ),
        delta_seconds=20,
        duration_periods=5,
        agents=(
            AgentSpec("core-ra", "UNITED_STATES"),
            AgentSpec("metro-ra", "EUROPE"),
            AgentSpec("branch-ra", "JAPAN"),
            AgentSpec("slow-ra", "AUSTRALIA"),
        ),
        workload=WorkloadSpec(
            kind="scripted",
            events=(
                RevocationEvent(at_period=0, count=40, reason="routine"),
                RevocationEvent(at_period=1, count=300, reason="incident"),
                RevocationEvent(at_period=3, count=60, reason="routine"),
            ),
        ),
        link_profile="metro",
        link_overrides={"slow-ra": "stalled"},
        smoke_overrides={
            "duration_periods": 4,
        },
        tags=("fleet", "concurrency", "degraded"),
    )
)
