"""Hot-path verification engine: cold vs warm read-path latency (§VII).

The paper's core pitch is that revocation checking is cheap enough to sit on
the TLS handshake path at CDN scale.  This bench measures what the
``repro.perf`` engine buys on the read path and emits the repo's first
machine-readable perf baseline, ``benchmarks/results/handshake_hotpath.json``:

* **cold vs warm end-to-end handshakes** — a fresh client verifying the
  server chain and the status root from scratch, vs a client whose
  verified-root / chain-validation caches are warm and an RA whose proof
  cache holds the serial (session resumption / flash-crowd shape);
* **cold vs warm status verification** — the client-side
  ``RevocationStatus.verify`` with and without the
  :class:`~repro.perf.root_cache.VerifiedRootCache`;
* **cold vs warm proof building** — the RA-side Merkle audit path,
  recomputed vs served from the :class:`~repro.perf.proof_cache.ProofCache`;
* **Ed25519 itself** — one signature, one verification under a never-seen
  key (its comb table is built) vs under a cached key, one forged signature,
  and the cached-key verification in units of a field multiplication timed
  in the same process (the gate against a lost fast path or a shrunk table);
* **wire once** — the RA's DPI of a server flight whose chain it has never
  seen vs one it has parsed before, and the encoding of a status whose proof
  was just built vs one the proof cache already holds (its bytes retained);
* **one pass per packet** — interpreter calls per warm handshake under
  ``cProfile`` (a count, so it reads the same on a slow box as on a fast one),
  the share of them inside the RA's ``process_packet``, and among them the
  status decodes and Merkle checks (none: the client's status memo answers a
  record it has seen) and the RA's status encodes (none: it keeps the bytes
  per signed root);
* **one search, one climb** — interpreter calls and key searches per
  ``store.prove`` of an absent and of a revoked serial, and calls into
  ``repro.store`` when the proof cache answers (none);
* **cache hit rates** — per layer, including the CDN edge object cache
  under a same-region RA fleet pulling with a nonzero TTL.

CI uploads the JSON artifact and fails tier-1 when a cache is silently
disabled — which it reads off *counts*: Ed25519 verifications per cold and per
warm handshake (3 and 0) and per status verification without and with the
root cache (1 and 0).  Every ms/µs figure and every ``warm_speedup`` is
reported; nothing timed is asserted.  See docs/PERFORMANCE.md for how to read
the artifact.
"""

from __future__ import annotations

import cProfile
import statistics
import time
from dataclasses import replace

from repro.cdn.geography import GeoLocation, Region
from repro.cdn.network import CDNNetwork
from repro.crypto import ed25519 as ed25519_module  # `ed25519` names a result block below
from repro.crypto.ed25519 import P as FIELD_PRIME
from repro.crypto.merkle import AbsenceProof, PresenceProof
from repro.crypto.signing import KeyPair
from repro.net.clock import SimulatedClock
from repro.analysis.reporting import format_table
from repro.perf import VerifiedRootCache
from repro.pki.certificate import Certificate, CertificateChain
from repro.pki.serial import SerialNumber
from repro.ritm.agent import RevocationAgent
from repro.ritm.ca_service import RITMCertificationAuthority
from repro.ritm.config import RITMConfig
from repro.ritm.deployment import build_close_to_client_deployment
from repro.ritm.dissemination import attach_agent_to_cas
from repro.ritm.dpi import DPIEngine
from repro.ritm.messages import (
    _siblings,
    decode_status,
    encode_status,
    encode_status_bundle,
)
from repro.tls.connection import ChainValidationCache
from repro.tls.messages import CertificateMessage, ServerHello, ServerHelloDone
from repro.tls.records import ContentType, TLSRecord
from repro.workloads import serials_for_count
from repro.workloads.certificates import generate_corpus

from bench_harness import write_json_result, write_result

EPOCH = 1_400_000_000
#: Revoked serials in the CA's dictionary (a real tree, not a toy).
DICTIONARY_SIZE = 2_000
#: Revoked serials under the warm leaf's own issuer, so the status a warm
#: handshake carries is an absence proof with audit steps, not an empty tree.
LEAF_ISSUER_REVOKED = 8
COLD_HANDSHAKES = 6
WARM_HANDSHAKES = 24
VERIFY_REPS = 12
PROOF_REPS = 400
ED25519_KEYS = 12
DPI_CHAINS = 64
CALL_COUNT_HANDSHAKES = 200
#: Interpreter calls per warm handshake, every profiler row summed: 1,163
#: before the one-pass rewrite of the path engine and the TLS codecs, 834 after;
#: a lost Certificate-body memo or a re-introduced second parse of a flight
#: reads +90 to +290.  (``pstats.Stats(...).total_calls`` reads 1,085 and 766–771
#: for the same runs: it keys rows by (file, line, name), so the generated
#: dataclass methods sharing ``<string>:2`` overwrite one another, and which
#: survives follows import order.)
#: The ceiling is the exact count + 3 %.  Since this world's leaf issuer has
#: revoked ``LEAF_ISSUER_REVOKED`` serials, the warm status is an absence proof
#: with audit steps: 911 calls per handshake when the client decodes and
#: Merkle-checks it every time (one ``decode_status``, three proof
#: ``verify``), 751 with the status memo answering the repeat by lookup, 628
#: since the RA reads each packet by offset and encodes a status once per
#: signed root (``WARM_RA_CALLS_CEILING``), 630 since the endpoints' hello
#: and ticket parsers go through the offset readers the RA calls (the
#: ceiling stays, +2.5 %).
WARM_HANDSHAKE_CALLS_CEILING = 646
#: Of those, the calls inside ``RevocationAgent.process_packet`` (its four
#: packets): 238 while DPI built record, hello, extension and Finished objects,
#: the status was re-encoded on every visit and the flow table hashed a
#: dataclass per lookup; 115 after.  The exact count + 3 %.
WARM_RA_CALLS_CEILING = 118
#: Interpreter calls per ``store.prove`` of an absent serial with two
#: neighbours: 107 in this world (137 at 20,000 entries) with two bisects and
#: two whole walks, 48 (56) with one search and one climb above the fork;
#: 48.3 before and 33.2 after paths became sibling digests (no side, no
#: step object) and the right neighbour climbs only to the fork, the rest of
#: its path being the left one's.  The exact count + 3 % (it was 70).
PROOF_BUILD_CALLS_CEILING = 34
#: Encoded bytes of one status in this world (2,000 entries, 20-byte digests,
#: 11-step paths) for an absent serial (two neighbours) and a revoked one:
#: 787 and 491 while every audit step carried a side byte and a length and
#: each neighbour its own index, size and step count; 514 and 457 with the
#: siblings alone, the two neighbours' shared steps sent once; 471 and 414
#: with the CA name, the serial and the statement's name and size sent only
#: where the root and the proof already carry them (and no frames).  Exact.
STATUS_BYTES_ABSENT, STATUS_BYTES_PRESENT = 471, 414
#: Interpreter calls per decode of an absent status (mean over the probes):
#: 130 while the decoder read a side and a length per step, 119 with the
#: path's shape derived from its position, 88 with the status's three parts
#: unframed, 84.2 before and 69.0 after paths became sibling digests (a
#: slice each, no side list).  The exact count + 3 % (it was 130).
STATUS_DECODE_CALLS_CEILING = 71


def build_world():
    """A root CA with a populated dictionary, the leaf's issuer with a few
    revocations, a synced RA, and a TLS corpus."""
    config = RITMConfig(delta_seconds=10, chain_length=64, cdn_ttl_seconds=10.0)
    corpus = generate_corpus(
        ca_count=1, domains_per_ca=1, use_intermediates=True, now=EPOCH
    )
    cdn = CDNNetwork()
    cas = []
    for authority in corpus.authorities:
        ca = RITMCertificationAuthority(authority, config, cdn)
        ca.bootstrap(now=EPOCH + 1)
        cas.append(ca)
    pool = [
        SerialNumber(value)
        for value in serials_for_count(DICTIONARY_SIZE + 40, seed=0xBEEF)
    ]
    revoked, probes = pool[:DICTIONARY_SIZE], pool[DICTIONARY_SIZE:]
    cas[0].revoke(revoked, now=EPOCH + 2, reason="hotpath-bench")
    leaf = corpus.chains[0].leaf
    assert leaf.serial not in probes
    issuer = next(ca for ca in cas if ca.name == leaf.issuer)
    issuer.revoke(probes[:LEAF_ISSUER_REVOKED], now=EPOCH + 2, reason="hotpath-bench")
    agent = RevocationAgent("bench-ra", config)
    attach_agent_to_cas(agent, cas, cdn, GeoLocation(Region.EUROPE)).pull(now=EPOCH + 3)
    return config, corpus, cas, cdn, agent, probes


def _verifies_while(operation):
    """Ed25519 verifications ``operation()`` runs: ``ed25519.verify`` (what every
    key object calls) is wrapped for exactly that long."""
    real, calls = ed25519_module.verify, []

    def counted(public, message, signature):
        calls.append(public)
        return real(public, message, signature)

    ed25519_module.verify = counted
    try:
        operation()
    finally:
        ed25519_module.verify = real
    return len(calls)


def _median_ms(samples):
    return round(statistics.median(samples) * 1e3, 4)


def _run_handshake(config, corpus, cas, agent, root_cache, validation_cache):
    deployment = build_close_to_client_deployment(
        server_chain=corpus.chains[0],
        trust_store=corpus.trust_store,
        ca_public_keys={ca.name: ca.public_key for ca in cas},
        config=config,
        agent=agent,
        clock=SimulatedClock(EPOCH + 5),
        root_cache=root_cache,
        validation_cache=validation_cache,
    )
    assert deployment.run_handshake()
    return deployment


def bench_handshakes(config, corpus, cas, agent):
    """Cold (fresh caches each time) vs warm (shared caches) handshakes.

    A cold client checks leaf, intermediate and the signed dictionary root; the
    world's very first one also verifies the root certificate's self-signature,
    which the trust store then recognises by its bytes.
    """
    first_contact = _verifies_while(
        lambda: _run_handshake(config, corpus, cas, agent, None, None)
    )
    cold = []
    for _ in range(COLD_HANDSHAKES):
        agent.proof_cache.clear()
        started = time.perf_counter()
        _run_handshake(config, corpus, cas, agent, None, None)
        cold.append(time.perf_counter() - started)

    root_cache = VerifiedRootCache(maxsize=config.root_cache_size)
    validation_cache = ChainValidationCache()
    agent.proof_cache.clear()
    _run_handshake(config, corpus, cas, agent, root_cache, validation_cache)  # prime
    warm = []
    for _ in range(WARM_HANDSHAKES):
        started = time.perf_counter()
        _run_handshake(config, corpus, cas, agent, root_cache, validation_cache)
        warm.append(time.perf_counter() - started)
    return {
        "cold_ms": _median_ms(cold),
        "warm_ms": _median_ms(warm),
        "warm_speedup": round(statistics.median(cold) / statistics.median(warm), 2),
        "first_contact_handshake_verifies": first_contact,
        "cold_handshake_verifies": _verifies_while(
            lambda: _run_handshake(config, corpus, cas, agent, None, None)
        ),
        "warm_handshake_verifies": _verifies_while(
            lambda: _run_handshake(config, corpus, cas, agent, root_cache, validation_cache)
        ),
    }, root_cache, validation_cache


def bench_status_verify(config, cas, agent, probe):
    """Client-side status verification with and without the root cache."""
    ca = cas[0]
    status = agent.build_status(ca.name, probe)
    now = EPOCH + 6
    cold = []
    for _ in range(VERIFY_REPS):
        started = time.perf_counter()
        assert status.is_acceptable(ca.public_key, now, config.delta_seconds)
        cold.append(time.perf_counter() - started)
    cache = VerifiedRootCache(maxsize=config.root_cache_size)
    assert status.is_acceptable(ca.public_key, now, config.delta_seconds, root_cache=cache)
    warm = []
    for _ in range(VERIFY_REPS * 4):
        started = time.perf_counter()
        assert status.is_acceptable(
            ca.public_key, now, config.delta_seconds, root_cache=cache
        )
        warm.append(time.perf_counter() - started)
    return {
        "cold_ms": _median_ms(cold),
        "warm_ms": _median_ms(warm),
        "warm_speedup": round(statistics.median(cold) / statistics.median(warm), 2),
        "status_verify_verifies_cold": _verifies_while(
            lambda: status.is_acceptable(ca.public_key, now, config.delta_seconds)
        ),
        "status_verify_verifies_warm": _verifies_while(
            lambda: status.is_acceptable(
                ca.public_key, now, config.delta_seconds, root_cache=cache
            )
        ),
    }


def bench_proof_build(cas, agent, probes):
    """RA-side Merkle path construction vs the proof cache."""
    ca = cas[0]
    replica = agent.replica_for(ca.name)
    probes = probes[:20]
    cold = []
    for _ in range(PROOF_REPS // len(probes)):
        for probe in probes:
            started = time.perf_counter()
            replica.prove(probe)
            cold.append(time.perf_counter() - started)
    for probe in probes:  # prime the cache
        agent.build_status(ca.name, probe)
    warm = []
    for _ in range(PROOF_REPS // len(probes)):
        for probe in probes:
            started = time.perf_counter()
            agent.build_status(ca.name, probe)
            warm.append(time.perf_counter() - started)
    return {
        "cold_us": round(statistics.median(cold) * 1e6, 2),
        "warm_us": round(statistics.median(warm) * 1e6, 2),
        "warm_speedup": round(statistics.median(cold) / statistics.median(warm), 2),
    }


def _best_us(operation, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        operation()
        best = min(best, time.perf_counter() - started)
    return best * 1e6


def bench_ed25519():
    """Sign; verify under a never-seen key (table build), a cached key, a forgery.

    ``verify_hit_mulmods`` is the cached-key verification in units of one
    ``a*b % P`` on 255-bit operands, timed beside it so the machine's speed
    cancels: a gate on it reads the same on a slow box as on a fast one.  The
    walk's own ~630 field multiplications are most of it: 270 reduce by a
    division by P, 360 by the cheaper fold of 2^255 ≡ 19.  ``verify_miss_mulmods``
    is the first verification under a key, its comb-table build included, in
    the same unit.
    """
    signers = [KeyPair.generate(b"hotpath-ed25519-%d" % index) for index in range(ED25519_KEYS)]
    message = b"hot-path signed root payload"
    a, b = FIELD_PRIME - 12345, FIELD_PRIME // 3

    def thousand_mulmods():
        for _ in range(1000):
            a * b % FIELD_PRIME

    sign, miss, hit, reject, floor, hit_mulmods, miss_mulmods = [], [], [], [], [], [], []
    for keys in signers:
        signature = keys.sign(message)
        forged = signature[:-1] + bytes([signature[-1] ^ 1])
        sign.append(_best_us(lambda: keys.sign(message)))
        # First use of a key builds its comb table; every later one reads it.
        miss.append(_best_us(lambda: keys.public.verify(message, signature), repeats=1))
        hit.append(_best_us(lambda: keys.public.verify(message, signature)))
        floor.append(_best_us(thousand_mulmods))  # µs per thousand = ns per one
        hit_mulmods.append(hit[-1] * 1e3 / floor[-1])
        miss_mulmods.append(miss[-1] * 1e3 / floor[-1])
        reject.append(_best_us(lambda: keys.public.verify(message, forged)))
        assert keys.public.verify(message, signature)
        assert not keys.public.verify(message, forged)
    return {
        "keys": ED25519_KEYS,
        "sign_us": round(statistics.median(sign), 1),
        "verify_hit_us": round(statistics.median(hit), 1),
        "verify_miss_us": round(statistics.median(miss), 1),
        "verify_reject_us": round(statistics.median(reject), 1),
        "mulmod_floor_ns": round(statistics.median(floor), 1),
        "verify_hit_mulmods": round(statistics.median(hit_mulmods)),
        "verify_miss_mulmods": round(statistics.median(miss_mulmods)),
    }


def _calls_while(operation, arguments):
    """``{code object: call count}`` of everything run by ``operation`` over ``arguments``."""
    profile = cProfile.Profile()
    profile.enable()
    for argument in arguments:
        operation(argument)
    profile.disable()
    return {entry.code: entry.callcount for entry in profile.getstats()}


def _calls_inside(owner, name, operation, arguments):
    """``{code object: call count}`` of everything run *inside* ``owner.name``
    (the method itself included) while ``operation`` runs over ``arguments``."""
    profile = cProfile.Profile()
    method = getattr(owner, name)

    def profiled(*args, **kwargs):
        profile.enable()
        try:
            return method(*args, **kwargs)
        finally:
            profile.disable()

    setattr(owner, name, profiled)
    try:
        for argument in arguments:
            operation(argument)
    finally:
        setattr(owner, name, method)
    return {
        entry.code: entry.callcount
        for entry in profile.getstats()
        if entry.code != _PROFILER_DISABLE
    }


#: The profiler's own row for the ``disable()`` that ends each profiled call.
_PROFILER_DISABLE = "<method 'disable' of '_lsprof.Profiler' objects>"


def count_warm_handshake_calls(config, corpus, cas, agent, root_cache, validation_cache):
    """Interpreter calls (Python and C functions) one warm handshake makes, and
    how many of them decode a status, check a Merkle path or encode a status;
    the calls the RA makes in ``process_packet``; and the status encodes of
    one cold handshake."""

    def warm(_):
        _run_handshake(config, corpus, cas, agent, root_cache, validation_cache)

    def cold(_):
        agent.proof_cache.clear()
        _run_handshake(config, corpus, cas, agent, None, None)

    handshakes = range(CALL_COUNT_HANDSHAKES)
    calls = _calls_while(warm, handshakes)
    inside_ra = _calls_inside(RevocationAgent, "process_packet", warm, handshakes)
    merkle = (PresenceProof.verify.__code__, AbsenceProof.verify.__code__)
    return {
        "warm_handshake_calls": round(sum(calls.values()) / CALL_COUNT_HANDSHAKES, 1),
        "warm_ra_calls": round(sum(inside_ra.values()) / CALL_COUNT_HANDSHAKES, 1),
        "warm_handshake_status_decodes": calls.get(decode_status.__code__, 0),
        "warm_handshake_merkle_verifies": sum(calls.get(code, 0) for code in merkle),
        "warm_handshake_status_encodes": calls.get(encode_status.__code__, 0),
        "cold_handshake_status_encodes": _calls_while(cold, range(1)).get(
            encode_status.__code__, 0
        ),
    }


def count_proof_build_calls(cas, agent, probes):
    """Calls per ``store.prove`` (a proof-cache miss), into the store on a hit,
    and per decode of a two-neighbour status (the warm handshake decodes none:
    its client answers a status record seen before from the status memo)."""
    ca = cas[0]
    store = agent.replica_for(ca.name)._tree
    search = type(store)._search.__code__

    def per_prove(keys):
        calls = _calls_while(store.prove, keys)
        # Through the seam, and any bisect beside it would show as well.
        bisects = sum(n for code, n in calls.items() if "bisect_left" in str(code))
        return sum(calls.values()) / len(keys), max(calls[search], bisects) / len(keys)

    absent, absent_searches = per_prove([probe.to_bytes() for probe in probes])
    present, present_searches = per_prove(list(store.keys())[:: len(store) // len(probes)])
    for probe in probes:  # prime the cache
        agent.build_status(ca.name, probe)
    hits = _calls_while(lambda probe: agent.build_status(ca.name, probe), probes)
    statuses = [agent.build_status(ca.name, probe) for probe in probes]
    wires = [encode_status(status) for status in statuses]
    decodes = _calls_while(decode_status, wires)
    # Fewer than the siblings the decodes read (each left path alone, 440):
    # a Python function run once per sibling is called at least this often,
    # one run per field, leaf or proof far less (``_unpack_bytes``: 360).
    siblings = sum(len(status.proof.left.path) for status in statuses)
    revoked = SerialNumber.from_bytes(next(iter(store.keys())))
    return {
        "status_bytes_absent": len(wires[0]),
        "status_bytes_present": len(encode_status(agent.build_status(ca.name, revoked))),
        "status_decode_calls": round(sum(decodes.values()) / len(wires), 1),
        "status_decode_step_frames": sum(
            n for code, n in decodes.items() if not isinstance(code, str) and n >= siblings
        ),
        "proof_build_calls_absent": round(absent, 1),
        "proof_build_calls_present": round(present, 1),
        "key_searches_per_prove": max(absent_searches, present_searches),
        "store_calls_on_cache_hit": sum(
            n
            for code, n in hits.items()
            if "bisect" in str(code) or "/repro/store/" in getattr(code, "co_filename", "")
        ),
    }


def _timed_us(operation, arguments):
    samples = []
    for argument in arguments:
        started = time.perf_counter()
        operation(argument)
        samples.append(time.perf_counter() - started)
    return round(statistics.median(samples) * 1e6, 2)


def bench_wire_once(corpus, cas, agent, probes):
    """First sight vs seen before: DPI of a server flight, encoding of a status."""
    chain = corpus.chains[0]
    flights = []
    for index in range(DPI_CHAINS):  # distinct chains: every first inspect is a parse
        leaf = replace(chain.leaf, serial=SerialNumber(index + 1))
        messages = (
            ServerHello(),
            CertificateMessage(CertificateChain((leaf,) + chain.certificates[1:])),
            ServerHelloDone(),
        )
        flight = b"".join(message.to_bytes() for message in messages)
        flights.append(TLSRecord(ContentType.HANDSHAKE, flight).to_bytes())
    dpi = DPIEngine()
    inspect_first = _timed_us(dpi.inspect, flights)
    inspect_repeat = _timed_us(dpi.inspect, flights)
    counted = DPIEngine()
    parse = Certificate.from_bytes.__func__.__code__
    first_parses = _calls_while(counted.inspect, flights).get(parse, 0)
    repeat_parses = _calls_while(counted.inspect, flights).get(parse, 0)

    def fresh_bundles():
        agent.proof_cache.clear()  # fresh proof objects: nothing encoded yet
        return [[agent.build_status(cas[0].name, probe)] for probe in probes]

    bundles = fresh_bundles()
    encode_first = _timed_us(encode_status_bundle, bundles)
    encode_repeat = _timed_us(encode_status_bundle, bundles)
    bundles = fresh_bundles()
    walk = _siblings.__code__
    first_walks = _calls_while(encode_status_bundle, bundles).get(walk, 0)
    repeat_walks = _calls_while(encode_status_bundle, bundles).get(walk, 0)
    return {
        "chains": DPI_CHAINS,
        "inspect_first_us": inspect_first,
        "inspect_repeat_us": inspect_repeat,
        "inspect_first_certificate_parses": first_parses,
        "inspect_repeat_certificate_parses": repeat_parses,
        "status_encode_first_us": encode_first,
        "status_encode_repeat_us": encode_repeat,
        "status_encode_first_proof_walks": first_walks,
        "status_encode_repeat_proof_walks": repeat_walks,
    }


def bench_edge_cache(config, cas, cdn):
    """Edge object-cache hit rate for a same-region fleet pulling each Δ."""
    fleet = []
    for index in range(3):
        agent = RevocationAgent(f"fleet-ra-{index}", config)
        fleet.append(attach_agent_to_cas(agent, cas, cdn, GeoLocation(Region.EUROPE)))
    for period in range(3):
        now = EPOCH + 10 + period * config.delta_seconds
        for client in fleet:
            client.pull(now=now)
    edges = [edge for edge in cdn.all_edges() if edge.requests_served]
    hits = sum(edge.cache_hits for edge in edges)
    requests = sum(edge.requests_served for edge in edges)
    return {"hits": hits, "requests": requests, "hit_rate": round(hits / requests, 4)}


def test_handshake_hotpath():
    config, corpus, cas, cdn, agent, probes = build_world()

    handshake, root_cache, validation_cache = bench_handshakes(config, corpus, cas, agent)
    handshake.update(
        count_warm_handshake_calls(config, corpus, cas, agent, root_cache, validation_cache)
    )
    status_verify = bench_status_verify(config, cas, agent, probes[-1])
    proof_build = bench_proof_build(cas, agent, probes)
    proof_build.update(count_proof_build_calls(cas, agent, probes))
    ed25519 = bench_ed25519()
    dpi = bench_wire_once(corpus, cas, agent, probes)
    edge = bench_edge_cache(config, cas, cdn)

    payload = {
        "config": {
            "dictionary_size": DICTIONARY_SIZE,
            "delta_seconds": config.delta_seconds,
            "proof_cache_size": config.proof_cache_size,
            "root_cache_size": config.root_cache_size,
            "cold_handshakes": COLD_HANDSHAKES,
            "warm_handshakes": WARM_HANDSHAKES,
        },
        "handshake": handshake,
        "status_verify": status_verify,
        "proof_build": proof_build,
        "ed25519": ed25519,
        "dpi": dpi,
        "cache_hit_rates": {
            "agent_proof_cache": round(agent.proof_cache.stats.hit_rate(), 4),
            "client_root_cache": round(root_cache.stats.hit_rate(), 4),
            "chain_validation_cache": round(validation_cache.stats.hit_rate(), 4),
            "edge_object_cache": edge["hit_rate"],
        },
    }
    write_json_result("handshake_hotpath", payload)

    table = format_table(
        ["metric", "cold", "warm", "speedup"],
        [
            [
                "end-to-end handshake",
                f"{handshake['cold_ms']} ms",
                f"{handshake['warm_ms']} ms",
                f"{handshake['warm_speedup']}x",
            ],
            [
                "status verification (client)",
                f"{status_verify['cold_ms']} ms",
                f"{status_verify['warm_ms']} ms",
                f"{status_verify['warm_speedup']}x",
            ],
            [
                "proof build (RA)",
                f"{proof_build['cold_us']} us",
                f"{proof_build['warm_us']} us",
                f"{proof_build['warm_speedup']}x",
            ],
            [
                "Ed25519 verify (new key vs cached key)",
                f"{ed25519['verify_miss_us']} us",
                f"{ed25519['verify_hit_us']} us",
                f"{round(ed25519['verify_miss_us'] / ed25519['verify_hit_us'], 2)}x",
            ],
            [
                "DPI of a server flight (new chain vs seen chain)",
                f"{dpi['inspect_first_us']} us",
                f"{dpi['inspect_repeat_us']} us",
                f"{round(dpi['inspect_first_us'] / dpi['inspect_repeat_us'], 2)}x",
            ],
            [
                "status encoding (new proof vs cached proof)",
                f"{dpi['status_encode_first_us']} us",
                f"{dpi['status_encode_repeat_us']} us",
                f"{round(dpi['status_encode_first_us'] / dpi['status_encode_repeat_us'], 2)}x",
            ],
        ],
        title=f"Hot-path verification engine ({DICTIONARY_SIZE}-entry dictionary)",
    )
    write_result("handshake_hotpath", table)

    # The guard CI relies on against silently disabled caches, in signatures:
    # a fresh client verifies leaf, intermediate and the signed root (the
    # trust store recognises its own anchor after verifying it once: 4 then,
    # and 4 every time before the anchor was looked up), a warm one nothing.
    assert handshake["first_contact_handshake_verifies"] == 4, handshake
    assert handshake["cold_handshake_verifies"] == 3, handshake
    assert handshake["warm_handshake_verifies"] == 0, handshake
    assert status_verify["status_verify_verifies_cold"] == 1, status_verify
    assert status_verify["status_verify_verifies_warm"] == 0, status_verify
    # A proof-cache hit never reaches the store; a miss is one key search and,
    # for an absent serial (two neighbours), one climb above their fork.
    assert proof_build["store_calls_on_cache_hit"] == 0, proof_build
    assert proof_build["key_searches_per_prove"] == 1, proof_build
    assert proof_build["proof_build_calls_absent"] <= PROOF_BUILD_CALLS_CEILING, proof_build
    # ...and the decoder reads its siblings the way the store climbs: no
    # Python frame per sibling.
    assert proof_build["status_decode_step_frames"] == 0, proof_build
    assert proof_build["status_decode_calls"] <= STATUS_DECODE_CALLS_CEILING, proof_build
    # A proof on the wire is its siblings, each sent once.
    assert proof_build["status_bytes_absent"] == STATUS_BYTES_ABSENT, proof_build
    assert proof_build["status_bytes_present"] == STATUS_BYTES_PRESENT, proof_build
    # A cached key's verification, in field multiplications — which is also
    # what says the key table was not rebuilt (a rebuild reads ~7,800).
    # 742–812 as built (10-tooth base table, 8-tooth key tables, inner
    # products reduced by folding 2^255 ≡ 19); 870–925 with every product
    # reduced by a division by P, where 950–990 read with the base table back
    # at 8 teeth, 1,080–1,100 with the key tables back at 6, ~1,500 with R
    # decompressed for every signature.  With the fold an 8-tooth base table
    # reads 795–814, inside this bound.
    assert ed25519["verify_hit_mulmods"] <= 830, ed25519
    # First sight of a key, its 256-entry table build included: 7,670–8,170
    # as built (8,330–8,980 without the fold); ~12,200 with 9-tooth key
    # tables (~13,700 without the fold), ~5,100 with 6-tooth ones.
    assert ed25519["verify_miss_mulmods"] <= 10_000, ed25519
    # Seen before means looked up: no certificate is parsed and no audit path
    # is walked the second time, where the first time each one is.
    assert dpi["inspect_first_certificate_parses"] == 3 * DPI_CHAINS, dpi
    assert dpi["inspect_repeat_certificate_parses"] == 0, dpi
    assert dpi["status_encode_first_proof_walks"] >= len(probes), dpi
    assert dpi["status_encode_repeat_proof_walks"] == 0, dpi
    # A status record seen before is answered from the client's status memo:
    # neither decoded nor Merkle-checked again (its signature, freshness and
    # verdict still are, above and in tests/ritm/test_wire_memo.py).
    assert handshake["warm_handshake_status_decodes"] == 0, handshake
    assert handshake["warm_handshake_merkle_verifies"] == 0, handshake
    assert handshake["warm_handshake_calls"] <= WARM_HANDSHAKE_CALLS_CEILING, handshake
    # The RA encodes a status once per signed root: a cold handshake (its
    # proof cache cleared) encodes one, a repeat warm handshake appends the
    # live freshness statement to the bytes kept from the first.
    assert handshake["cold_handshake_status_encodes"] >= 1, handshake
    assert handshake["warm_handshake_status_encodes"] == 0, handshake
    assert handshake["warm_ra_calls"] <= WARM_RA_CALLS_CEILING, handshake
    for layer, rate in payload["cache_hit_rates"].items():
        assert rate > 0.0, (layer, payload["cache_hit_rates"])
