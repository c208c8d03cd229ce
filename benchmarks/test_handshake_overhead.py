"""§VII-D latency claim: RITM adds <1 % to a TLS connection establishment.

Benchmarks a complete RITM-supported handshake over the simulated
close-to-client path (client → gateway RA → server) and records the byte and
latency overhead the RA introduces, comparing it against the paper's 30 ms
reference handshake.
"""

from repro.cdn.geography import GeoLocation, Region
from repro.cdn.network import CDNNetwork
from repro.net.clock import SimulatedClock
from repro.analysis.reporting import format_table
from repro.ritm.agent import RevocationAgent
from repro.ritm.ca_service import RITMCertificationAuthority
from repro.ritm.config import RITMConfig
from repro.ritm.deployment import build_close_to_client_deployment
from repro.ritm.dissemination import attach_agent_to_cas
from repro.ritm.messages import encode_status
from repro.workloads.certificates import generate_corpus

from bench_harness import write_result

EPOCH = 1_400_000_000


def build_world():
    config = RITMConfig(delta_seconds=10, chain_length=64)
    corpus = generate_corpus(ca_count=1, domains_per_ca=1, use_intermediates=True, now=EPOCH)
    cdn = CDNNetwork()
    cas = []
    for authority in corpus.authorities:
        ca = RITMCertificationAuthority(authority, config, cdn)
        ca.bootstrap(now=EPOCH + 1)
        cas.append(ca)
    agent = RevocationAgent("bench-ra", config)
    attach_agent_to_cas(agent, cas, cdn, GeoLocation(Region.EUROPE)).pull(now=EPOCH + 2)
    return config, corpus, cas, agent


def test_ritm_supported_handshake(benchmark):
    config, corpus, cas, agent = build_world()

    def run_one():
        deployment = build_close_to_client_deployment(
            server_chain=corpus.chains[0],
            trust_store=corpus.trust_store,
            ca_public_keys={ca.name: ca.public_key for ca in cas},
            config=config,
            agent=agent,
            clock=SimulatedClock(EPOCH + 5),
        )
        accepted = deployment.run_handshake()
        assert accepted
        return deployment

    deployment = benchmark(run_one)

    status_bytes = len(encode_status(deployment.client.last_status))
    # Packets that crossed the RA during this handshake (both directions).
    packets_in_handshake = deployment.engine.packets_delivered
    processing = packets_in_handshake * agent.processing_delay(None)
    transmission = status_bytes / 12_500_000.0
    added_ms = (processing + transmission) * 1e3
    table = format_table(
        ["metric", "value", "paper"],
        [
            ["revocation status size", f"{status_bytes} B", "500-900 B (largest CRL)"],
            ["RA processing + extra bytes", f"{added_ms:.3f} ms", "< 0.3 ms (1% of 30 ms handshake)"],
            ["share of a 30 ms handshake", f"{added_ms / 30.0 * 100:.2f} %", "< 1 %"],
        ],
        title="RITM handshake overhead (close-to-client deployment)",
    )
    write_result("handshake_overhead", table)

    assert status_bytes < 2_000
    assert added_ms < 0.3
