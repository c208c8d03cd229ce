"""CA egress under peer anti-entropy vs the cold-sync counterfactual.

Models the region-outage recovery (docs/REPLICATION.md) at fleet sizes 1,
10, and 50: N restored RAs catch up on a backlog of 20 batches by syncing
peer-to-peer from an already-caught-up survivor (each newly synced RA joins
the relay pool), while the counterfactual fleet would have each RA cold-sync
the full history straight from the CA's sync endpoint.

The headline assertion: at **every** fleet size the CA-origin bytes spent on
the replicated catch-up stay strictly below ``N x cold_sync_bytes`` — the
batch archives move the catch-up traffic onto the RA mesh, so the origin
cost of a mass restart no longer scales with the fleet.  Results land in
``benchmarks/results/replication_egress.json`` (plus a rendered ``.txt``).
"""

from __future__ import annotations

from bench_harness import write_json_result, write_result

from repro.analysis.reporting import format_table
from repro.cdn import CDNNetwork, GeoLocation
from repro.cdn.geography import Region
from repro.dictionary.sync import SyncRequest
from repro.pki import CertificationAuthority, SerialNumber
from repro.ritm import (
    RITMCertificationAuthority,
    RITMConfig,
    RevocationAgent,
    attach_agent_to_cas,
)
from repro.ritm.messages import encode_sync_response

#: Restored-fleet sizes, matching the fleet-scaling benchmark's points.
FLEET_SIZES = (1, 10, 50)

#: The backlog the restored RAs must catch up on: 20 batches of 5.
HISTORY_PERIODS = 20
PER_BATCH = 5


def _measure(fleet_size: int) -> dict:
    """Catch ``fleet_size`` restored RAs up via peer anti-entropy."""
    config = RITMConfig(delta_seconds=10, chain_length=64, store_engine="incremental")
    authority = CertificationAuthority("Egress CA", key_seed=b"replication-egress")
    cdn = CDNNetwork()
    ca = RITMCertificationAuthority(authority, config, cdn)
    ca.bootstrap(now=100)
    for period in range(HISTORY_PERIODS):
        ca.revoke(
            [
                SerialNumber(1000 + period * PER_BATCH + offset)
                for offset in range(PER_BATCH)
            ],
            now=120 + period * 10,
        )

    def attach(name, region):
        agent = RevocationAgent(name, config)
        client = attach_agent_to_cas(agent, [ca], cdn, GeoLocation(region))
        return agent, client

    # The survivor was disseminating normally before the outage, archiving
    # batch objects; its pull is steady-state cost, not part of the recovery bill.
    survivor, survivor_client = attach("survivor-ra", Region.UNITED_STATES)
    survivor_client.segment_streaming = True
    survivor_client.pull(now=400)
    survivor_root = survivor.replica_for(ca.name).root()

    agents = [survivor]
    relay_pool = [survivor_client]
    restored_names = []
    peer_bytes = serials_relayed = 0
    for index in range(fleet_size):
        name = f"restored-{index:02d}"
        restored_names.append(name)
        agent, client = attach(name, Region.EUROPE)
        agents.append(agent)
        # each restored RA pulls from the pool round-robin and then relays
        result = client.sync_from_peer(relay_pool[index % len(relay_pool)], now=500)
        assert result.cold_sync_fallbacks == 0
        assert result.batches_from_peer == HISTORY_PERIODS
        assert agent.replica_for(ca.name).root() == survivor_root
        peer_bytes += result.batch_bytes_downloaded
        serials_relayed += result.serials_applied
        relay_pool.append(client)

    replication_origin_bytes = sum(
        cdn.origin_bytes_by_source.get(name, 0) for name in restored_names
    )
    request = SyncRequest(ca_name=ca.name, have_count=0)
    cold_sync_bytes_each = len(encode_sync_response(ca.sync_server.serve(request)))
    for agent in agents:
        agent.close()
    ca.close()
    return {
        "fleet_size": fleet_size,
        "batches_per_ra": HISTORY_PERIODS,
        "serials_per_ra": serials_relayed // fleet_size,
        "ca_origin_bytes": replication_origin_bytes,
        "peer_bytes": peer_bytes,
        "cold_sync_bytes_each": cold_sync_bytes_each,
        "cold_sync_bytes_fleet": cold_sync_bytes_each * fleet_size,
    }


def test_replication_egress_beats_cold_sync_at_every_fleet_size():
    """Pin CA egress strictly below the N-cold-syncs counterfactual."""
    samples = [_measure(fleet_size) for fleet_size in FLEET_SIZES]
    payload = {
        "history_periods": HISTORY_PERIODS,
        "serials_per_batch": PER_BATCH,
        "samples": samples,
    }
    write_json_result("replication_egress", payload)

    rows = [
        (
            s["fleet_size"],
            s["ca_origin_bytes"],
            s["cold_sync_bytes_fleet"],
            s["peer_bytes"],
        )
        for s in samples
    ]
    text = format_table(
        ["restored RAs", "CA origin B (replication)", "CA origin B (N cold syncs)", "peer B"],
        rows,
        title=(
            f"region-outage catch-up egress ({HISTORY_PERIODS} batches, "
            f"{HISTORY_PERIODS * PER_BATCH} serials)"
        ),
    )
    write_result("replication_egress", text)

    for sample in samples:
        assert sample["ca_origin_bytes"] < sample["cold_sync_bytes_fleet"], (
            f"replicated catch-up cost the CA {sample['ca_origin_bytes']} B at "
            f"{sample['fleet_size']} RAs — not below the cold-sync "
            f"counterfactual {sample['cold_sync_bytes_fleet']} B"
        )
        assert sample["peer_bytes"] > 0  # the traffic moved to the RA mesh
