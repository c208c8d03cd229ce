"""Same seed ⇒ same operations and same exact metrics, traced or not."""

import dataclasses

import pytest

from bench import workloads
from bench.trace import Tracer
from bench.workloads import PLANS, PRELOAD_CHUNK, UNSAMPLED_LEAD, Plan, World, run_loop

#: A seconds-scale stand-in with every phase of the real loop in it.
TINY = Plan(
    name="tiny",
    why="self-test",
    issuing_cas=2,
    dictionary_size=300,
    domains=12,  # the 10th most popular host is the revoked one
    revocations=5,
    status_builds=6,
    handshakes=3,
    warm=False,
    window_periods=2,
    trace_periods=1,
)


def run_tiny(seed, plan=TINY, traced=False):
    world = World(plan, seed)
    tracer = Tracer() if traced else None
    rec = run_loop(world, seconds=0.0, tracer=tracer)
    world.close()
    return world, rec, tracer


def exact_counters(rec):
    return (
        rec.wire,
        rec.pull_bytes,
        rec.pull_serials,
        rec.lag_over_delta,
    )


def test_same_seed_gives_the_same_plan_and_exact_metrics():
    world_a, rec_a, _ = run_tiny(seed=7)
    world_b, rec_b, _ = run_tiny(seed=7)
    assert rec_a.failed == 0, rec_a.failures
    assert world_a._used == world_b._used  # every serial drawn, in every role
    assert world_a.revoked_hosts == world_b.revoked_hosts
    assert {k: [s.value for s in v] for k, v in world_a.present.items()} == {
        k: [s.value for s in v] for k, v in world_b.present.items()
    }
    assert exact_counters(rec_a) == exact_counters(rec_b)
    # One write path, the statuses with their unsampled lead, the handshakes.
    per_period = 1 + UNSAMPLED_LEAD + TINY.status_builds + TINY.handshakes
    assert rec_a.attempted == rec_b.attempted == TINY.window_periods * per_period
    assert [len(period.status_s) for period in rec_a.periods] == [TINY.status_builds] * 2
    # An untraced loop's minimum is the fixed window.
    assert len(rec_a.periods) == TINY.window_periods
    assert sum(count for _, count in rec_a.wire.values()) == TINY.window_periods * TINY.handshakes
    assert rec_a.pull_serials == TINY.window_periods * TINY.revocations
    assert rec_a.peak_rss_mb > 0


def test_revoked_hosts_are_fixed_popularity_ranks():
    world, _, _ = run_tiny(seed=7)
    assert world.revoked_hosts == {world.chains[9].leaf.subject}


def test_another_seed_gives_another_plan():
    world_a, _, _ = run_tiny(seed=7)
    world_b, _, _ = run_tiny(seed=8)
    assert world_a._used != world_b._used


def test_traced_and_untraced_passes_agree_on_verdicts_and_exact_metrics():
    _, plain, _ = run_tiny(seed=11)
    _, traced, tracer = run_tiny(seed=11, traced=True)
    assert plain.failed == traced.failed == 0
    assert exact_counters(plain) == exact_counters(traced)
    # Spans were recorded for the trace window only, and then removed.
    assert [period.traced for period in traced.periods] == [False, False, True]
    assert tracer.totals()["net.path_send"][0] == TINY.handshakes
    assert tracer.totals()["ca_service.revoke"][0] == 1
    assert tracer._patches == []


def test_warm_plan_shares_client_caches_and_visits_every_domain_first():
    warm = dataclasses.replace(TINY, name="tiny-warm", warm=True, handshakes=12)
    world, rec, _ = run_tiny(seed=3, plan=warm)
    assert rec.failed == 0, rec.failures
    # Only the warm-up visits miss; the timed handshakes (bar the ones a
    # revoked status ends first) are answered from the shared cache.
    stats = world.client_chain_cache.stats
    assert stats.misses <= warm.domains
    assert stats.hits >= warm.handshakes * warm.window_periods * 0.9
    # Neither the set-up visit of every domain nor the visit that re-verifies
    # the roots after each pull is sampled.
    assert [len(period.handshake_s) for period in rec.periods] == [warm.handshakes] * 2


def test_oracle_counts_a_wrong_verdict_as_a_failed_operation():
    world = World(TINY, seed=5)
    # Lie to the oracle: claim every host is revoked, so accepted handshakes are "wrong".
    world.revoked_hosts = {chain.leaf.subject for chain in world.chains} - world.revoked_hosts
    rec = run_loop(world, seconds=0.0, tracer=None)
    world.close()
    assert rec.failed == sum(len(period.handshake_s) for period in rec.periods) > 0
    assert rec.failures


def test_handshakes_that_always_raise_end_the_run_with_failures_not_a_hang():
    """A ``src/`` change that breaks every handshake must report, not spin."""
    world = World(TINY, seed=5)

    def broken(chain, now):
        raise ConnectionError("handshake path is broken")

    world.handshake = broken
    rec = run_loop(world, seconds=0.0, tracer=None)
    world.close()
    assert len(rec.periods) == TINY.window_periods  # the loop ended at its floor
    assert rec.failed == TINY.window_periods * TINY.handshakes
    assert [period.handshake_s for period in rec.periods] == [[]] * TINY.window_periods
    # Every metric is still reported; what was never measured reads 0.
    metrics = workloads.end_to_end_metrics(world, rec, setup_s=1.0)
    assert set(metrics) == set(workloads.END_TO_END_UNITS)
    assert metrics["handshake_p50_ms"] == metrics["handshakes_per_s"] == 0.0
    assert metrics["status_build_p50_us"] > 0


def test_a_write_path_that_raises_stops_the_run_at_that_period():
    """The world may be half updated: go no further, report the failure."""
    world = World(TINY, seed=5)
    real_pull = world.ra_client.pull
    calls = []

    def pull_once(now):
        calls.append(now)
        if len(calls) > 1:
            raise OSError("CDN unreachable")
        return real_pull(now)

    world.ra_client.pull = pull_once
    rec = run_loop(world, seconds=60.0, tracer=None)
    world.close()
    assert len(rec.periods) == 1  # periods[p] is still period p
    assert rec.failed == 1 and "write path raised" in rec.failures[0]
    metrics = workloads.end_to_end_metrics(world, rec, setup_s=1.0)
    assert set(metrics) == set(workloads.END_TO_END_UNITS)


def test_set_up_is_the_median_of_several_builds_and_keeps_one_world(monkeypatch):
    built = []

    class StubWorld:
        def __init__(self, plan, seed):
            self.closed = False
            built.append(self)

        def close(self):
            self.closed = True

    monkeypatch.setattr(workloads, "World", StubWorld)
    world, setup_s = workloads.build_world(TINY, seed=1)
    assert len(built) == workloads.SETUP_BUILDS and world is built[-1]
    # Every earlier world was closed before the next was built.
    assert [w.closed for w in built] == [True] * (workloads.SETUP_BUILDS - 1) + [False]
    assert setup_s > 0


def test_sizing_pitfalls_are_pinned():
    # encode_issuance packs the batch length into 16 bits.
    assert PRELOAD_CHUNK <= 0xFFFF
    for plan in PLANS.values():
        assert plan.revocations <= 0xFFFF
        # The revoked hosts are fixed popularity ranks; there must be one.
        assert plan.domains >= workloads.REVOKED_RANK_FIRST
        # p99 needs >= 10 samples beyond it, from the fixed window alone.
        assert plan.window_periods * plan.status_builds >= 1_000
    cold = PLANS["cold-handshake"]
    assert cold.window_periods * cold.handshakes >= 1_000
    assert PLANS["fleet-soak"].scenario == "soak"


def test_world_refuses_a_set_up_pull_that_applied_nothing(monkeypatch):
    from repro.ritm.dissemination import RADisseminationClient

    real_pull = RADisseminationClient.pull

    def early_pull(self, now, link=None):
        result = real_pull(self, now, link)
        result.serials_applied = 0
        return result

    monkeypatch.setattr(RADisseminationClient, "pull", early_pull)
    with pytest.raises(RuntimeError, match="set-up pull applied 0"):
        World(TINY, seed=1)


def test_same_seed_gives_the_same_world_whatever_the_ambient_hash_seed(tmp_path):
    """Two processes, two ``PYTHONHASHSEED``s, one ``--seed``: identical exact metrics.

    ``repro.pki.ca`` derives leaf serials from ``hash(name)``; run.py pins the
    hash seed by re-executing itself.  An in-process comparison cannot see this.
    """
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    run_py = Path(workloads.__file__).with_name("run.py")
    outputs = []
    for ambient in ("1", "2"):
        done = subprocess.run(
            [sys.executable, str(run_py), "--workload", "fleet-soak", "--seed", "5",
             "--seconds", "0", "--trace", "0"],
            env={**os.environ, "PYTHONHASHSEED": ambient},
            capture_output=True, text=True, check=True,
        )  # fmt: skip
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"]
        outputs.append(
            (result["attempted"], [result["metrics"][m]["value"] for m in workloads.EXACT_METRICS])
        )
    assert outputs[0] == outputs[1]
