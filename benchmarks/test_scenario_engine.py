"""Benchmark the scenario engine's end-to-end cost.

One smoke run of the ``quickstart`` scenario measures the fixed overhead of
the engine (build + bootstrap + pulls + handshakes); the ``flash-crowd``
smoke run measures a burst workload end to end and records what the burst
cost each RA.  Results land in ``benchmarks/results/scenario_engine.txt``.
"""

from __future__ import annotations

from bench_harness import write_result

from repro.analysis.reporting import format_table
from repro.scenarios import get, run_scenario


def test_scenario_engine_overhead(benchmark):
    """End-to-end smoke run of the smallest scenario."""
    report = benchmark.pedantic(
        lambda: run_scenario(get("quickstart"), smoke=True), rounds=3, iterations=1
    )
    assert report.all_checks_passed


def test_flash_crowd_burst():
    """Run flash-crowd once and persist what its burst cost each RA."""
    report = run_scenario(get("flash-crowd"), smoke=True)
    assert report.all_checks_passed
    lags = report.metrics["attack_window"]["per_agent"]
    rows = [
        (name, agent["size"], f"{lags[name]:.3f} s")
        for name, agent in report.metrics["agents"].items()
    ]
    text = format_table(
        ["RA", "replica size", "worst provability lag"],
        rows,
        title="flash-crowd burst per RA (smoke workload)",
    )
    dissemination = report.metrics["dissemination"]
    text += (
        f"\n{dissemination['bytes_downloaded']} B downloaded in "
        f"{dissemination['pulls']} pulls, {dissemination['resyncs']} resync(s)"
    )
    write_result("scenario_engine", text)
