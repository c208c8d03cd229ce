"""Fleet-scaling benchmark: wall-clock and event throughput vs fleet size.

Runs the ``thundering-herd`` scenario at 1, 10, and 50 RAs with its flat
client stream scaled to 2,000 handshakes per RA — so the 50-RA point serves
100k client handshakes — and records wall-clock seconds and
scheduler events per second for each point in
``benchmarks/results/fleet_scaling.json`` (plus a rendered ``.txt`` table).

The headline assertion is **sublinear scaling**: the fitted exponent
``log(wall_50 / wall_1) / log(50)`` must stay below 0.85, i.e. fifty RAs
must cost clearly less than fifty 1-RA runs because the CA's issuance work,
the Merkle rebuilds, and the engine bootstrap amortise across the fleet.
"""

from __future__ import annotations

import math
import time

from bench_harness import write_json_result, write_result

from repro.analysis.reporting import format_table
from repro.scenarios import get, run_scenario

#: (fleet size, total client handshakes) — 2,000 handshakes per RA.
POINTS = ((1, 2_000), (10, 20_000), (50, 100_000))

#: Upper bound on the fitted wall-clock scaling exponent (1.0 == linear).
SUBLINEAR_EXPONENT_BOUND = 0.85


def _variant(fleet_size: int, handshakes: int):
    """The thundering-herd config resized to ``fleet_size`` RAs."""
    config = get("thundering-herd")
    if fleet_size < len(config.agents):
        # A single declared agent, no expansion: the serial baseline.
        return config.with_overrides(
            agents=config.agents[:fleet_size],
            fleet_size=0,
            client_stream={"events_total": handshakes},
        )
    return config.with_overrides(
        fleet_size=fleet_size, client_stream={"events_total": handshakes}
    )


def test_fleet_scaling_is_sublinear():
    """Measure the 1/10/50-RA points and pin the scaling exponent."""
    samples = []
    for fleet_size, handshakes in POINTS:
        config = _variant(fleet_size, handshakes)
        started = time.perf_counter()
        report = run_scenario(config)
        wall_seconds = time.perf_counter() - started
        assert report.all_checks_passed, [c.name for c in report.failed_checks()]
        fleet = report.metrics["fleet"]
        assert fleet["fleet_size"] == fleet_size
        assert fleet["handshakes_served"] == handshakes
        samples.append(
            {
                "fleet_size": fleet_size,
                "client_handshakes": handshakes,
                "wall_clock_seconds": round(wall_seconds, 4),
                "scheduler_events_processed": fleet["scheduler_events_processed"],
                "events_per_second": round(
                    fleet["scheduler_events_processed"] / wall_seconds, 1
                ),
                "overlap_factor": fleet["overlap_factor"],
                "peak_concurrent_pulls": fleet["peak_concurrent_pulls"],
            }
        )

    first, last = samples[0], samples[-1]
    ratio = last["wall_clock_seconds"] / first["wall_clock_seconds"]
    exponent = math.log(ratio) / math.log(last["fleet_size"] / first["fleet_size"])
    payload = {
        "scenario": "thundering-herd",
        "handshakes_per_ra": 2_000,
        "samples": samples,
        "wall_clock_ratio_50x": round(ratio, 3),
        "scaling_exponent": round(exponent, 4),
        "sublinear_bound": SUBLINEAR_EXPONENT_BOUND,
    }
    write_json_result("fleet_scaling", payload)

    rows = [
        (
            s["fleet_size"],
            s["client_handshakes"],
            f"{s['wall_clock_seconds']:.2f} s",
            f"{s['events_per_second']:.0f}",
            s["peak_concurrent_pulls"],
        )
        for s in samples
    ]
    text = format_table(
        ["RAs", "handshakes", "wall clock", "events/s", "peak pulls"],
        rows,
        title="thundering-herd fleet scaling (2,000 handshakes per RA)",
    )
    text += (
        f"\n50x fleet costs {ratio:.1f}x wall clock "
        f"(exponent {exponent:.3f}, bound {SUBLINEAR_EXPONENT_BOUND})"
    )
    write_result("fleet_scaling", text)

    assert exponent < SUBLINEAR_EXPONENT_BOUND, (
        f"fleet scaling went superlinear-ish: exponent {exponent:.3f} "
        f"(50 RAs cost {ratio:.1f}x one RA)"
    )
