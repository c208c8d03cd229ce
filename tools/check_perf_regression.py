#!/usr/bin/env python
"""Fail CI when a store engine's write path leaves the SHA-256 floor.

Compares a freshly generated ``dictionary_update_scaling.json`` (from
``benchmarks/test_dictionary_update.py::test_dictionary_update_scaling_sweep``)
against the committed copy in ``benchmarks/baselines/``.

Absolute throughput is machine-dependent — a CI runner and the box that
produced the baseline share no clock — so the gate is built on
**machine-relative ratios**: each engine's batch-append and random-insert
time at the store-level points, divided by what the operation's own hash
count costs at the SHA-256 floor measured in the same process
(``*_over_floor``; see ``repro.analysis.timing.measure_hash_floor``), and its
random-batch time divided by what the tree's own suffix rehash costs, timed
beside it (``batch_random_over_suffix``).  Each gated metric must satisfy
*both*:

* ``fresh <= (1 + tolerance) * baseline`` — no >30 % regression against
  the committed expectation (the headline rule from the CI job); and
* ``fresh <= ceiling`` — the absolute envelope the benchmark itself
  asserts (``OVER_FLOOR_CEILINGS``, imported from the same module), so
  this check can never fail a run the benchmark accepted for a different
  reason.

``bytes_per_leaf`` for the compact engine is additionally gated as an
absolute (it is machine-independent: pure layout arithmetic).

Usage::

    python tools/check_perf_regression.py \
        [--fresh benchmarks/results/dictionary_update_scaling.json] \
        [--baseline benchmarks/baselines/dictionary_update_scaling.json] \
        [--tolerance 0.30]

Exits 0 when every gate holds, 1 with a per-metric report otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.timing import OVER_FLOOR_CEILINGS  # noqa: E402

#: Hard ceiling for the compact engine's per-leaf footprint (bytes).  The
#: measured value is 47.0 for 3-byte keys / 4-byte values; 60 allows for
#: plane-level slack without admitting an object-per-node layout.
BYTES_PER_LEAF_CEILING = 60.0


def _load(path: Path) -> dict:
    """Parse one scaling-sweep JSON artifact, with a actionable error."""
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        sys.exit(
            f"error: {path} not found — run the scaling sweep first:\n"
            "  PYTHONPATH=src:benchmarks python -m pytest -m sweep "
            "benchmarks/test_dictionary_update.py::"
            "test_dictionary_update_scaling_sweep -q"
        )


def _store_points(sweep: dict) -> dict:
    """Index a sweep's ``store_points`` rows by ``(leaf count, engine)``."""
    return {
        (row["existing_entries"], row["engine"]): row
        for row in sweep.get("store_points", [])
    }


def check(fresh: dict, baseline: dict, tolerance: float) -> list:
    """Return a list of ``(metric, where, fresh, allowed, reason)`` failures."""
    failures = []
    fresh_points = _store_points(fresh)
    base_points = _store_points(baseline)
    shared = sorted(
        key for key in set(fresh_points) & set(base_points) if key[1] in OVER_FLOOR_CEILINGS
    )
    if not shared:
        return [
            ("store_points", "", 0.0, 0.0,
             "no shared gated store points between fresh run and baseline")
        ]

    for size, engine in shared:
        where = f"{engine} @ {size:,} leaves"
        for metric, ceiling in OVER_FLOOR_CEILINGS[engine].items():
            fresh_value = fresh_points[size, engine].get(metric)
            base_value = base_points[size, engine].get(metric)
            if fresh_value is None or base_value is None:
                failures.append((metric, where, 0.0, ceiling, "metric missing"))
                continue
            relative_bar = (1.0 + tolerance) * base_value
            if fresh_value > relative_bar:
                failures.append(
                    (metric, where, fresh_value, relative_bar,
                     f">{tolerance:.0%} regression vs baseline {base_value:.2f}")
                )
            if fresh_value > ceiling:
                failures.append(
                    (metric, where, fresh_value, ceiling, "above absolute ceiling")
                )

    for (size, engine), point in fresh_points.items():
        per_leaf = point.get("bytes_per_leaf")
        if engine == "compact" and per_leaf is not None and per_leaf > BYTES_PER_LEAF_CEILING:
            failures.append(
                ("bytes_per_leaf", f"compact @ {size:,} leaves", per_leaf,
                 BYTES_PER_LEAF_CEILING, "compact per-leaf footprint above ceiling")
            )
    return failures


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh",
        type=Path,
        default=REPO_ROOT / "benchmarks" / "results" / "dictionary_update_scaling.json",
        help="freshly generated sweep JSON (default: benchmarks/results/...)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=REPO_ROOT / "benchmarks" / "baselines" / "dictionary_update_scaling.json",
        help="committed baseline JSON (default: benchmarks/baselines/...)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional regression vs baseline ratios (default 0.30)",
    )
    args = parser.parse_args(argv)

    fresh = _load(args.fresh)
    failures = check(fresh, _load(args.baseline), args.tolerance)

    for (size, engine), point in sorted(_store_points(fresh).items()):
        line = f"{size:,} leaves, {engine}:"
        ratios = [
            f" {metric} {point[metric]:.2f}x"
            for metric in OVER_FLOOR_CEILINGS.get(engine, {})
            if metric in point
        ]
        if ratios:
            line += ",".join(ratios) + f" (floor {point['hash_floor_ns']:.0f} ns/hash)"
        if "bytes_per_leaf" in point:
            line += f" {point['bytes_per_leaf']:.1f} B/leaf"
        print(line)

    if failures:
        print("\nPERF REGRESSION GATE FAILED:", file=sys.stderr)
        for metric, where, fresh_value, allowed, reason in failures:
            print(
                f"  {metric} ({where}): {fresh_value:.2f} > allowed {allowed:.2f} "
                f"({reason})",
                file=sys.stderr,
            )
        print(
            "\nIf the change is an intentional perf trade-off, refresh the "
            "baseline (see benchmarks/baselines/README.md).",
            file=sys.stderr,
        )
        return 1
    print("\nperf gate OK (tolerance {:.0%})".format(args.tolerance))
    return 0


if __name__ == "__main__":
    sys.exit(main())
