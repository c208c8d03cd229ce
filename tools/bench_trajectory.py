#!/usr/bin/env python
"""Write one entry of the committed perf trajectory: ``BENCH_<number>.json``.

Reads the ``bench/results/<workload>.json`` files that ``bench/run.py`` suite
runs wrote on the parent commit and on the change, and writes, per side, the
median of every ``BENCHMARK.json`` end-to-end metric on every workload over
all the untraced runs found, with the change's relative difference beside
it.  Give each side several result directories (copies of ``bench/results``
from alternating suite runs) to take the median over all of them.

Usage::

    python tools/bench_trajectory.py --number 29 \\
        --parent PARENT/bench/results [MORE ...] --change bench/results [MORE ...]

Writes ``BENCH_<number>.json`` at the repository root; ``git log -p
BENCH_*.json`` is the perf history.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[1]


def contract() -> dict:
    """``BENCHMARK.json``: the workloads and end-to-end metrics a side must cover."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def side_medians(directories: Sequence[Path], spec: dict) -> Dict[str, dict]:
    """``{workload: {"runs": n, metric: median}}`` over every run in ``directories``."""
    metrics = [metric["name"] for metric in spec["end_to_end"]]
    medians = {}
    for workload in (entry["name"] for entry in spec["workloads"]):
        runs: List[dict] = []
        for directory in directories:
            result = json.loads((directory / f"{workload}.json").read_text(encoding="utf-8"))
            if result.get("ops_failed"):
                raise SystemExit(f"{directory / workload}.json: {result['ops_failed']} operations failed")
            runs.extend(run["metrics"] for run in result["runs"])
        medians[workload] = {"runs": len(runs)}
        medians[workload].update(
            {name: statistics.median(run[name] for run in runs) for name in metrics}
        )
    return medians


def trajectory(number: int, parent: Sequence[Path], change: Sequence[Path]) -> dict:
    """The ``BENCH_<number>.json`` document."""
    spec = contract()
    sides = {"parent": side_medians(parent, spec), "change": side_medians(change, spec)}
    workloads = {}
    for workload in sides["parent"]:
        before, after = sides["parent"][workload], sides["change"][workload]
        workloads[workload] = {
            "parent": before,
            "change": after,
            "relative_change": {
                metric["name"]: (
                    round(after[metric["name"]] / before[metric["name"]] - 1, 4)
                    if before[metric["name"]]
                    else None
                )
                for metric in spec["end_to_end"]
            },
        }
    return {
        "number": number,
        "run_seconds": spec["run_seconds"],
        "metrics": {
            metric["name"]: {key: metric[key] for key in ("unit", "better", "bound")}
            for metric in spec["end_to_end"]
        },
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", type=int, required=True, help="names BENCH_<number>.json")
    parser.add_argument("--parent", type=Path, nargs="+", required=True, help="parent results dirs")
    parser.add_argument("--change", type=Path, nargs="+", required=True, help="change results dirs")
    args = parser.parse_args(argv)
    document = trajectory(args.number, args.parent, args.change)
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
