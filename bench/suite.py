"""Suite mode: repeats, medians, result files, and the A/A agreement check.

Every run is a fresh child process of the single-run command, one at a time —
nothing is shared between runs except the code under test.  The value of a
metric is the median across ``--repeats`` untraced runs; per-layer numbers
come from one extra traced run and are never mixed into the end-to-end ones.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from bench.stats import medians_by_name, relative_difference
from bench.trace import OP_NAMES
from bench.workloads import EXACT_METRICS, PLANS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
DEFAULT_REPEATS = 3


def contract() -> dict:
    """BENCHMARK.json — the one place bounds and the run length are stated."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One single-run child; returns its contract JSON object."""
    command = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]  # fmt: skip
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["metrics"] = {name: entry["value"] for name, entry in result["metrics"].items()}
    return result


def environment(seed: int, repeats: int, seconds: float) -> dict:
    """What the numbers were measured on, recorded in every result file."""
    import repro.store

    git = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cryptography_importable": importlib.util.find_spec("cryptography") is not None,
        "default_store_engine": repro.store.DEFAULT_ENGINE,
        "git_commit": git.stdout.strip() if git.returncode == 0 else "unknown",
        "seed": seed,
        "repeats": repeats,
        "seconds": seconds,
    }


def run_set(workloads: List[str], seed: int, seconds: float, repeats: int) -> Dict[str, dict]:
    """``repeats`` untraced runs and one traced run of each workload."""
    results = {}
    for workload in workloads:
        runs = []
        for repeat in range(repeats):
            print(f"[{workload}] run {repeat + 1}/{repeats} ...", file=sys.stderr, flush=True)
            runs.append(run_child(workload, seed, seconds, trace=0))
        print(f"[{workload}] traced pass ...", file=sys.stderr, flush=True)
        traced = run_child(workload, seed, seconds, trace=1)
        results[workload] = {
            "runs": runs,
            "median": medians_by_name([run["metrics"] for run in runs]),
            "per_layer": traced["metrics"],
            "ops_attempted": [run["attempted"] for run in runs] + [traced["attempted"]],
            "ops_failed": sum(run["failed"] for run in runs) + traced["failed"],
        }
    return results


def print_set(results: Dict[str, dict], spec: dict) -> None:
    """Every metric by name with its unit, then the per-layer ledger."""
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]}
    for workload, result in results.items():
        print(f"\n== {workload}: {PLANS[workload].why}")
        print(f"   ops attempted per run {result['ops_attempted']}, failed {result['ops_failed']}")
        for name, value in result["median"].items():
            print(f"   {name:<28} {value:>14.6g} {units[name]}")
        layers = result["per_layer"]
        total = sum(layers[f"{op}.self_s"] for op in OP_NAMES) or 1.0
        print(f"   {'layer.op':<28} {'calls':>10} {'self s':>10} {'us/call':>10} {'share':>7}")
        for op in sorted(OP_NAMES, key=lambda op: -layers[f"{op}.self_s"]):
            calls, self_s = layers[f"{op}.calls"], layers[f"{op}.self_s"]
            if calls:
                print(
                    f"   {op:<28} {calls:>10d} {self_s:>10.4f} "
                    f"{self_s / calls * 1e6:>10.2f} {self_s / total:>6.1%}"
                )
        for name, value in layers.items():
            if name.rsplit(".", 1)[0] not in OP_NAMES:
                print(f"   {name:<28} {value:>14.6g} {units[name]}")


def write_results(results: Dict[str, dict], env: dict) -> None:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    for workload, result in results.items():
        path = RESULTS_DIR / f"{workload}.json"
        path.write_text(
            json.dumps({"workload": workload, "environment": env, **result}, indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)


def agreement(a: Dict[str, dict], b: Dict[str, dict], spec: dict) -> int:
    """Print set A against set B per metric; return how many disagree."""
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    breaches = 0
    print(f"\n{'workload':<18} {'metric':<28} {'set A':>14} {'set B':>14} {'diff':>8} {'bound':>7}")
    for workload in a:
        rows = [
            (name, a[workload]["median"][name], b[workload]["median"][name])
            for name in a[workload]["median"]
        ]
        digest = "soak.report_digest"
        rows.append((digest, a[workload]["per_layer"][digest], b[workload]["per_layer"][digest]))
        for name, left, right in rows:
            exact = name in EXACT_METRICS or name == digest
            difference = relative_difference(left, right)
            agrees = left == right if exact else abs(difference) <= bounds[name]
            breaches += not agrees
            print(
                f"{workload:<18} {name:<28} {left:>14.6g} {right:>14.6g} {difference:>+8.2%} "
                f"{'exact' if exact else format(bounds[name], '.0%'):>7}"
                f"{'' if agrees else '  <-- BREACH'}"
            )
    return breaches


def main(args) -> int:
    spec = contract()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    repeats = args.repeats if args.repeats is not None else DEFAULT_REPEATS
    workloads = [args.workload] if args.workload else list(PLANS)
    if any(workload not in PLANS for workload in workloads):
        print(f"error: unknown workload; choose from {sorted(PLANS)}", file=sys.stderr)
        return 2

    first = run_set(workloads, args.seed, seconds, repeats)
    print_set(first, spec)
    write_results(first, environment(args.seed, repeats, seconds))
    failed = sum(result["ops_failed"] for result in first.values())
    breaches = 0
    if args.aa:
        second = run_set(workloads, args.seed, seconds, repeats)
        failed += sum(result["ops_failed"] for result in second.values())
        breaches = agreement(first, second, spec)
        print(f"\nA/A: {breaches} metric(s) outside their bound")
    if failed:
        print(f"{failed} operation(s) FAILED the oracle", file=sys.stderr)
    return 1 if failed or breaches else 0
