"""The repo benchmark's one command.

Single run (the BENCHMARK.json contract)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the workload's inputs from ``--seed``, measures for ``--seconds``,
checks every output against the oracle, prints every metric by name and unit
on stderr, and prints one JSON object as the last line of stdout.

Suite (for people)::

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--repeats K] [--aa]

runs each workload ``K`` times untraced plus one traced pass, each in a fresh
child process, one at a time, prints the medians, and writes
``bench/results/<workload>.json``; ``--aa`` runs two such sets and checks
that they agree — see ``bench/suite.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"

# Runnable both as ``python3 bench/run.py`` and ``python -m bench.run``,
# without an install: the checkout's own ``src/`` is the program under test.
# As a script, Python put ``bench/`` itself first on the path, where
# ``trace.py`` would shadow the standard library's ``trace``.
sys.path[:] = [entry for entry in sys.path if entry != str(BENCH_DIR)]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)


def single_run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """One in-process run; the contract's JSON object is the last stdout line."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    from bench import workloads

    if workload not in workloads.PLANS:
        print(f"error: unknown workload {workload!r}; choose from {sorted(workloads.PLANS)}", file=sys.stderr)
        return 2
    # The durable engines make per-store temp directories; keep them (and
    # everything else this run writes) inside the checkout.
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="work-", dir=RESULTS_DIR)
    tempfile.tempdir = scratch
    try:
        span_path = RESULTS_DIR / f"{workload}.trace.jsonl" if trace else None
        metrics, rec = workloads.run_workload(workload, seed, seconds, trace, span_path)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)

    units = workloads.PER_LAYER_UNITS if trace else workloads.END_TO_END_UNITS
    if set(metrics) != set(units):
        raise AssertionError(f"metric names drifted: {sorted(set(metrics) ^ set(units))}")
    width = max(map(len, units))
    print(f"# {workload}  seed={seed}  seconds={seconds:g}  trace={int(trace)}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:<{width}}  {metrics[name]:>16.6g}  {unit}", file=sys.stderr)
    print(f"{'ops_attempted':<{width}}  {rec.attempted:>16d}  count", file=sys.stderr)
    print(f"{'ops_failed':<{width}}  {rec.failed:>16d}  count", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": rec.failed == 0,
                "attempted": rec.attempted,
                "failed": rec.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, help="measured seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="single run: 1 = per-layer pass")
    parser.add_argument("--repeats", type=int, help="suite: untraced runs per workload (default 3)")
    parser.add_argument("--aa", action="store_true", help="suite: two sets on the same code must agree")
    args = parser.parse_args(argv)

    if args.trace is not None and not args.aa and args.repeats is None:
        if args.workload is None or args.seconds is None:
            parser.error("a single run needs --workload, --seed, --seconds and --trace")
        return single_run(args.workload, args.seed, args.seconds, bool(args.trace))

    from bench import suite

    return suite.main(args)


def pin_hash_seed() -> None:
    """Re-execute with ``PYTHONHASHSEED=0`` so ``--seed`` alone decides the inputs.

    ``repro.pki.ca`` seeds each CA's serial allocator with ``hash(name)``,
    which Python salts per process: without this the leaf serials — and every
    dictionary, proof and wire size after them — differ between two runs of
    one seed (README "known pitfalls").
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.orig_argv[1:]])


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
