"""The ``python -m repro`` command line: list, describe, and run scenarios.

Verbs:

* ``list`` — one table row per registered scenario;
* ``describe NAME`` — full description plus the resolved configuration;
* ``run NAME [NAME ...] [--smoke] [--out DIR] [--delta N] [--engine E]``
  — execute scenarios and (optionally) write JSON + Markdown reports.

The exit code is 0 when every executed scenario passed all its checks and
1 otherwise, so CI can run scenarios directly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.reporting import format_table, human_bytes
from repro.errors import ConfigurationError
from repro.scenarios import registry
from repro.scenarios.engine.runner import run_scenario
from repro.store import ENGINES


def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree for all verbs."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run RITM reproduction scenarios (see docs/SCENARIOS.md).",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    sub.add_parser("list", help="list registered scenarios")

    describe = sub.add_parser("describe", help="show one scenario in full")
    describe.add_argument("name", help="scenario name (see `list`)")

    run = sub.add_parser("run", help="run one or more scenarios")
    run.add_argument("names", nargs="+", help="scenario names (see `list`)")
    run.add_argument(
        "--smoke", action="store_true", help="use each scenario's scaled-down smoke variant"
    )
    run.add_argument("--out", type=Path, default=None, metavar="DIR",
                     help="write <name>.json and <name>.md reports under DIR")
    run.add_argument("--delta", type=int, default=None, metavar="SECONDS",
                     help="override the dissemination period Δ")
    run.add_argument(
        "--engine",
        default=None,
        metavar="NAME",
        choices=sorted(ENGINES),
        help=(
            "override the authenticated-store engine; one of: "
            + ", ".join(sorted(ENGINES))
        ),
    )
    return parser


def _cmd_list() -> int:
    """Print the scenario table."""
    rows = []
    for config in registry.all_scenarios():
        rows.append(
            (
                config.name,
                f"{config.delta_seconds}s",
                config.workload.kind,
                len(config.agents),
                len(config.faults),
                ",".join(config.tags),
            )
        )
    print(format_table(["scenario", "delta", "workload", "RAs", "faults", "tags"], rows))
    print(f"\n{len(rows)} scenarios registered. "
          "`python -m repro describe <name>` for details.")
    return 0


def _cmd_describe(name: str) -> int:
    """Print one scenario's title, description, and configuration."""
    config = registry.get(name)
    print(f"{config.name} — {config.title}\n")
    print(config.description)
    rows = [
        ("delta_seconds", config.delta_seconds),
        ("duration_periods", config.duration_periods or "(from trace window)"),
        ("store_engine", config.store_engine),
        ("workload", config.workload.kind),
        ("agents", ", ".join(f"{a.name}@{a.region}" for a in config.agents)),
        ("faults", ", ".join(f"{f.kind}@{f.at_period}" for f in config.faults) or "none"),
        ("victim_host", config.victim_host or "none"),
        ("long_lived_session", config.long_lived_session),
        ("compare_engines", ", ".join(config.compare_engines) or "none"),
        ("baseline", config.baseline or "none"),
        (
            "sharded",
            f"width {config.shard_width_periods} periods, "
            f"lifetime {config.cert_lifetime_periods} periods, "
            f"prune every {config.prune_every_periods}"
            if config.sharded
            else False,
        ),
        ("attack_window_bound", f"{config.attack_window_seconds()}s"),
        ("tags", ", ".join(config.tags)),
    ]
    print()
    print(format_table(["parameter", "value"], [(k, str(v)) for k, v in rows]))
    return 0


def _cmd_run(
    names: List[str],
    smoke: bool,
    out: Optional[Path],
    delta: Optional[int],
    engine: Optional[str],
) -> int:
    """Run scenarios, print summaries, optionally write report files."""
    exit_code = 0
    for name in names:
        config = registry.get(name)
        if smoke:
            config = config.smoke()
        overrides = {}
        if delta is not None:
            overrides["delta_seconds"] = delta
        if engine is not None:
            overrides["store_engine"] = engine
        if overrides:
            config = config.with_overrides(**overrides)

        print(f"== {config.name}: {config.title}")
        report = run_scenario(config)
        dissemination = report.metrics["dissemination"]
        print(
            f"   {dissemination['pulls']} pulls, "
            f"{human_bytes(dissemination['bytes_downloaded'])} downloaded, "
            f"{dissemination['serials_applied']} serials applied, "
            f"{dissemination['resyncs']} resync(s)"
        )
        for check in report.checks:
            mark = "PASS" if check.passed else "FAIL"
            detail = f" — {check.detail}" if check.detail else ""
            print(f"   [{mark}] {check.name}{detail}")
        if out is not None:
            json_path, md_path = report.write(out)
            print(f"   wrote {json_path} and {md_path}")
        if not report.all_checks_passed:
            exit_code = 1
        print()
    return exit_code


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "list":
            return _cmd_list()
        if args.verb == "describe":
            return _cmd_describe(args.name)
        return _cmd_run(args.names, args.smoke, args.out, args.delta, args.engine)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
