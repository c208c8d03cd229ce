#!/usr/bin/env python3
"""Generate ``docs/RESULTS.md``: the paper-to-artifact results index.

Maps every table/figure of the paper's evaluation (§VII–§VIII) to the
benchmark artifact that reproduces it under ``benchmarks/results/``, embeds
the current numbers for artifacts present at generation time, and lists
every registered scenario exactly once.  The artifact registry below is the
single source of truth; ``tests/docs/test_results_doc.py`` asserts the
committed document stays in sync with it (and that no benchmark writes an
artifact this registry does not know about).

Usage:  PYTHONPATH=src python tools/gen_results.py [--check]

``--check`` exits 1 when the committed ``docs/RESULTS.md`` differs from
what would be generated — artifacts included — so only run it right after
regenerating; CI uses the structural test instead (artifacts are build
outputs and not committed).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

RESULTS_DIR = REPO / "benchmarks" / "results"
OUTPUT = REPO / "docs" / "RESULTS.md"
MARKER = "<!-- generated by tools/gen_results.py; edit the registry there, not this file -->"


@dataclass(frozen=True)
class Artifact:
    """One benchmark artifact and the paper result it reproduces."""

    filename: str
    module: str
    anchor: str
    description: str


#: Every artifact the benchmark suite writes, in presentation order.
ARTIFACTS: List[Artifact] = [
    Artifact(
        "fig4_revocation_trace.txt",
        "benchmarks/test_fig4_revocation_trace.py",
        "Fig. 4",
        "Calibrated synthetic revocation trace (daily revocations, Heartbleed burst).",
    ),
    Artifact(
        "fig5_dissemination_speed.txt",
        "benchmarks/test_fig5_dissemination_speed.py",
        "Fig. 5",
        "Dictionary dissemination speed from PlanetLab-style vantage points.",
    ),
    Artifact(
        "fig6_monthly_cost.txt",
        "benchmarks/test_fig6_monthly_cost.py",
        "Fig. 6",
        "Monthly CDN cost of running RITM across the Δ sweep.",
    ),
    Artifact(
        "fig7_communication_overhead.txt",
        "benchmarks/test_fig7_communication_overhead.py",
        "Fig. 7",
        "Per-RA communication overhead per Δ period.",
    ),
    Artifact(
        "table2_cost_per_ra.txt",
        "benchmarks/test_table2_cost_per_ra.py",
        "Table 2",
        "Monthly dissemination cost per RA across the Δ sweep.",
    ),
    Artifact(
        "table3_processing_time_naive.txt",
        "benchmarks/test_table3_processing_time.py",
        "Table 3",
        "Dictionary operation processing times, naive store engine.",
    ),
    Artifact(
        "table3_processing_time_incremental.txt",
        "benchmarks/test_table3_processing_time.py",
        "Table 3",
        "Dictionary operation processing times, incremental store engine.",
    ),
    Artifact(
        "table3_processing_time_compact.txt",
        "benchmarks/test_table3_processing_time.py",
        "Table 3",
        "Dictionary operation processing times, compact flat-buffer engine.",
    ),
    Artifact(
        "table3_processing_time_durable.txt",
        "benchmarks/test_table3_processing_time.py",
        "Table 3",
        "Dictionary operation processing times, durable store engine.",
    ),
    Artifact(
        "table3_processing_time_durable-compact.txt",
        "benchmarks/test_table3_processing_time.py",
        "Table 3",
        "Dictionary operation processing times, durable-compact engine "
        "(WAL overlay over the flat-buffer core).",
    ),
    Artifact(
        "table4_comparison.txt",
        "benchmarks/test_table4_comparison.py",
        "Table 4",
        "Qualitative comparison of RITM against the baseline schemes.",
    ),
    Artifact(
        "attack_window.txt",
        "benchmarks/test_bench_attack_window.py",
        "§V",
        "Measured end-to-end attack window against the 2Δ bound.",
    ),
    Artifact(
        "handshake_overhead.txt",
        "benchmarks/test_handshake_overhead.py",
        "§VII-D",
        "Latency and byte overhead RITM adds to a TLS handshake; the status "
        "row is wire bytes, `len(encode_status(...))`.",
    ),
    Artifact(
        "handshake_hotpath.txt",
        "benchmarks/test_handshake_hotpath.py",
        "§VII-D / Table 3",
        "Hot-path verification engine: cold vs warm read-path latency.",
    ),
    Artifact(
        "handshake_hotpath.json",
        "benchmarks/test_handshake_hotpath.py",
        "§VII-D / Table 3",
        "Machine-readable hot-path baseline: cold/warm latency, cache hit "
        "rates, Ed25519 sign / verify-hit / verify-miss / reject and the hit in "
        "field multiplications (docs/PERFORMANCE.md).",
    ),
    Artifact(
        "status_size.txt",
        "benchmarks/test_storage_and_status_size.py",
        "§VII-D",
        "Revocation status wire size against the paper's 500–900 B claim.",
    ),
    Artifact(
        "storage_overhead.txt",
        "benchmarks/test_storage_and_status_size.py",
        "§VII-D",
        "RA storage for replicated dictionaries.",
    ),
    Artifact(
        "dictionary_update_naive.txt",
        "benchmarks/test_dictionary_update.py",
        "Table 3 (extension)",
        "Batch update cost, naive store engine.",
    ),
    Artifact(
        "dictionary_update_incremental.txt",
        "benchmarks/test_dictionary_update.py",
        "Table 3 (extension)",
        "Batch update cost, incremental store engine.",
    ),
    Artifact(
        "dictionary_update_compact.txt",
        "benchmarks/test_dictionary_update.py",
        "Table 3 (extension)",
        "Batch update cost, compact flat-buffer store engine.",
    ),
    Artifact(
        "dictionary_update_durable.txt",
        "benchmarks/test_dictionary_update.py",
        "Table 3 (extension)",
        "Batch update cost, durable (write-ahead-logged) store engine.",
    ),
    Artifact(
        "dictionary_update_durable-compact.txt",
        "benchmarks/test_dictionary_update.py",
        "Table 3 (extension)",
        "Batch update cost, durable-compact engine (WAL overlay over the "
        "flat-buffer core).",
    ),
    Artifact(
        "dictionary_update_single_serial.txt",
        "benchmarks/test_dictionary_update.py",
        "Table 3 (extension)",
        "Single-serial update: store-level and end-to-end engine speedups.",
    ),
    Artifact(
        "dictionary_update_scaling.txt",
        "benchmarks/test_dictionary_update.py",
        "Table 3 (extension)",
        "Update-cost scaling sweep over dictionary sizes (rendered table).",
    ),
    Artifact(
        "dictionary_update_scaling.json",
        "benchmarks/test_dictionary_update.py",
        "Table 3 (extension)",
        "Machine-readable update-cost trajectory per size × engine.",
    ),
    Artifact(
        "durable_recovery.txt",
        "benchmarks/test_durable_recovery.py",
        "Storage (extension)",
        "Durable store engine: WAL-append overhead, snapshot size, and warm "
        "checkpoint-restore vs cold resync (docs/STORAGE.md).",
    ),
    Artifact(
        "durable_recovery.json",
        "benchmarks/test_durable_recovery.py",
        "Storage (extension)",
        "Machine-readable durable-engine sweep: per-size WAL/snapshot "
        "numbers plus the warm-vs-cold RA recovery comparison.",
    ),
    Artifact(
        "sharded_storage.txt",
        "benchmarks/test_sharded_storage.py",
        "§VIII",
        "Expiry-split dictionaries: storage plateau vs ever-growing baseline.",
    ),
    Artifact(
        "sharded_storage.json",
        "benchmarks/test_sharded_storage.py",
        "§VIII",
        "Machine-readable sharded-storage timeline per store engine.",
    ),
    Artifact(
        "scenario_engine.txt",
        "benchmarks/test_scenario_engine.py",
        "Scenario engine",
        "Runtime of the registered scenarios' smoke variants.",
    ),
    Artifact(
        "fleet_scaling.txt",
        "benchmarks/test_fleet_scaling.py",
        "Fleet engine",
        "Thundering-herd wall clock and event throughput at 1/10/50 RAs "
        "(2,000 handshakes per RA).",
    ),
    Artifact(
        "fleet_scaling.json",
        "benchmarks/test_fleet_scaling.py",
        "Fleet engine",
        "Machine-readable fleet-scaling sweep: wall clock, events/s, and "
        "the fitted sublinear scaling exponent.",
    ),
    Artifact(
        "replication_egress.txt",
        "benchmarks/test_replication_egress.py",
        "Replication",
        "Region-outage catch-up: CA-origin egress under peer anti-entropy "
        "vs N cold syncs at 1/10/50 restored RAs (docs/REPLICATION.md); a cold "
        "sync is its response's wire bytes, `len(encode_sync_response(...))`.",
    ),
    Artifact(
        "replication_egress.json",
        "benchmarks/test_replication_egress.py",
        "Replication",
        "Machine-readable egress sweep: CA-origin bytes, peer-mesh bytes, "
        "and the cold-sync counterfactual (wire bytes) per fleet size.",
    ),
    Artifact(
        "reject_cost.json",
        "benchmarks/test_reject_cost.py",
        "Replication",
        "Reject costs in exact counts: SHA-256 calls, Ed25519 verifications, "
        "store mutations and CA-origin requests of an honest 65,535-serial batch "
        "into a 10⁵-leaf replica, the same batch with a swapped serial, a forged "
        "root and one serial short, each split at its resync, and the honest "
        "batch behind a per-Δ copy that does not decode (docs/THREATS.md).",
    ),
    Artifact(
        "reject_cost_freshness.json",
        "benchmarks/test_reject_cost.py",
        "Replication",
        "Reject cost of a freshness value that links to no chain, in exact counts: "
        "an RA's per-Δ poll of it (SHA-256 calls of the `chain_length` walk, then "
        "one head GET) and a client's check of a status carrying it, each beside "
        "the honest period-1 value (docs/THREATS.md).",
    ),
    Artifact(
        "dissemination_requests.txt",
        "benchmarks/test_dissemination_requests.py",
        "§VII-C",
        "RA GETs and bytes by object kind (head, per-Δ, batch, "
        "shard index, keys) for every registered scenario's smoke run; an RA "
        "that was current pulls each dictionary with one GET per Δ.",
    ),
    Artifact(
        "ablation_delta_sweep.txt",
        "benchmarks/test_ablations.py",
        "Ablation",
        "Δ sweep: attack window vs dissemination cost.",
    ),
    Artifact(
        "ablation_digest_truncation.txt",
        "benchmarks/test_ablations.py",
        "Ablation",
        "Digest truncation (20 vs 32 bytes): proof size vs security margin.",
    ),
    Artifact(
        "ablation_cdn_ttl.txt",
        "benchmarks/test_ablations.py",
        "Ablation",
        "CDN TTL: origin load vs freshness.",
    ),
    Artifact(
        "ablation_dictionary_splitting.txt",
        "benchmarks/test_ablations.py",
        "Ablation",
        "Dictionary splitting: status size vs dictionary count.",
    ),
    Artifact(
        "workload_scaling.txt",
        "benchmarks/test_workload_scaling.py",
        "Workloads",
        "Streaming client-load generator at 10^4/10^5/10^6 modelled clients: "
        "events/s, allocation peak, and max RSS (docs/WORKLOADS.md); the "
        "RITM_BENCH_FULL=1 run adds the 1M-client / 30-day soak trace.",
    ),
    Artifact(
        "workload_scaling.json",
        "benchmarks/test_workload_scaling.py",
        "Workloads",
        "Machine-readable workload-generator sweep: per-point throughput and "
        "memory plus the client-count-independence ratio.",
    ),
]


def _render_json_summary(path: Path) -> List[str]:
    """Compact rendering of a JSON artifact's top-level scalars/sections."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    lines = ["```json"]
    if isinstance(payload, dict):
        compact = {
            key: value
            for key, value in payload.items()
            if not isinstance(value, list) or len(value) <= 8
        }
        skipped = sorted(set(payload) - set(compact))
        lines.extend(json.dumps(compact, indent=2, sort_keys=True).splitlines())
        if skipped:
            lines.append(f"// long sections elided: {', '.join(skipped)}")
    else:
        lines.append(f"// {type(payload).__name__} with {len(payload)} entries")
    lines.append("```")
    return lines


def _render_artifact_body(artifact: Artifact) -> List[str]:
    """The per-artifact section body: current numbers or a how-to-generate."""
    path = RESULTS_DIR / artifact.filename
    if not path.exists():
        return [
            f"_Not generated in this checkout — run "
            f"`PYTHONPATH=src python -m pytest {artifact.module}`._"
        ]
    if path.suffix == ".json":
        return _render_json_summary(path)
    return ["```", *path.read_text(encoding="utf-8").rstrip().splitlines(), "```"]


def generate() -> str:
    """Render the full RESULTS.md document."""
    from repro.scenarios import registry  # noqa: PLC0415 - needs sys.path set up

    lines: List[str] = [
        "# Results index",
        "",
        MARKER,
        "",
        "Every benchmark renders its reproduced table or figure into",
        "`benchmarks/results/` (plain-text tables plus JSON artifacts; these",
        "are build outputs, not committed).  This index maps each paper",
        "result to its artifact and embeds the numbers current at the last",
        "regeneration.  Regenerate after running the benchmarks with:",
        "",
        "```sh",
        'PYTHONPATH=src python -m pytest -m "sweep or not sweep" benchmarks/',
        "PYTHONPATH=src python tools/gen_results.py",
        "```",
        "",
        "## Paper results → artifacts",
        "",
        "| Paper result | Artifact | Produced by |",
        "|---|---|---|",
    ]
    for artifact in ARTIFACTS:
        lines.append(
            f"| {artifact.anchor} | `benchmarks/results/{artifact.filename}` "
            f"| `{artifact.module}` |"
        )
    lines.append("")

    lines.extend(["## Current numbers", ""])
    for artifact in ARTIFACTS:
        lines.append(f"### `{artifact.filename}` — {artifact.anchor}")
        lines.append("")
        lines.append(artifact.description)
        lines.append("")
        lines.extend(_render_artifact_body(artifact))
        lines.append("")

    lines.extend(
        [
            "## Registered scenarios",
            "",
            "Scenario reports (JSON + Markdown, pinned schema) are written by",
            "the CLI with `--out`; CI uploads them as artifacts.  See",
            "[SCENARIOS.md](SCENARIOS.md) for the anatomy of a config.",
            "",
            "| Scenario | Title | Run |",
            "|---|---|---|",
        ]
    )
    for config in registry.all_scenarios():
        lines.append(
            f"| {config.name} | {config.title} | "
            f"`python -m repro run {config.name}` |"
        )
    lines.append("")
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    """Write (or with ``--check`` diff) docs/RESULTS.md."""
    rendered = generate()
    if "--check" in argv:
        current = OUTPUT.read_text(encoding="utf-8") if OUTPUT.exists() else ""
        if current != rendered:
            print("gen_results: docs/RESULTS.md is out of date", file=sys.stderr)
            return 1
        print("gen_results: docs/RESULTS.md is up to date")
        return 0
    OUTPUT.write_text(rendered, encoding="utf-8")
    print(f"gen_results: wrote {OUTPUT.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
