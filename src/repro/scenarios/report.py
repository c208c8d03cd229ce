"""Structured scenario output: the :class:`ScenarioReport`.

Every scenario run produces one report with a pinned top-level schema
(:data:`REPORT_SCHEMA_KEYS`), serialisable to JSON (for CI artifacts and
machine diffing) and renderable to Markdown (for humans).  The Markdown
rendering reuses the table formatter from :mod:`repro.analysis.reporting`
so scenario output matches the benchmark artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.analysis.reporting import format_table, human_bytes

#: The pinned top-level JSON schema; tests assert these keys exactly.
REPORT_SCHEMA_KEYS = (
    "scenario",
    "title",
    "summary",
    "config",
    "metrics",
    "events",
    "checks",
    "extras",
)

#: The pinned keys of ``metrics["dissemination"]``.
DISSEMINATION_METRIC_KEYS = (
    "pulls",
    "bytes_downloaded",
    "average_pull_latency_seconds",
    "freshness_applied",
    "issuances_applied",
    "serials_applied",
    "resyncs",
    "errors",
    "root_cache_hits",
    "root_signatures_verified",
    "stale_heads_ignored",
    "replays_rejected",
    "key_rotations_applied",
)

#: The pinned keys of each cache section under ``metrics["hot_path"]``
#: (matching :meth:`repro.perf.cache.CacheStats.as_dict`).
CACHE_METRIC_KEYS = (
    "hits",
    "misses",
    "evictions",
    "invalidations",
    "hit_rate",
)

#: The pinned keys of ``metrics["replication"]`` — the WAL-segment
#: streaming accounting, present only in region-outage reports.
REPLICATION_METRIC_KEYS = (
    "segments_published",
    "segments_applied",
    "segments_from_peer",
    "segment_bytes_downloaded",
    "peer_syncs",
    "cold_sync_fallbacks",
    "segments_rejected",
)

#: The pinned keys of ``metrics["fleet"]`` — the event engine's per-run
#: concurrency accounting, present in every report.
FLEET_METRIC_KEYS = (
    "fleet_size",
    "scheduler_events_processed",
    "mailbox_depth_max",
    "per_agent_mailbox_depth",
    "overlap_factor",
    "peak_concurrent_pulls",
    "handshakes_served",
)


@dataclass
class ScenarioCheck:
    """One pass/fail assertion the runner made about the scenario's outcome."""

    name: str
    passed: bool
    detail: str = ""

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class ScenarioReport:
    """The structured result of one scenario run."""

    scenario: str
    title: str
    summary: str
    config: Dict[str, Any]
    metrics: Dict[str, Any]
    events: List[Dict[str, Any]] = field(default_factory=list)
    checks: List[ScenarioCheck] = field(default_factory=list)
    extras: Dict[str, Any] = field(default_factory=dict)

    # -- outcomes ------------------------------------------------------------------

    @property
    def all_checks_passed(self) -> bool:
        """Whether every recorded check passed."""
        return all(check.passed for check in self.checks)

    def failed_checks(self) -> List[ScenarioCheck]:
        """The checks that did not pass."""
        return [check for check in self.checks if not check.passed]

    # -- serialisation -------------------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        """The report as a JSON-serialisable dict with the pinned schema."""
        return {
            "scenario": self.scenario,
            "title": self.title,
            "summary": self.summary,
            "config": self.config,
            "metrics": self.metrics,
            "events": self.events,
            "checks": [check.as_dict() for check in self.checks],
            "extras": self.extras,
        }

    def to_json(self) -> str:
        """The report as an indented JSON document."""
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def to_markdown(self) -> str:
        """The report rendered for humans."""
        lines: List[str] = [f"# Scenario report: {self.title}", ""]
        lines.append(self.summary)
        lines.append("")

        lines.append("## Configuration")
        lines.append("")
        lines.append("```")
        config_rows = [(key, _render_value(value)) for key, value in sorted(self.config.items())]
        lines.append(format_table(["parameter", "value"], config_rows))
        lines.append("```")
        lines.append("")

        lines.append("## Metrics")
        lines.append("")
        lines.append("```")
        lines.append(format_table(["metric", "value"], _flatten(self.metrics)))
        lines.append("```")
        lines.append("")

        if self.events:
            lines.append("## Timeline")
            lines.append("")
            lines.append("```")
            event_rows = [
                (event.get("period", ""), event.get("kind", ""), event.get("detail", ""))
                for event in self.events
            ]
            lines.append(format_table(["period", "event", "detail"], event_rows))
            lines.append("```")
            lines.append("")

        lines.append("## Checks")
        lines.append("")
        for check in self.checks:
            mark = "PASS" if check.passed else "FAIL"
            detail = f" — {check.detail}" if check.detail else ""
            lines.append(f"- **{mark}** `{check.name}`{detail}")
        lines.append("")

        for section, payload in sorted(self.extras.items()):
            lines.append(f"## {section.replace('_', ' ').title()}")
            lines.append("")
            lines.append("```")
            if isinstance(payload, dict):
                lines.append(format_table(["key", "value"], _flatten(payload)))
            else:
                lines.append(_render_value(payload))
            lines.append("```")
            lines.append("")
        return "\n".join(lines)

    def write(self, out_dir: Path) -> Tuple[Path, Path]:
        """Write ``<name>.json`` and ``<name>.md`` under ``out_dir``."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        json_path = out_dir / f"{self.scenario}.json"
        md_path = out_dir / f"{self.scenario}.md"
        json_path.write_text(self.to_json() + "\n", encoding="utf-8")
        md_path.write_text(self.to_markdown(), encoding="utf-8")
        return json_path, md_path


def _render_value(value: Any) -> str:
    """Human-friendly scalar rendering (floats trimmed, bytes humanised)."""
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, (list, tuple)):
        return ", ".join(_render_value(item) for item in value) or "—"
    return str(value)


def _flatten(mapping: Dict[str, Any], prefix: str = "") -> List[Tuple[str, str]]:
    """Flatten nested metric dicts into dotted (key, rendered value) rows."""
    rows: List[Tuple[str, str]] = []
    for key, value in mapping.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, prefix=f"{dotted}."))
        elif dotted.endswith(("bytes", "bytes_downloaded", "storage_bytes")) and isinstance(
            value, (int, float)
        ):
            rows.append((dotted, human_bytes(value)))
        else:
            rows.append((dotted, _render_value(value)))
    return rows
