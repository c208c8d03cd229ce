"""Declarative operational scenarios and the ``python -m repro`` engine.

The package turns the paper's motivating stories — Heartbleed-scale mass
revocation, mid-session revocation on long-lived connections, equivocating
CAs, degraded infrastructure — into registered, runnable configurations:

* :mod:`repro.scenarios.config` — the frozen :class:`ScenarioConfig` family;
* :mod:`repro.scenarios.engine` — the discrete-event fleet engine that
  executes a config against the real ``ritm``/``cdn``/``workloads`` layers;
* :mod:`repro.scenarios.report` — the pinned-schema :class:`ScenarioReport`
  (JSON + Markdown);
* :mod:`repro.scenarios.registry` — named lookup used by the CLI and tests;
* :mod:`repro.scenarios.library` — the built-in scenarios (imported here so
  registration happens on package import);
* :mod:`repro.scenarios.cli` — the ``list`` / ``describe`` / ``run`` verbs.
"""

from repro.scenarios import library as _library  # noqa: F401  (registers built-ins)
from repro.scenarios.config import (
    AgentSpec,
    FaultSpec,
    RevocationEvent,
    ScenarioConfig,
    WorkloadSpec,
)
from repro.scenarios.registry import all_scenarios, get, names, register
from repro.scenarios.report import (
    CACHE_METRIC_KEYS,
    DISSEMINATION_METRIC_KEYS,
    FLEET_METRIC_KEYS,
    REPLICATION_METRIC_KEYS,
    REPORT_SCHEMA_KEYS,
    ScenarioCheck,
    ScenarioReport,
)
from repro.scenarios.engine.runner import ScenarioRunner, run_scenario

__all__ = [
    "ScenarioConfig",
    "WorkloadSpec",
    "RevocationEvent",
    "AgentSpec",
    "FaultSpec",
    "ScenarioReport",
    "ScenarioCheck",
    "REPORT_SCHEMA_KEYS",
    "DISSEMINATION_METRIC_KEYS",
    "CACHE_METRIC_KEYS",
    "FLEET_METRIC_KEYS",
    "REPLICATION_METRIC_KEYS",
    "ScenarioRunner",
    "run_scenario",
    "register",
    "get",
    "names",
    "all_scenarios",
]
