"""Registry round-trip and error behaviour."""

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import all_scenarios, get, names, register, registry
from repro.scenarios.config import AgentSpec, ScenarioConfig, WorkloadSpec
from repro.scenarios.config import RevocationEvent

EXPECTED_BUILTINS = {
    "quickstart",
    "heartbleed",
    "iot-long-lived",
    "ca-audit-gossip",
    "flash-crowd",
    "degraded-ra",
    "tampered-cdn",
}


def _minimal_config(name: str) -> ScenarioConfig:
    return ScenarioConfig(
        name=name,
        title="t",
        summary="s",
        description="d",
        delta_seconds=10,
        duration_periods=1,
        agents=(AgentSpec("ra"),),
        workload=WorkloadSpec(
            kind="scripted", events=(RevocationEvent(at_period=0, count=1),)
        ),
    )


def test_builtin_scenarios_are_registered():
    assert EXPECTED_BUILTINS <= set(names())
    assert len(names()) >= 6


def test_round_trip_by_name():
    for config in all_scenarios():
        assert get(config.name) is config
        assert config.name in names()


def test_unknown_name_raises_configuration_error():
    with pytest.raises(ConfigurationError, match="unknown scenario"):
        get("no-such-scenario")


def test_duplicate_registration_rejected(monkeypatch):
    # A copy of the registry, so the scenario registered here leaves with the test.
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    register(_minimal_config("registry-test-duplicate"))
    with pytest.raises(ConfigurationError, match="already registered"):
        register(_minimal_config("registry-test-duplicate"))


def test_names_are_sorted():
    assert names() == sorted(names())
