"""The scenario registry: named, discoverable scenario configurations.

Scenarios register once at import time (see :mod:`repro.scenarios.library`)
and are looked up by name from the CLI, the examples, and the tests.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ConfigurationError
from repro.scenarios.config import ScenarioConfig

_REGISTRY: Dict[str, ScenarioConfig] = {}


def register(config: ScenarioConfig) -> ScenarioConfig:
    """Add ``config`` to the registry; duplicate names are rejected."""
    if config.name in _REGISTRY:
        raise ConfigurationError(f"scenario {config.name!r} is already registered")
    _REGISTRY[config.name] = config
    return config


def get(name: str) -> ScenarioConfig:
    """The registered scenario called ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; registered scenarios: {names()}"
        ) from None


def names() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(_REGISTRY)


def all_scenarios() -> List[ScenarioConfig]:
    """All registered scenario configs, sorted by name."""
    return [_REGISTRY[name] for name in names()]
