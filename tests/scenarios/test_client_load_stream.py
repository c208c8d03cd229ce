"""Streamed client load: soak scenario and config validation.

Two guarantees pinned here:

* **Soak pins** — the registered ``soak`` scenario's smoke run passes all
  of its checks (including the three soak verdicts) and is deterministic
  once the wall-clock/RSS observability fields are masked out.
* **Config validation** — a ``client_stream`` spec rejects exactly what the
  stream config it builds rejects.

Client load has one shape, a stream: ``thundering-herd`` declares a flat one
(``diurnal_amplitude=0.0``), ``soak`` a diurnal one.
"""

import dataclasses
import json

import pytest

from repro.scenarios import get, run_scenario
from repro.scenarios.config import ClientStreamSpec, ConfigurationError
from repro.workloads.streaming import StreamConfig, StreamingWorkload


def masked_payload(report):
    """Report dict with the intentionally nondeterministic fields removed."""
    payload = report.to_json_dict()
    soak = payload.get("extras", {}).get("soak")
    if soak:
        soak["throughput"]["wall_seconds"] = None
        soak["throughput"]["events_per_second"] = None
        for sample in soak["timeline"]:
            sample.pop("wall_seconds", None)
            sample.pop("max_rss_kb", None)
    return payload


def test_soak_smoke_passes_every_check():
    report = run_scenario(get("soak"), smoke=True)
    failed = [check.name for check in report.failed_checks()]
    assert not failed, f"soak failed checks: {failed}"
    names = {check.name for check in report.checks}
    assert {
        "soak-verdicts-match-oracle",
        "memory-bounded",
        "all-subsystems-exercised",
        "client-load-served",
    } <= names
    soak = report.extras["soak"]
    assert soak["verdict_mismatches"] == 0
    assert soak["memory"]["bounded"] is True
    assert soak["subsystems"]["handshakes_served"] == soak["events_total"]
    assert len(soak["timeline"]) > 0
    # replication metrics surface because the soak opts into segment streaming
    assert report.metrics["replication"]["segments_applied"] > 0


def test_soak_smoke_is_deterministic_modulo_wall_clock():
    first = masked_payload(run_scenario(get("soak"), smoke=True))
    second = masked_payload(run_scenario(get("soak"), smoke=True))
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


@pytest.mark.parametrize("events_total", [None, 7, 1_001, 100_000])
@pytest.mark.parametrize("smoke", [False, True])
def test_a_flat_stream_spreads_its_events_evenly_over_the_periods(smoke, events_total):
    """``thundering-herd``'s load is a flat stream: every period holds
    ``events_total / periods`` events, give or take one."""
    config = get("thundering-herd").smoke() if smoke else get("thundering-herd")
    spec = config.client_stream
    assert spec.diurnal_amplitude == 0.0
    if events_total is not None:
        spec = dataclasses.replace(spec, events_total=events_total)
    periods, delta, start = config.duration_periods, config.delta_seconds, 1_400_000_000.0
    workload = StreamingWorkload(spec.stream_config(periods * delta, start_time=start))
    counts = workload.period_counts([start + p * delta for p in range(periods + 1)])
    assert sum(counts) == spec.events_total
    assert all(abs(count - spec.events_total / periods) <= 1 for count in counts)


def test_client_stream_spec_validates_positive_fields():
    with pytest.raises(ConfigurationError):
        ClientStreamSpec(clients=0, sites=5, events_total=20)
    with pytest.raises(ConfigurationError):
        ClientStreamSpec(clients=10, sites=5, events_total=20, batch_size=0)


@pytest.mark.parametrize(
    "bad",
    [
        {"clients": 0},
        {"sites": 0},
        {"events_total": 0},
        {"batch_size": 0},
        {"zipf_exponent": 0.0},
        {"diurnal_amplitude": 1.0},
        {"diurnal_amplitude": -0.1},
    ],
)
def test_the_spec_rejects_exactly_what_the_stream_config_it_builds_rejects(bad):
    """One validation: the spec's is ``StreamConfig``'s, and both raise
    ``ConfigurationError`` (never a bare ``ValueError``)."""
    good = {"clients": 10, "sites": 5, "events_total": 20}
    spec = ClientStreamSpec(**good)
    assert spec.stream_config(600, start_time=7.0) == StreamConfig(
        duration_seconds=600, start_time=7.0, **good
    )
    with pytest.raises(ConfigurationError):
        ClientStreamSpec(**{**good, **bad})
    with pytest.raises(ConfigurationError):
        StreamConfig(duration_seconds=600, **{**good, **bad})
    for knob in ({"duration_seconds": 0}, {"lifetime_mix": ()}, {"lifetime_mix": ((0, 1.0),)}):
        with pytest.raises(ConfigurationError):
            StreamConfig(**{"duration_seconds": 600, **good, **knob})


def test_smoke_overrides_reach_the_stream_spec():
    config = get("soak")
    smoke = config.smoke()
    assert smoke.client_stream is not None
    assert smoke.client_stream.clients < config.client_stream.clients
    assert smoke.client_stream.events_total < config.client_stream.events_total
    # non-stream fields survive the partial override
    assert smoke.client_stream.zipf_exponent == config.client_stream.zipf_exponent


def test_with_overrides_replaces_stream_mapping_fields():
    config = get("soak")
    varied = config.with_overrides(client_stream={"events_total": 99})
    assert varied.client_stream.events_total == 99
    assert varied.client_stream.clients == config.client_stream.clients
