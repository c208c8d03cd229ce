"""Validation and override behaviour of the scenario config family."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.scenarios.config import (
    AgentSpec,
    FaultSpec,
    RevocationEvent,
    ScenarioConfig,
    WorkloadSpec,
)


def make_config(**overrides) -> ScenarioConfig:
    defaults = dict(
        name="cfg-test",
        title="t",
        summary="s",
        description="d",
        delta_seconds=10,
        duration_periods=4,
        agents=(AgentSpec("ra-1"),),
        workload=WorkloadSpec(
            kind="scripted", events=(RevocationEvent(at_period=1, count=5),)
        ),
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def test_valid_config_builds():
    config = make_config()
    assert config.attack_window_seconds() == 20
    assert config.effective_chain_length(4) >= 4


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(name=""), "name cannot be empty"),
        (dict(delta_seconds=0), "delta_seconds must be positive"),
        (dict(agents=()), "at least one agent"),
        (dict(agents=(AgentSpec("a"), AgentSpec("a"))), "unique"),
        (dict(store_engine="imaginary"), "unknown store engine"),
        (dict(compare_engines=("imaginary",)), "unknown comparison engine"),
        (dict(baseline="crl"), "unknown baseline"),
        (dict(duration_periods=0), "duration_periods must be at least 1"),
        (dict(long_lived_session=True), "requires victim_host"),
        (dict(baseline="ocsp-stapling"), "requires victim_host"),
    ],
)
def test_invalid_configs_rejected(overrides, message):
    with pytest.raises(ConfigurationError, match=message):
        make_config(**overrides)


def test_event_after_end_rejected():
    with pytest.raises(ConfigurationError, match="after the scenario ends"):
        make_config(
            workload=WorkloadSpec(
                kind="scripted", events=(RevocationEvent(at_period=9, count=1),)
            )
        )


def test_fault_after_end_rejected():
    with pytest.raises(ConfigurationError, match="starts after the scenario ends"):
        make_config(faults=(FaultSpec(kind="ca-outage", at_period=9),))


def test_unknown_fault_kind_rejected():
    with pytest.raises(ConfigurationError, match="unknown fault kind"):
        FaultSpec(kind="cosmic-rays", at_period=0)


def test_restart_fault_unknown_agent_rejected():
    with pytest.raises(ConfigurationError, match="unknown agent"):
        make_config(faults=(FaultSpec(kind="ra-restart", at_period=0, agent="ghost"),))


def test_empty_event_rejected():
    with pytest.raises(ConfigurationError, match="must revoke"):
        RevocationEvent(at_period=0, count=0)


def test_unknown_region_rejected():
    with pytest.raises(ConfigurationError, match="unknown region"):
        AgentSpec("ra", region="Atlantis")


def test_trace_workload_validation():
    with pytest.raises(ConfigurationError, match="bad trace window date"):
        WorkloadSpec(kind="trace", trace_start="not-a-date", trace_end="2014-04-20")
    with pytest.raises(ConfigurationError, match="not be after"):
        WorkloadSpec(kind="trace", trace_start="2014-04-20", trace_end="2014-04-14")
    with pytest.raises(ConfigurationError, match="cannot carry scripted events"):
        WorkloadSpec(
            kind="trace",
            trace_start="2014-04-14",
            trace_end="2014-04-20",
            events=(RevocationEvent(at_period=0, count=1),),
        )


def test_trace_scenario_requires_zero_duration():
    trace = WorkloadSpec(kind="trace", trace_start="2014-04-14", trace_end="2014-04-20")
    with pytest.raises(ConfigurationError, match="duration_periods=0"):
        make_config(workload=trace, duration_periods=3)


def test_ca_share_bounds():
    with pytest.raises(ConfigurationError, match="ca_share"):
        WorkloadSpec(kind="scripted", ca_share=0.0)
    with pytest.raises(ConfigurationError, match="ca_share"):
        WorkloadSpec(kind="scripted", ca_share=1.5)


def test_with_overrides_revalidates():
    config = make_config()
    with pytest.raises(ConfigurationError):
        config.with_overrides(delta_seconds=-1)


def test_with_overrides_accepts_workload_dict():
    config = make_config()
    updated = config.with_overrides(workload={"serial_seed": 99})
    assert updated.workload.serial_seed == 99
    assert updated.workload.events == config.workload.events
    # the original is untouched (frozen dataclasses)
    assert config.workload.serial_seed != 99 or dataclasses.replace(config) == config


def test_smoke_applies_overrides():
    config = make_config(smoke_overrides={"duration_periods": 2, "workload": {"events": ()}})
    smoked = config.smoke()
    assert smoked.duration_periods == 2
    assert smoked.workload.events == ()
    # no overrides → same config back
    assert make_config().smoke() == make_config()


def test_fault_covers():
    fault = FaultSpec(kind="ca-outage", at_period=2, duration_periods=3)
    assert not fault.covers(1)
    assert fault.covers(2)
    assert fault.covers(4)
    assert not fault.covers(5)


class TestCrashRestartValidation:
    """The crash/durable restart-mode fields on FaultSpec."""

    def test_crash_and_durable_restart_builds(self):
        fault = FaultSpec(
            kind="ra-restart", at_period=1, crash=True, durable=True
        )
        config = make_config(faults=(fault,))
        assert config.faults[0].durable is True

    def test_cold_crash_builds(self):
        fault = FaultSpec(kind="ra-restart", at_period=1, crash=True)
        assert make_config(faults=(fault,)).faults[0].crash is True

    def test_durable_requires_crash(self):
        with pytest.raises(ConfigurationError, match="crash=True"):
            FaultSpec(kind="ra-restart", at_period=1, durable=True)

    @pytest.mark.parametrize("kind", ["ca-outage", "tampered-batch"])
    def test_crash_fields_only_for_ra_restart(self, kind):
        with pytest.raises(ConfigurationError, match="ra-restart"):
            FaultSpec(kind=kind, at_period=1, crash=True)


class TestAdversarialFaultValidation:
    """The replay/rotation/equivocation fault kinds and rotation knobs."""

    def test_replayed_head_builds(self):
        config = make_config(
            duration_periods=6, faults=(FaultSpec(kind="replayed-head", at_period=4),)
        )
        assert config.faults[0].kind == "replayed-head"

    def test_rotation_knobs_build(self):
        config = make_config(
            duration_periods=8, key_rotation_periods=3, key_overlap_periods=1
        )
        assert config.key_rotation_periods == 3

    def test_retired_key_forgery_requires_rotation(self):
        with pytest.raises(ConfigurationError, match="needs key_rotation_periods"):
            make_config(
                duration_periods=8,
                faults=(FaultSpec(kind="retired-key-forgery", at_period=6),),
            )

    def test_retired_key_forgery_must_fire_after_overlap_expiry(self):
        # Rotation at period 3, overlap 1 period → the forgery only means
        # anything from period 5 on (the retired key is still honest before).
        with pytest.raises(ConfigurationError, match="overlap window has expired"):
            make_config(
                duration_periods=8,
                key_rotation_periods=3,
                key_overlap_periods=1,
                faults=(FaultSpec(kind="retired-key-forgery", at_period=4),),
            )

    def test_negative_rotation_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot be negative"):
            make_config(key_rotation_periods=-1)

    def test_overlap_must_be_shorter_than_rotation(self):
        with pytest.raises(ConfigurationError, match="smaller than key_rotation"):
            make_config(
                duration_periods=8, key_rotation_periods=2, key_overlap_periods=2
            )

    def _two_region_agents(self):
        return (AgentSpec("honest", region="Europe"), AgentSpec("target", region="Japan"))

    def test_equivocating_ca_builds_with_split_regions(self):
        config = make_config(
            agents=self._two_region_agents(),
            faults=(FaultSpec(kind="equivocating-ca", at_period=2, agent="target"),),
        )
        assert config.faults[0].agent == "target"

    def test_equivocating_ca_needs_two_agents(self):
        with pytest.raises(ConfigurationError, match="at least two agents"):
            make_config(faults=(FaultSpec(kind="equivocating-ca", at_period=2),))

    def test_equivocating_ca_needs_an_honest_region(self):
        # Both RAs in the targeted region would both swallow the forgery —
        # nobody is left holding the honest view to gossip against.
        with pytest.raises(ConfigurationError, match="different region"):
            make_config(
                agents=(
                    AgentSpec("honest", region="Europe"),
                    AgentSpec("target", region="Europe"),
                ),
                faults=(FaultSpec(kind="equivocating-ca", at_period=2, agent="target"),),
            )

    def test_equivocating_ca_unknown_target_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown agent"):
            make_config(
                agents=self._two_region_agents(),
                faults=(FaultSpec(kind="equivocating-ca", at_period=2, agent="ghost"),),
            )

class TestShardedValidation:
    """Sharded mode (§VIII) validates only its own knobs: a scripted workload,
    a width, and a lifetime (what it composes with is covered by
    ``test_sharded_composition.py``)."""

    def make_sharded(self, **overrides):
        defaults = dict(sharded=True, shard_width_periods=2, cert_lifetime_periods=3)
        defaults.update(overrides)
        return make_config(**defaults)

    def test_valid_sharded_config_builds(self):
        config = self.make_sharded()
        assert config.sharded
        assert config.shard_width_periods == 2

    def test_sharded_requires_width(self):
        with pytest.raises(ConfigurationError, match="shard_width_periods"):
            self.make_sharded(shard_width_periods=0)

    def test_sharded_requires_lifetime(self):
        with pytest.raises(ConfigurationError, match="cert_lifetime_periods"):
            self.make_sharded(cert_lifetime_periods=0)

    def test_sharded_requires_scripted_workload(self):
        trace = WorkloadSpec(
            kind="trace", trace_start="2014-04-14", trace_end="2014-04-15"
        )
        with pytest.raises(ConfigurationError, match="scripted"):
            self.make_sharded(workload=trace, duration_periods=0)

    def test_shard_knobs_require_sharded(self):
        with pytest.raises(ConfigurationError, match="require sharded"):
            make_config(shard_width_periods=2)

    def test_prune_cadence_validated(self):
        with pytest.raises(ConfigurationError, match="prune_every_periods"):
            make_config(prune_every_periods=0)
