"""Tests for the RITM configuration and the RA's connection state table."""

import pytest

from repro.errors import ConfigurationError
from repro.net.packet import make_flow
from repro.pki.serial import SerialNumber
from repro.ritm.config import PAPER_DELTA_SWEEP, DeploymentModel, RITMConfig
from repro.ritm.state import ConnectionState, ConnectionTable
from repro.tls.connection import HandshakeStage


class TestRITMConfig:
    def test_defaults(self):
        config = RITMConfig()
        assert config.delta_seconds == 10
        assert config.attack_window_seconds == 20
        assert config.deployment == DeploymentModel.CLOSE_TO_CLIENT

    def test_attack_window_is_two_delta(self):
        assert RITMConfig(delta_seconds=60).attack_window_seconds == 120

    def test_attack_window_with_custom_tolerance(self):
        config = RITMConfig(delta_seconds=60, freshness_tolerance_periods=2)
        assert config.attack_window_seconds == 180

    def test_with_delta_preserves_other_fields(self):
        base = RITMConfig(delta_seconds=10, prove_full_chain=True)
        changed = base.with_delta(3600)
        assert changed.delta_seconds == 3600
        assert changed.prove_full_chain

    def test_for_label_matches_paper_sweep(self):
        for label, seconds in PAPER_DELTA_SWEEP.items():
            assert RITMConfig.for_label(label).delta_seconds == seconds

    def test_for_unknown_label_rejected(self):
        with pytest.raises(ConfigurationError):
            RITMConfig.for_label("2 weeks")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta_seconds": 0},
            {"delta_seconds": -5},
            {"chain_length": 0},
            {"freshness_tolerance_periods": -1},
            {"digest_size": 0},
            {"digest_size": 64},
            {"shard_width_seconds": 0},
            {"shard_width_seconds": -86_400},
            {"prune_every_periods": 0},
        ],
    )
    def test_invalid_configurations_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RITMConfig(**kwargs)

    def test_sharded_defaults(self):
        config = RITMConfig(sharded=True)
        assert config.shard_width_seconds == 90 * 86_400
        assert config.prune_every_periods == 1

    def test_with_delta_preserves_sharding_fields(self):
        base = RITMConfig(sharded=True, shard_width_seconds=7 * 86_400, prune_every_periods=2)
        changed = base.with_delta(3600)
        assert changed.sharded
        assert changed.shard_width_seconds == 7 * 86_400
        assert changed.prune_every_periods == 2


class TestConnectionState:
    def test_needs_status_after_delta(self):
        state = ConnectionState(flow=make_flow("1.1.1.1", 1, "2.2.2.2"))
        state.mark_status_sent(100.0)
        assert not state.needs_status(105.0, delta_seconds=10)
        assert state.needs_status(110.0, delta_seconds=10)

    def test_knows_certificate(self):
        state = ConnectionState(flow=make_flow("1.1.1.1", 1, "2.2.2.2"))
        assert not state.knows_certificate()
        state.ca_name = "CA1"
        state.serial = SerialNumber(5)
        assert state.knows_certificate()

    def test_is_established(self):
        state = ConnectionState(flow=make_flow("1.1.1.1", 1, "2.2.2.2"))
        assert not state.is_established()
        state.stage = HandshakeStage.ESTABLISHED
        assert state.is_established()


class TestConnectionTable:
    def test_create_and_lookup_in_both_directions(self):
        table = ConnectionTable()
        flow = make_flow("1.1.1.1", 1234, "2.2.2.2", 443)
        table.create(flow, now=0.0)
        assert table.lookup(flow) is not None
        assert table.lookup(flow.reversed()) is not None
        assert len(table) == 1

    def test_remove(self):
        table = ConnectionTable()
        flow = make_flow("1.1.1.1", 1234, "2.2.2.2", 443)
        table.create(flow, now=0.0)
        table.remove(flow.reversed())
        assert table.lookup(flow) is None

    def test_expire_idle(self):
        table = ConnectionTable(idle_timeout_seconds=100)
        active = make_flow("1.1.1.1", 1, "2.2.2.2", 443)
        idle = make_flow("1.1.1.1", 2, "2.2.2.2", 443)
        table.create(active, now=0.0)
        table.create(idle, now=0.0)
        table.touch(active, now=500.0)
        expired = table.expire_idle(now=550.0)
        assert expired == 1
        assert table.lookup(active) is not None
        assert table.lookup(idle) is None
