"""Tests for the RITM configuration and the RA's connection state table."""

import pytest

from repro.crypto.signing import KeyPair
from repro.errors import ConfigurationError
from repro.net.packet import make_flow
from repro.pki.ca import CertificationAuthority
from repro.pki.serial import SerialNumber
from repro.ritm.config import PAPER_DELTA_SWEEP, RITMConfig
from repro.ritm.state import ConnectionState, flow_key
from repro.tls.connection import HandshakeStage


class TestRITMConfig:
    def test_defaults(self):
        config = RITMConfig()
        assert config.delta_seconds == 10
        assert config.attack_window_seconds == 20

    def test_attack_window_is_two_delta(self):
        assert RITMConfig(delta_seconds=60).attack_window_seconds == 120

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
            {"shard_width_seconds": 0},
            {"shard_width_seconds": -86_400},
        ],
    )
    def test_invalid_configurations_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RITMConfig(**kwargs)

    def test_sharded_defaults(self):
        config = RITMConfig(sharded=True)
        assert config.shard_width_seconds == 90 * 86_400


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

    def test_adopt_takes_the_leafs_issuer_serial_and_expiry(self):
        issuing = CertificationAuthority("Issuing", key_seed=b"state-ca")
        chain = issuing.issue_chain_for(
            "adopt.example", KeyPair.generate(b"state-server").public, now=1_000
        )
        state = ConnectionState(flow=make_flow("1.1.1.1", 1, "2.2.2.2"))
        state.adopt(chain)
        assert state.ca_name == chain.leaf.issuer == "Issuing"
        assert state.serial == chain.leaf.serial
        assert state.certificate_expiry == chain.leaf.not_after
        assert state.chain is chain
        assert state.knows_certificate()

    def test_begin_handshake_forgets_the_previous_session_and_certificate(self):
        state = ConnectionState(flow=make_flow("1.1.1.1", 1, "2.2.2.2"))
        state.stage = HandshakeStage.ESTABLISHED
        state.session_id = b"session"
        state.ca_name, state.serial, state.certificate_expiry = "CA1", SerialNumber(5), 99
        state.mark_status_sent(40.0)
        state.begin_handshake()
        assert state.stage == HandshakeStage.CLIENT_HELLO
        assert state.session_id == b""
        assert (state.ca_name, state.serial, state.certificate_expiry, state.chain) == (
            None,
            None,
            None,
            None,
        )
        assert not state.knows_certificate()
        # When the last status went out is about the flow, not the handshake.
        assert state.last_status == 40.0


class TestFlowKey:
    def test_flow_key_is_the_same_in_both_directions(self):
        flow = make_flow("9.9.9.9", 50_000, "2.2.2.2", 443)
        assert flow_key(flow) == flow_key(flow.reversed())
        assert flow_key(flow) == ("2.2.2.2", 443, "9.9.9.9", 50_000, flow.protocol)
        assert flow_key(flow) != flow_key(make_flow("9.9.9.9", 50_001, "2.2.2.2", 443))
