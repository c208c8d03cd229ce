"""Tests for CRLSet, short-lived certificates, log-based schemes, and RevCast."""

import pytest

from repro.baselines.base import CheckContext, GroundTruth
from repro.baselines.crlset import CRLSetScheme
from repro.baselines.logbased import ClientDrivenLogScheme, ServerDrivenLogScheme
from repro.baselines.revcast import BroadcastSchedule, RevCastScheme
from repro.pki.serial import SerialNumber

DAY = 86_400.0


@pytest.fixture()
def truth():
    truth = GroundTruth(ca_name="Baseline-CA")
    for value in range(1, 501):
        truth.revoke(SerialNumber(value), now=1_000.0 + value)
    return truth


def ctx(serial: int, now: float, client: str = "client-1", server: str = "site.example"):
    return CheckContext(client_id=client, server_name=server, serial=SerialNumber(serial), now=now)


class TestCRLSet:
    def test_coverage_limits_what_clients_learn(self, truth):
        scheme = CRLSetScheme(truth, coverage=0.01, mean_client_update_lag=0.0)
        hits = sum(
            1
            for value in range(1, 501)
            if scheme.check(ctx(value, now=10_000 + 3 * DAY)).revoked
        )
        # Roughly 1 % of revocations are covered; certainly not all of them.
        assert 0 < hits < 100

    def test_full_coverage_finds_revocations_after_update(self, truth):
        scheme = CRLSetScheme(truth, coverage=1.0, mean_client_update_lag=0.0)
        result = scheme.check(ctx(42, now=10_000 + 3 * DAY))
        assert result.revoked is True

    def test_no_connection_during_handshake(self, truth):
        scheme = CRLSetScheme(truth, coverage=1.0, mean_client_update_lag=0.0)
        scheme.check(ctx(42, now=10_000))
        result = scheme.check(ctx(43, now=10_001))
        assert result.connections_made == 0
        assert result.privacy_leaked_to == []

    def test_update_lag_delays_coverage(self, truth):
        scheme = CRLSetScheme(truth, coverage=1.0, mean_client_update_lag=30 * DAY, seed=1)
        result = scheme.check(ctx(42, now=10_000))
        # The client has not applied any set yet; the revocation is missed.
        assert result.revoked is False

    def test_invalid_coverage_rejected(self, truth):
        with pytest.raises(ValueError):
            CRLSetScheme(truth, coverage=0.0)


class TestLogBased:
    def test_client_driven_costs_a_connection_and_privacy(self, truth):
        scheme = ClientDrivenLogScheme(truth)
        result = scheme.check(ctx(42, now=100_000))
        assert result.revoked is True
        assert result.connections_made == 1
        assert result.privacy_leaked_to == ["revocation log"]

    def test_server_driven_staples_without_client_connection(self, truth):
        scheme = ServerDrivenLogScheme(truth)
        result = scheme.check(ctx(42, now=100_000))
        assert result.revoked is True
        assert result.connections_made == 0
        assert result.privacy_leaked_to == []

    def test_log_mmd_delays_visibility(self, truth):
        scheme = ClientDrivenLogScheme(truth, mmd_seconds=4 * 3600)
        scheme.check(ctx(10_000, now=100_000))  # publishes a tree head
        truth.revoke(SerialNumber(10_000), now=100_500)
        within_mmd = scheme.check(ctx(10_000, now=101_000))
        assert within_mmd.revoked is False
        after_mmd = scheme.check(ctx(10_000, now=100_000 + 5 * 3600))
        assert after_mmd.revoked is True

    def test_server_driven_fetch_period_adds_staleness(self, truth):
        scheme = ServerDrivenLogScheme(truth, mmd_seconds=3600, server_fetch_period=6 * 3600)
        scheme.check(ctx(10_000, now=100_000))
        truth.revoke(SerialNumber(10_000), now=100_100)
        stale = scheme.check(ctx(10_000, now=100_000 + 2 * 3600))
        assert stale.revoked is False

    def test_transparency_provided(self, truth):
        assert "T" not in ClientDrivenLogScheme(truth).properties().violated_letters()
        assert "T" not in ServerDrivenLogScheme(truth).properties().violated_letters()


class TestRevCast:
    def test_broadcast_backlog_scales_with_burst(self, truth):
        schedule = BroadcastSchedule(truth)
        # The last revocation of a burst of n goes on air at queue position n - 1.
        one_hour_burst = schedule.airtime_for(5_440 - 1)
        heartbleed_burst = schedule.airtime_for(80_000 - 1)
        assert heartbleed_burst > one_hour_burst
        # 80k revocations at ~280 bits each over 421.8 bit/s takes > 14 hours.
        assert heartbleed_burst > 14 * 3600

    def test_client_receives_revocations_after_airtime(self, truth):
        scheme = RevCastScheme(truth)
        early = scheme.check(ctx(1, now=1_001.5))
        assert early.revoked is False
        # Still queued for broadcast: the answer is stale until it airs.
        on_air_at = scheme.schedule.broadcast_time(1)
        assert early.staleness_bound_seconds == on_air_at - 1_001.5 > 0
        late = scheme.check(ctx(1, now=1_100.0))
        assert late.revoked is True

    def test_no_connection_and_no_privacy_leak(self, truth):
        scheme = RevCastScheme(truth)
        result = scheme.check(ctx(1, now=1_000_000.0))
        assert result.connections_made == 0
        assert result.privacy_leaked_to == []

    def test_unknown_serial_never_revoked(self, truth):
        scheme = RevCastScheme(truth)
        assert scheme.check(ctx(999_999, now=1_000_000.0)).revoked is False
