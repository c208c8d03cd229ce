"""Tests for the CRL, delta-CRL, OCSP, and OCSP-stapling baselines."""

import pytest

from repro.baselines.base import CheckContext, GroundTruth
from repro.baselines.crl import CRLScheme, DeltaCRLScheme
from repro.baselines.ocsp import OCSPScheme, OCSPStaplingScheme
from repro.pki.serial import SerialNumber

DAY = 86_400.0


@pytest.fixture()
def truth():
    truth = GroundTruth(ca_name="Baseline-CA")
    truth.revoke(SerialNumber(100), now=1_000.0)
    truth.revoke(SerialNumber(200), now=2_000.0)
    return truth


def ctx(serial: int, now: float, client: str = "client-1", server: str = "site.example"):
    return CheckContext(client_id=client, server_name=server, serial=SerialNumber(serial), now=now)


class TestGroundTruth:
    def test_revocation_time_respected(self, truth):
        assert truth.is_revoked(SerialNumber(100), now=1_500)
        assert not truth.is_revoked(SerialNumber(100), now=500)
        assert not truth.is_revoked(SerialNumber(999))
        assert truth.count(now=1_500) == 1


class TestCRL:
    def test_first_check_downloads_full_crl(self, truth):
        scheme = CRLScheme(truth)
        result = scheme.check(ctx(100, now=5_000))
        assert result.revoked is True
        assert result.connections_made == 1
        assert result.bytes_downloaded > 0
        assert "CA distribution point" in result.privacy_leaked_to

    def test_cached_crl_avoids_second_download(self, truth):
        scheme = CRLScheme(truth)
        scheme.check(ctx(100, now=5_000))
        result = scheme.check(ctx(999, now=6_000))
        assert result.connections_made == 0
        assert result.revoked is False

    def test_cache_expires_at_next_update(self, truth):
        scheme = CRLScheme(truth, publication_period=DAY)
        scheme.check(ctx(100, now=5_000))
        result = scheme.check(ctx(100, now=5_000 + 2 * DAY))
        assert result.connections_made == 1

    def test_revocation_invisible_until_next_publication(self, truth):
        """The CRL attack window: a new revocation is not seen by clients that
        hold a still-valid cached CRL."""
        scheme = CRLScheme(truth, publication_period=DAY)
        scheme.check(ctx(300, now=5_000))  # warms the cache (300 not yet revoked)
        truth.revoke(SerialNumber(300), now=6_000)
        result = scheme.check(ctx(300, now=7_000))
        assert result.revoked is False  # missed: cached CRL predates the revocation
        late = scheme.check(ctx(300, now=5_000 + DAY + 1))
        assert late.revoked is True

    def test_unavailable_distribution_point(self, truth):
        scheme = CRLScheme(truth)
        scheme.distribution_point.available = False
        result = scheme.check(ctx(100, now=5_000))
        assert result.revoked is None

    def test_crl_size_grows_with_revocations(self, truth):
        scheme = CRLScheme(truth)
        small = scheme.check(ctx(100, now=5_000, client="cold-1")).bytes_downloaded
        for value in range(1_000, 1_200):
            truth.revoke(SerialNumber(value), now=5_100)
        scheme_fresh = CRLScheme(truth)
        large = scheme_fresh.check(ctx(100, now=6_000, client="cold-2")).bytes_downloaded
        assert large > small

    def test_distribution_point_learns_client_interest(self, truth):
        scheme = CRLScheme(truth)
        scheme.check(ctx(100, now=5_000, client="alice"))
        assert scheme.distribution_point.request_log[0][0] == "alice"


class TestDeltaCRL:
    def test_warm_client_downloads_only_delta(self, truth):
        scheme = DeltaCRLScheme(truth, publication_period=DAY)
        cold = scheme.check(ctx(100, now=5_000))
        truth.revoke(SerialNumber(300), now=6_000)
        warm = scheme.check(ctx(300, now=5_000 + DAY + 1))
        assert warm.revoked is True
        assert 0 < warm.bytes_downloaded < cold.bytes_downloaded

    def test_within_period_no_download(self, truth):
        scheme = DeltaCRLScheme(truth, publication_period=DAY)
        scheme.check(ctx(100, now=5_000))
        result = scheme.check(ctx(200, now=5_500))
        assert result.connections_made == 0
        assert result.revoked is True


class TestOCSP:
    def test_query_returns_current_status(self, truth):
        scheme = OCSPScheme(truth)
        assert scheme.check(ctx(100, now=5_000)).revoked is True
        assert scheme.check(ctx(999, now=5_000)).revoked is False

    def test_every_check_costs_a_connection_and_leaks_privacy(self, truth):
        scheme = OCSPScheme(truth)
        result = scheme.check(ctx(999, now=5_000))
        assert result.connections_made == 1
        assert result.latency_seconds > 0
        assert result.privacy_leaked_to == ["CA OCSP responder"]
        assert scheme.responder.query_log[0][0] == "client-1"

    def test_responder_outage_hard_fail(self, truth):
        scheme = OCSPScheme(truth)
        scheme.responder.available = False
        assert scheme.check(ctx(100, now=5_000)).revoked is None

    def test_responder_outage_soft_fail_accepts_revoked(self, truth):
        """Browsers' soft-fail: an outage silently disables revocation checking."""
        scheme = OCSPScheme(truth, soft_fail=True)
        scheme.responder.available = False
        result = scheme.check(ctx(100, now=5_000))
        assert result.revoked is False  # the revoked certificate is accepted


class TestOCSPStapling:
    def test_staple_served_without_client_connection(self, truth):
        scheme = OCSPStaplingScheme(truth)
        result = scheme.check(ctx(999, now=5_000))
        assert result.revoked is False
        assert result.connections_made == 0
        assert result.privacy_leaked_to == []

    def test_stale_staple_hides_new_revocation(self, truth):
        """The stapling attack window equals the response lifetime."""
        scheme = OCSPStaplingScheme(truth, response_lifetime=4 * DAY)
        scheme.check(ctx(300, now=5_000))  # server obtains a "good" staple
        truth.revoke(SerialNumber(300), now=6_000)
        within_window = scheme.check(ctx(300, now=6_500))
        assert within_window.revoked is False
        after_refresh = scheme.check(ctx(300, now=5_000 + 4 * DAY))
        assert after_refresh.revoked is True

    def test_partial_deployment_leaves_clients_uncovered(self, truth):
        scheme = OCSPStaplingScheme(truth, deployment_rate=0.0001)
        results = [
            scheme.check(ctx(100, now=5_000, server=f"site-{index}.example"))
            for index in range(50)
        ]
        assert any(result.revoked is None for result in results)

    def test_deployment_choice_is_stable_across_processes(self, truth):
        """Pinned: a salted ``hash(name)`` picked different servers each run."""
        scheme = OCSPStaplingScheme(truth, deployment_rate=0.5)
        deploying = [
            index
            for index in range(12)
            if scheme.server_deploys(f"site-{index}.example")
        ]
        assert deploying == [2, 3, 6, 9, 10, 11]

    def test_properties_require_server_changes(self, truth):
        assert "S" in OCSPStaplingScheme(truth).properties().violated_letters()
        assert "S" not in OCSPScheme(truth).properties().violated_letters()
