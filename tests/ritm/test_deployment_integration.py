"""End-to-end integration tests over the simulated network path (Fig. 3)."""

import pytest

from repro.net.clock import SimulatedClock
from repro.net.packet import make_flow
from repro.ritm.client import RejectionReason
from repro.ritm.deployment import (
    build_close_to_client_deployment,
    build_close_to_server_deployment,
    build_unprotected_path,
)
from repro.ritm.messages import encode_status
from repro.ritm.server import RITMServer, TLSTerminator

from tests.ritm.conftest import EPOCH, build_world


@pytest.fixture()
def world():
    return build_world()


def deploy_close_to_client(world, chain=None, clock=None, extra_middleboxes=None):
    chain = chain if chain is not None else world.corpus.chains[0]
    return build_close_to_client_deployment(
        server_chain=chain,
        trust_store=world.trust_store,
        ca_public_keys=world.ca_public_keys(),
        config=world.config,
        agent=world.agent,
        clock=clock if clock is not None else SimulatedClock(EPOCH + 20),
        extra_middleboxes=extra_middleboxes,
    )


class TestCloseToClientDeployment:
    def test_handshake_accepted_with_fresh_dictionary(self, world):
        deployment = deploy_close_to_client(world)
        assert deployment.run_handshake()
        assert deployment.client.last_status is not None

    def test_revoked_certificate_is_refused_end_to_end(self, world):
        chain = world.corpus.chains[0]
        issuing = world.ca_by_name(chain.leaf.issuer)
        issuing.revoke([chain.leaf.serial], now=EPOCH + 10)
        world.pull(now=EPOCH + 11)
        deployment = deploy_close_to_client(world, chain)
        assert not deployment.run_handshake()
        assert deployment.client.rejection == RejectionReason.CERTIFICATE_REVOKED

    def test_established_connection_receives_periodic_statuses(self, world):
        deployment = deploy_close_to_client(world)
        assert deployment.run_handshake()
        accepted_before = deployment.client.last_status_at

        # Advance past Δ, keep the CA fresh, pull, then push application data.
        delta = world.config.delta_seconds
        for step in range(1, 4):
            now = deployment.engine.clock.now() + delta + 1
            deployment.engine.clock.advance_to(now)
            for ca in world.cas:
                ca.refresh(now=now)
            world.pull(now=now)
            deployment.deliver_from_server(b"tick")
            assert deployment.client.enforce_freshness(deployment.engine.clock.now())
        assert deployment.client.last_status_at > accepted_before

    def test_race_condition_protection_mid_connection_revocation(self, world):
        """A revocation arriving after establishment still kills the connection."""
        chain = world.corpus.chains[0]
        deployment = deploy_close_to_client(world, chain)
        assert deployment.run_handshake()

        issuing = world.ca_by_name(chain.leaf.issuer)
        now = deployment.engine.clock.now() + world.config.delta_seconds + 1
        deployment.engine.clock.advance_to(now)
        issuing.revoke([chain.leaf.serial], now=now)
        world.pull(now=now + 1)
        deployment.deliver_from_server(b"data after revocation")
        assert not deployment.client.is_connection_usable
        assert deployment.client.rejection == RejectionReason.CERTIFICATE_REVOKED

    def test_client_interrupts_when_statuses_stop(self, world):
        deployment = deploy_close_to_client(world)
        assert deployment.run_handshake()
        horizon = deployment.engine.clock.now() + 3 * world.config.delta_seconds
        assert not deployment.client.enforce_freshness(horizon)
        assert deployment.client.rejection == RejectionReason.STATUS_TIMEOUT

    def test_latency_overhead_is_negligible(self, world):
        """The paper's <1 % of a 30 ms handshake claim.

        RITM's additions to the handshake are (a) the RA's per-packet
        processing and (b) the extra bytes of the status message.  Both must
        amount to well under 1 % of a 30 ms handshake.
        """
        deployment = deploy_close_to_client(world)
        assert deployment.run_handshake()
        agent = deployment.agents[0]
        status_bytes = len(encode_status(deployment.client.last_status))
        # Processing: every packet of the handshake crosses the RA once.
        processing = deployment.engine.packets_delivered * agent.processing_delay(None)
        # Transmission of the extra bytes at a 100 Mbit/s access link.
        transmission = status_bytes / 12_500_000.0
        added = processing + transmission
        assert status_bytes < 2_000
        assert added < 0.0003  # 0.3 ms = 1 % of a 30 ms handshake


class TestCloseToServerDeployment:
    def test_terminator_confirms_and_handshake_succeeds(self, world):
        deployment = build_close_to_server_deployment(
            server_chain=world.corpus.chains[0],
            trust_store=world.trust_store,
            ca_public_keys=world.ca_public_keys(),
            config=world.config,
            agent=world.agent,
            clock=SimulatedClock(EPOCH + 20),
        )
        assert deployment.run_handshake()
        assert deployment.client.tls.server_confirmed_ritm

    def test_revocation_refused_in_server_side_model(self, world):
        chain = world.corpus.chains[1]
        issuing = world.ca_by_name(chain.leaf.issuer)
        issuing.revoke([chain.leaf.serial], now=EPOCH + 10)
        world.pull(now=EPOCH + 11)
        deployment = build_close_to_server_deployment(
            server_chain=chain,
            trust_store=world.trust_store,
            ca_public_keys=world.ca_public_keys(),
            config=world.config,
            agent=world.agent,
            clock=SimulatedClock(EPOCH + 20),
        )
        assert not deployment.run_handshake()
        assert deployment.client.rejection == RejectionReason.CERTIFICATE_REVOKED


class TestUnprotectedPath:
    def test_missing_ra_is_detected_as_downgrade(self, world):
        deployment = build_unprotected_path(
            server_chain=world.corpus.chains[0],
            trust_store=world.trust_store,
            ca_public_keys=world.ca_public_keys(),
            config=world.config,
            clock=SimulatedClock(EPOCH + 20),
        )
        assert not deployment.run_handshake()
        assert deployment.client.rejection == RejectionReason.MISSING_STATUS


class TestBuilderTopology:
    """The three public builders pass one wiring body different parts; what
    each passes — server class, middlebox and link order — is pinned."""

    @pytest.mark.parametrize(
        "build, server_class, boxes, links",
        [
            (
                build_close_to_client_deployment,
                RITMServer,
                ["ra", "extra"],
                ["lan", "wan", "wan"],
            ),
            (
                build_close_to_server_deployment,
                TLSTerminator,
                ["extra", "ra"],
                ["wan", "wan", "lan"],
            ),
            (build_unprotected_path, RITMServer, [], ["metro"]),
        ],
        ids=["close-to-client", "close-to-server", "unprotected"],
    )
    def test_order_flow_and_protection(self, world, build, server_class, boxes, links):
        extra = object()
        named = {"ra": world.agent, "extra": extra}
        protected = {"agent": world.agent, "extra_middleboxes": [extra]} if boxes else {}
        deployment = build(
            server_chain=world.corpus.chains[0],
            trust_store=world.trust_store,
            ca_public_keys=world.ca_public_keys(),
            config=world.config,
            client_ip="10.0.0.7",
            server_ip="10.9.9.9",
            **protected,
        )
        path = deployment.engine.path
        assert type(deployment.server) is server_class
        assert (path.client, path.server) == (deployment.client, deployment.server)
        assert path.middleboxes == [named[box] for box in boxes]
        assert [link.name for link in path.links] == links
        assert deployment.agents == ([world.agent] if boxes else [])
        assert deployment.flow == make_flow("10.0.0.7", 9012, "10.9.9.9", 443)
        assert deployment.client.expect_ritm_protection
        assert deployment.client.tls.config.server_name == world.corpus.chains[0].leaf.subject
