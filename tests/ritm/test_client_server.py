"""Tests for the RITM client endpoint and the server/terminator endpoints."""

import pytest

from repro.net.packet import Direction, Packet, make_flow
from repro.ritm.client import LegacyTLSClient, RejectionReason, RITMClient
from repro.ritm.server import RITMServer, TLSTerminator
from repro.tls.records import ContentType, TLSRecord, parse_records

from tests.ritm.conftest import EPOCH, flip_bit


FLOW = make_flow("12.34.56.78", 9012, "98.76.54.32", 443)


def make_client(world, chain, expect_protection=True) -> RITMClient:
    return RITMClient(
        ip_address="12.34.56.78",
        server_name=chain.leaf.subject,
        trust_store=world.trust_store,
        ca_public_keys=world.ca_public_keys(),
        config=world.config,
        expect_ritm_protection=expect_protection,
    )


def run_direct_handshake(client, server, agent=None, now=EPOCH + 20):
    """Shuttle packets client↔server, passing them through an optional RA."""
    to_server = [client.client_hello_packet(FLOW, now)]
    guard = 0
    while to_server:
        guard += 1
        assert guard < 20
        to_client = []
        for packet in to_server:
            if agent is not None:
                packet = agent.process_packet(packet, now)[0]
            to_client.extend(server.handle_packet(packet, now))
        to_server = []
        for packet in to_client:
            if agent is not None:
                processed = agent.process_packet(packet, now)
                if not processed:
                    continue
                packet = processed[0]
            to_server.extend(client.handle_packet(packet, now))
    return client, server


class TestClientPolicy:
    def test_client_hello_carries_ritm_extension(self, world):
        chain = world.corpus.chains[0]
        client = make_client(world, chain)
        packet = client.client_hello_packet(FLOW, EPOCH + 20)
        from repro.ritm.dpi import DPIEngine

        inspection = DPIEngine().inspect(packet.payload)
        assert inspection.client_requests_ritm

    def test_handshake_with_agent_is_accepted(self, world):
        chain = world.corpus.chains[0]
        client = make_client(world, chain)
        server = RITMServer("98.76.54.32", chain)
        run_direct_handshake(client, server, agent=world.agent)
        assert client.is_connection_usable
        assert client.stats.statuses_valid >= 1
        assert client.last_status is not None

    def test_handshake_without_agent_is_rejected(self, world):
        chain = world.corpus.chains[0]
        client = make_client(world, chain)
        server = RITMServer("98.76.54.32", chain)
        run_direct_handshake(client, server, agent=None)
        assert not client.is_connection_usable
        assert client.rejection == RejectionReason.MISSING_STATUS

    def test_handshake_without_agent_but_terminator_confirms(self, world):
        # Close-to-server model: the terminator's confirmation (inside the
        # handshake) is the downgrade defence even if the status arrives later.
        chain = world.corpus.chains[0]
        client = make_client(world, chain)
        terminator = TLSTerminator("98.76.54.32", chain)
        run_direct_handshake(client, terminator, agent=world.agent)
        assert client.is_connection_usable
        assert client.tls.server_confirmed_ritm

    def test_revoked_certificate_rejected(self, world):
        chain = world.corpus.chains[0]
        issuing = world.ca_by_name(chain.leaf.issuer)
        issuing.revoke([chain.leaf.serial], now=EPOCH + 15)
        world.pull(now=EPOCH + 16)
        client = make_client(world, chain)
        server = RITMServer("98.76.54.32", chain)
        run_direct_handshake(client, server, agent=world.agent)
        assert not client.is_connection_usable
        assert client.rejection == RejectionReason.CERTIFICATE_REVOKED

    def test_client_standard_validation_still_applies(self, world):
        # An untrusted chain fails standard validation even with a valid status.
        from repro.crypto.signing import KeyPair
        from repro.pki.ca import CertificationAuthority

        rogue_ca = CertificationAuthority("Rogue-CA", key_seed=b"rogue")
        rogue_chain = rogue_ca.issue_chain_for(
            "victim.example", KeyPair.generate(b"victim").public, now=EPOCH
        )
        client = RITMClient(
            ip_address="12.34.56.78",
            server_name="victim.example",
            trust_store=world.trust_store,  # does not contain Rogue-CA
            ca_public_keys=world.ca_public_keys(),
            config=world.config,
        )
        server = RITMServer("98.76.54.32", rogue_chain)
        run_direct_handshake(client, server, agent=world.agent)
        assert not client.is_connection_usable
        assert client.rejection in (
            RejectionReason.STANDARD_VALIDATION_FAILED,
            RejectionReason.MISSING_STATUS,
        )

    def test_corrupted_certificate_message_is_rejected_not_raised(self, world):
        from repro.tls.messages import CertificateMessage

        chain = world.corpus.chains[0]
        now = EPOCH + 20
        message = CertificateMessage(chain).to_bytes()
        hello = make_client(world, chain).client_hello_packet(FLOW, now)
        hello = world.agent.process_packet(hello, now)[0]
        (flight,) = RITMServer("98.76.54.32", chain).handle_packet(hello, now)
        (flight,) = world.agent.process_packet(flight, now)
        start = flight.payload.index(message)
        reasons = set()
        # One flipped bit per byte of the Certificate message (every bit
        # position gets its turn); each attempt is a fresh client.
        for index in range(len(message)):
            corrupted = flip_bit(flight.payload, 8 * (start + index) + index % 8)
            packet = Packet(flow=flight.flow, payload=corrupted, direction=flight.direction)
            client = make_client(world, chain)
            client.client_hello_packet(FLOW, now)
            assert client.handle_packet(packet, now) == []
            assert isinstance(client.rejection, RejectionReason), index
            reasons.add(client.rejection)
        assert reasons == {
            RejectionReason.STANDARD_VALIDATION_FAILED,
            RejectionReason.INVALID_STATUS,
        }

    def test_stale_status_rejected(self, world):
        chain = world.corpus.chains[0]
        client = make_client(world, chain)
        server = RITMServer("98.76.54.32", chain)
        # Run the handshake far in the future without refreshing the CA:
        # the freshness statement the RA holds is now older than 2Δ.
        stale_now = EPOCH + 5 + 40 * world.config.delta_seconds
        run_direct_handshake(client, server, agent=world.agent, now=stale_now)
        assert not client.is_connection_usable
        assert client.rejection == RejectionReason.STALE_STATUS

    def test_freshness_enforcement_on_established_connection(self, world):
        chain = world.corpus.chains[0]
        client = make_client(world, chain)
        server = RITMServer("98.76.54.32", chain)
        run_direct_handshake(client, server, agent=world.agent, now=EPOCH + 20)
        assert client.enforce_freshness(EPOCH + 25)
        # No further statuses for longer than 2Δ: the client interrupts.
        assert not client.enforce_freshness(EPOCH + 20 + 3 * world.config.delta_seconds)
        assert client.rejection == RejectionReason.STATUS_TIMEOUT
        assert client.stats.connections_interrupted == 1

    def test_client_that_does_not_expect_protection_accepts_without_status(self, world):
        chain = world.corpus.chains[0]
        client = make_client(world, chain, expect_protection=False)
        server = RITMServer("98.76.54.32", chain)
        run_direct_handshake(client, server, agent=None)
        assert client.is_connection_usable


class TestLegacyClientAndServer:
    def test_legacy_client_completes_handshake_through_agent(self, world):
        chain = world.corpus.chains[0]
        legacy = LegacyTLSClient("12.34.56.78", chain.leaf.subject, world.trust_store)
        server = RITMServer("98.76.54.32", chain)
        to_server = [legacy.client_hello_packet(FLOW, EPOCH + 20)]
        guard = 0
        while to_server:
            guard += 1
            assert guard < 20
            to_client = []
            for packet in to_server:
                packet = world.agent.process_packet(packet, EPOCH + 20)[0]
                to_client.extend(server.handle_packet(packet, EPOCH + 20))
            to_server = []
            for packet in to_client:
                packet = world.agent.process_packet(packet, EPOCH + 20)[0]
                to_server.extend(legacy.handle_packet(packet, EPOCH + 20))
        assert legacy.tls.is_established

    def test_server_tracks_one_connection_per_client(self, world):
        chain = world.corpus.chains[0]
        server = RITMServer("98.76.54.32", chain)
        first = make_client(world, chain, expect_protection=False)
        run_direct_handshake(first, server)
        other_flow = make_flow("10.0.0.9", 1111, "98.76.54.32", 443)
        second = make_client(world, chain, expect_protection=False)
        to_server = [second.client_hello_packet(other_flow, EPOCH + 30)]
        while to_server:
            to_client = []
            for packet in to_server:
                to_client.extend(server.handle_packet(packet, EPOCH + 30))
            to_server = []
            for packet in to_client:
                to_server.extend(second.handle_packet(packet, EPOCH + 30))
        assert server.connection_count() == 2

    def test_server_application_data_flow(self, world):
        chain = world.corpus.chains[0]
        client = make_client(world, chain, expect_protection=False)
        server = RITMServer("98.76.54.32", chain)
        run_direct_handshake(client, server)
        packet = server.send_application_data(FLOW, b"hello client", EPOCH + 30)
        assert packet.direction == Direction.SERVER_TO_CLIENT
        client.handle_packet(packet, EPOCH + 30)
        assert client.tls.application_data_received == [b"hello client"]

    def test_server_unknown_flow_rejected(self, world):
        chain = world.corpus.chains[0]
        server = RITMServer("98.76.54.32", chain)
        with pytest.raises(KeyError):
            server.send_application_data(FLOW, b"data", EPOCH + 30)
