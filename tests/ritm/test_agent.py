"""Tests for the Revocation Agent middlebox logic."""

import pytest

from repro.net.packet import Direction, Packet, make_flow
from repro.ritm.agent import RevocationAgent
from repro.ritm.messages import decode_status_bundle
from repro.tls.connection import HandshakeStage
from repro.tls.extensions import ritm_support_extension
from repro.tls.messages import CertificateMessage, ClientHello, Finished, ServerHello, ServerHelloDone
from repro.tls.records import ContentType, TLSRecord, parse_records

from tests.conftest import sized_attributes
from tests.ritm.conftest import EPOCH, flip_bit


FLOW = make_flow("12.34.56.78", 9012, "98.76.54.32", 443)


def client_hello_packet(with_ritm: bool = True, session_id: bytes = b"") -> Packet:
    extensions = (ritm_support_extension(),) if with_ritm else ()
    record = TLSRecord(
        ContentType.HANDSHAKE,
        ClientHello(session_id=session_id, extensions=extensions).to_bytes(),
    )
    return Packet(flow=FLOW, payload=record.to_bytes(), direction=Direction.CLIENT_TO_SERVER)


def server_flight_packet(chain, session_id: bytes = b"\x07" * 8) -> Packet:
    flight = (
        ServerHello(session_id=session_id).to_bytes()
        + CertificateMessage(chain).to_bytes()
        + ServerHelloDone().to_bytes()
    )
    record = TLSRecord(ContentType.HANDSHAKE, flight)
    return Packet(
        flow=FLOW.reversed(), payload=record.to_bytes(), direction=Direction.SERVER_TO_CLIENT
    )


def server_finished_packet() -> Packet:
    record = TLSRecord(ContentType.HANDSHAKE, Finished().to_bytes())
    return Packet(
        flow=FLOW.reversed(), payload=record.to_bytes(), direction=Direction.SERVER_TO_CLIENT
    )


def application_packet() -> Packet:
    record = TLSRecord(ContentType.APPLICATION_DATA, b"protected data")
    return Packet(
        flow=FLOW.reversed(), payload=record.to_bytes(), direction=Direction.SERVER_TO_CLIENT
    )


def statuses_in(packet: Packet):
    found = []
    for record in parse_records(packet.payload):
        if record.is_ritm_status():
            found.extend(decode_status_bundle(record.payload))
    return found


class TestTransparency:
    def test_non_tls_traffic_passes_untouched(self, world):
        packet = Packet(flow=FLOW, payload=b"GET / HTTP/1.1\r\n\r\n")
        out = world.agent.process_packet(packet, now=EPOCH + 10)
        assert out == [packet]
        assert world.agent.stats.packets_forwarded_transparently == 1

    def test_connection_without_ritm_extension_is_ignored(self, world):
        chain = world.corpus.chains[0]
        world.agent.process_packet(client_hello_packet(with_ritm=False), now=EPOCH + 10)
        out = world.agent.process_packet(server_flight_packet(chain), now=EPOCH + 11)
        assert statuses_in(out[0]) == []
        assert len(world.agent.connections) == 0

    def test_malformed_tls_is_forwarded(self, world):
        broken = TLSRecord(ContentType.HANDSHAKE, b"\x01\x00\x10\x00" + b"\x00" * 3)
        packet = Packet(flow=FLOW, payload=broken.to_bytes())
        out = world.agent.process_packet(packet, now=EPOCH + 10)
        assert out[0].payload == packet.payload

    def test_corrupted_certificate_flight_is_forwarded(self, world):
        chain = world.corpus.chains[0]
        world.agent.process_packet(client_hello_packet(), now=EPOCH + 10)
        flight = server_flight_packet(chain)
        start = flight.payload.index(CertificateMessage(chain).to_bytes())
        unparseable = 0
        for bit in range(8 * start, 8 * len(flight.payload), 3):
            packet = Packet(
                flow=flight.flow, payload=flip_bit(flight.payload, bit), direction=flight.direction
            )
            before = world.agent.dpi.stats.parse_errors
            out = world.agent.process_packet(packet, now=EPOCH + 11)
            assert len(out) == 1
            if world.agent.dpi.stats.parse_errors > before:
                unparseable += 1
                assert out == [packet]
        assert unparseable > 0


class TestStatusAttachment:
    def test_state_created_on_ritm_client_hello(self, world):
        world.agent.process_packet(client_hello_packet(), now=EPOCH + 10)
        state = world.agent.connections.lookup(FLOW)
        assert state is not None
        assert state.stage == HandshakeStage.CLIENT_HELLO
        assert world.agent.stats.supported_connections == 1

    def test_status_attached_to_server_hello(self, world):
        chain = world.corpus.chains[0]
        world.agent.process_packet(client_hello_packet(), now=EPOCH + 10)
        out = world.agent.process_packet(server_flight_packet(chain), now=EPOCH + 11)
        statuses = statuses_in(out[0])
        assert len(statuses) == 1
        assert statuses[0].ca_name == chain.leaf.issuer
        assert statuses[0].serial == chain.leaf.serial
        assert not statuses[0].is_revoked
        assert world.agent.stats.statuses_attached == 1

    def test_state_updated_after_server_hello(self, world):
        chain = world.corpus.chains[0]
        world.agent.process_packet(client_hello_packet(), now=EPOCH + 10)
        world.agent.process_packet(server_flight_packet(chain), now=EPOCH + 11)
        state = world.agent.connections.lookup(FLOW)
        assert state.ca_name == chain.leaf.issuer
        assert state.serial == chain.leaf.serial
        assert state.last_status == EPOCH + 11

    def test_established_after_server_finished(self, world):
        chain = world.corpus.chains[0]
        world.agent.process_packet(client_hello_packet(), now=EPOCH + 10)
        world.agent.process_packet(server_flight_packet(chain), now=EPOCH + 11)
        world.agent.process_packet(server_finished_packet(), now=EPOCH + 12)
        assert world.agent.connections.lookup(FLOW).is_established()

    def test_periodic_status_on_established_connection(self, world):
        chain = world.corpus.chains[0]
        delta = world.config.delta_seconds
        world.agent.process_packet(client_hello_packet(), now=EPOCH + 10)
        world.agent.process_packet(server_flight_packet(chain), now=EPOCH + 11)
        world.agent.process_packet(server_finished_packet(), now=EPOCH + 12)

        # Before Δ elapses: application data passes without a new status.
        early = world.agent.process_packet(application_packet(), now=EPOCH + 13)
        assert statuses_in(early[0]) == []

        # After Δ: the first server→client packet carries a fresh status.
        late = world.agent.process_packet(application_packet(), now=EPOCH + 11 + delta + 1)
        assert len(statuses_in(late[0])) == 1

    def test_status_reflects_revocation_after_pull(self, world):
        chain = world.corpus.chains[0]
        issuing = world.ca_by_name(chain.leaf.issuer)
        issuing.revoke([chain.leaf.serial], now=EPOCH + 15)
        world.pull(now=EPOCH + 16)
        world.agent.process_packet(client_hello_packet(), now=EPOCH + 17)
        out = world.agent.process_packet(server_flight_packet(chain), now=EPOCH + 18)
        statuses = statuses_in(out[0])
        assert statuses[0].is_revoked

    def test_unknown_ca_forwards_without_status(self, world):
        from repro.crypto.signing import KeyPair
        from repro.pki.ca import CertificationAuthority

        foreign_ca = CertificationAuthority("Foreign-CA", key_seed=b"foreign")
        foreign_chain = foreign_ca.issue_chain_for(
            "foreign.example", KeyPair.generate(b"foreign-server").public, now=EPOCH
        )
        world.agent.process_packet(client_hello_packet(), now=EPOCH + 10)
        out = world.agent.process_packet(server_flight_packet(foreign_chain), now=EPOCH + 11)
        assert statuses_in(out[0]) == []
        assert world.agent.stats.unknown_ca >= 1

    def test_full_chain_proving_attaches_status_per_certificate(self, world):
        from repro.ritm.config import RITMConfig
        from tests.ritm.conftest import build_world

        chained_world = build_world(
            RITMConfig(delta_seconds=10, chain_length=64, prove_full_chain=True)
        )
        chain = chained_world.corpus.chains[0]
        chained_world.agent.process_packet(client_hello_packet(), now=EPOCH + 10)
        out = chained_world.agent.process_packet(server_flight_packet(chain), now=EPOCH + 11)
        statuses = statuses_in(out[0])
        # Leaf + intermediate + root (all three issuers are replicated).
        assert len(statuses) >= 2


class TestFlowTableIsBounded:
    def test_repeated_handshakes_on_one_flow_grow_nothing(self, world):
        """The flow table holds per-flow state only: nothing in it may grow
        with the number of handshakes a flow has carried."""
        chain = world.corpus.chains[0]

        def handshake(number):
            session_id = number.to_bytes(8, "big")
            now = EPOCH + 10 + number
            world.agent.process_packet(client_hello_packet(), now=now)
            world.agent.process_packet(server_flight_packet(chain, session_id), now=now)
            world.agent.process_packet(server_finished_packet(), now=now)

        def entries_held():
            return sum(sized_attributes(world.agent.connections).values())

        handshake(1)
        after_first = entries_held()
        for number in range(2, 301):
            handshake(number)
        assert world.agent.stats.statuses_attached == 300
        assert entries_held() == after_first == 1


class TestResumptionAndMultipleRAs:
    def test_abbreviated_handshake_recovers_identity_from_server_cache(self, world):
        chain = world.corpus.chains[0]
        # Full handshake first: the agent learns the server's certificate.
        world.agent.process_packet(client_hello_packet(), now=EPOCH + 10)
        world.agent.process_packet(server_flight_packet(chain), now=EPOCH + 11)
        world.agent.connections.remove(FLOW)

        # Resumed handshake: ServerHello only, no Certificate message.
        world.agent.process_packet(client_hello_packet(session_id=b"\x07" * 8), now=EPOCH + 30)
        abbreviated = TLSRecord(
            ContentType.HANDSHAKE,
            ServerHello(session_id=b"\x07" * 8).to_bytes() + Finished().to_bytes(),
        )
        packet = Packet(
            flow=FLOW.reversed(), payload=abbreviated.to_bytes(), direction=Direction.SERVER_TO_CLIENT
        )
        out = world.agent.process_packet(packet, now=EPOCH + 31)
        statuses = statuses_in(out[0])
        assert len(statuses) == 1
        assert statuses[0].serial == chain.leaf.serial
        assert world.agent.stats.resumptions_recovered == 1

    def test_second_ra_does_not_duplicate_fresher_status(self, world):
        chain = world.corpus.chains[0]
        world.agent.process_packet(client_hello_packet(), now=EPOCH + 10)
        out = world.agent.process_packet(server_flight_packet(chain), now=EPOCH + 11)

        second = RevocationAgent("second-ra", world.config)
        from repro.ritm.dissemination import attach_agent_to_cas
        from repro.cdn.geography import GeoLocation, Region

        attach_agent_to_cas(second, world.cas, world.cdn, GeoLocation(Region.JAPAN)).pull(
            now=EPOCH + 12
        )
        second.process_packet(client_hello_packet(), now=EPOCH + 10)
        final = second.process_packet(out[0], now=EPOCH + 13)
        assert len(statuses_in(final[0])) == 1
        assert second.stats.statuses_deferred_to_peer == 1

    def test_second_ra_replaces_stale_status_with_newer_view(self, world):
        chain = world.corpus.chains[0]
        issuing = world.ca_by_name(chain.leaf.issuer)

        # A stale RA that never saw the revocation attaches a clean status.
        world.agent.process_packet(client_hello_packet(), now=EPOCH + 10)
        stale_out = world.agent.process_packet(server_flight_packet(chain), now=EPOCH + 11)
        assert not statuses_in(stale_out[0])[0].is_revoked

        # A second, up-to-date RA further down the path replaces it.
        issuing.revoke([chain.leaf.serial], now=EPOCH + 12)
        fresh = RevocationAgent("fresh-ra", world.config)
        from repro.ritm.dissemination import attach_agent_to_cas
        from repro.cdn.geography import GeoLocation, Region

        attach_agent_to_cas(fresh, world.cas, world.cdn, GeoLocation(Region.UNITED_STATES)).pull(
            now=EPOCH + 13
        )
        fresh.process_packet(client_hello_packet(), now=EPOCH + 10)
        final = fresh.process_packet(stale_out[0], now=EPOCH + 14)
        statuses = statuses_in(final[0])
        assert len(statuses) == 1
        assert statuses[0].is_revoked
        assert fresh.stats.statuses_replaced == 1

    def test_housekeeping_expires_idle_connections(self, world):
        world.agent.process_packet(client_hello_packet(), now=EPOCH + 10)
        assert len(world.agent.connections) == 1
        expired = world.agent.expire_idle_connections(now=EPOCH + 10 + 7200)
        assert expired == 1
        assert len(world.agent.connections) == 0

    def test_dictionary_sizes_reporting(self, world):
        sizes = world.agent.dictionary_sizes()
        assert set(sizes) == {ca.name for ca in world.cas}
