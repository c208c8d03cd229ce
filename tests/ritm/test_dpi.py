"""Tests for the RA's deep-packet-inspection engine."""

import pytest

from repro.ritm.dpi import DPIEngine
from repro.tls.extensions import ritm_support_extension
from repro.tls.messages import CertificateMessage, ClientHello, Finished, ServerHello, ServerHelloDone
from repro.tls.records import ContentType, TLSRecord

from tests.ritm.conftest import flip_bit


@pytest.fixture()
def dpi():
    return DPIEngine()


def handshake_payload(*messages) -> bytes:
    return TLSRecord(ContentType.HANDSHAKE, b"".join(m.to_bytes() for m in messages)).to_bytes()


class TestFastPath:
    def test_tls_payload_detected(self, dpi):
        assert dpi.is_tls(handshake_payload(ClientHello()))
        assert dpi.stats.tls_packets == 1

    def test_non_tls_payload_rejected(self, dpi):
        assert not dpi.is_tls(b"GET / HTTP/1.1\r\n\r\n")
        assert not dpi.is_tls(b"\x00\x01\x02")
        assert dpi.stats.non_tls_packets == 2

    def test_counters_accumulate(self, dpi):
        dpi.is_tls(handshake_payload(ClientHello()))
        dpi.is_tls(b"plain")
        assert dpi.stats.packets_inspected == 2


class TestClassifiedOnce:
    """``inspect`` is the one call the RA makes per packet: it classifies and
    counts, so nothing is counted twice and nothing is classified twice."""

    def test_inspect_counts_what_is_tls_counted(self, dpi):
        assert dpi.inspect(handshake_payload(ClientHello())).is_tls
        assert not dpi.inspect(b"GET / HTTP/1.1\r\n\r\n").is_tls
        stats = dpi.stats
        assert (stats.packets_inspected, stats.tls_packets, stats.non_tls_packets) == (2, 1, 1)

    def test_the_agent_inspects_each_packet_once(self, world, monkeypatch):
        from repro.net.packet import Packet
        from repro.ritm import dpi as dpi_module
        from tests.ritm.test_agent import FLOW, client_hello_packet

        classified = []
        looks_like_tls = dpi_module.looks_like_tls
        monkeypatch.setattr(
            dpi_module,
            "looks_like_tls",
            lambda payload: classified.append(payload) or looks_like_tls(payload),
        )
        hello, plain = client_hello_packet(), Packet(flow=FLOW, payload=b"not TLS at all")
        assert world.agent.process_packet(hello, now=1.0) == [hello]
        assert world.agent.process_packet(plain, now=2.0) == [plain]
        assert classified == [hello.payload, plain.payload]
        stats = world.agent.dpi.stats
        assert (stats.packets_inspected, stats.tls_packets, stats.non_tls_packets) == (2, 1, 1)
        assert world.agent.stats.packets_seen == 2
        assert world.agent.stats.packets_forwarded_transparently == 1


class TestInspection:
    def test_client_hello_with_ritm_extension(self, dpi):
        payload = handshake_payload(ClientHello(extensions=(ritm_support_extension(),)))
        result = dpi.inspect(payload)
        assert result.is_tls
        assert result.client_hello is not None
        assert result.client_requests_ritm

    def test_client_hello_without_extension(self, dpi):
        result = dpi.inspect(handshake_payload(ClientHello()))
        assert result.client_hello is not None
        assert not result.client_requests_ritm

    def test_server_flight_extracts_certificate_chain(self, dpi, small_corpus):
        chain = small_corpus.chains[0]
        payload = handshake_payload(ServerHello(), CertificateMessage(chain), ServerHelloDone())
        result = dpi.inspect(payload)
        assert result.server_hello is not None
        assert result.certificate_chain == chain
        assert dpi.stats.certificates_parsed == 1

    def test_finished_detection(self, dpi):
        result = dpi.inspect(handshake_payload(Finished()))
        assert result.finished_seen

    def test_application_data_and_status_flags(self, dpi):
        payload = (
            TLSRecord(ContentType.APPLICATION_DATA, b"data").to_bytes()
            + TLSRecord(ContentType.RITM_STATUS, b"\x01\x00\x00").to_bytes()
        )
        result = dpi.inspect(payload)
        assert result.has_application_data
        assert result.has_ritm_status

    def test_non_tls_payload_returns_early(self, dpi):
        result = dpi.inspect(b"definitely not TLS")
        assert not result.is_tls
        assert result.records == []

    def test_malformed_handshake_reports_parse_error(self, dpi):
        # A handshake record whose body claims more bytes than it carries.
        payload = TLSRecord(ContentType.HANDSHAKE, b"\x01\x00\x10\x00" + b"\x00" * 3).to_bytes()
        result = dpi.inspect(payload)
        assert result.parse_error is not None
        assert dpi.stats.parse_errors >= 1

    def test_multiple_records_in_one_packet(self, dpi, small_corpus):
        chain = small_corpus.chains[0]
        payload = (
            handshake_payload(ServerHello(), CertificateMessage(chain))
            + TLSRecord(ContentType.APPLICATION_DATA, b"body").to_bytes()
        )
        result = dpi.inspect(payload)
        assert result.server_hello is not None
        assert result.certificate_chain is not None
        assert result.has_application_data


def single_bit_flips(data: bytes):
    return (flip_bit(data, bit) for bit in range(8 * len(data)))


class TestCorruptedHandshakeFlights:
    """One flipped bit in a valid flight is a parse error to count and a
    packet to forward — never an exception out of the middlebox."""

    def test_no_bit_flip_of_a_server_flight_escapes_inspect(self, dpi, small_corpus):
        chain = small_corpus.chains[0]
        payload = handshake_payload(ServerHello(), CertificateMessage(chain), ServerHelloDone())
        outcomes = {"parsed": 0, "parse_error": 0, "not_tls": 0}
        for mutated in single_bit_flips(payload):
            result = dpi.inspect(mutated)
            if not result.is_tls:
                outcomes["not_tls"] += 1
            elif result.parse_error is not None:
                outcomes["parse_error"] += 1
                assert result.certificate_chain is None
            else:
                outcomes["parsed"] += 1
        assert all(outcomes.values())
        assert dpi.stats.parse_errors == outcomes["parse_error"]

    def test_no_bit_flip_of_a_client_hello_escapes_inspect(self, dpi):
        payload = handshake_payload(ClientHello(extensions=(ritm_support_extension(),)))
        for mutated in single_bit_flips(payload):
            dpi.inspect(mutated)
        assert dpi.stats.parse_errors > 0

    def test_bad_utf8_in_a_certificate_name_is_a_parse_error(self, dpi, small_corpus):
        chain = small_corpus.chains[0]
        payload = handshake_payload(CertificateMessage(chain))
        subject = chain.leaf.subject.encode("utf-8")
        at = payload.index(subject)
        mutated = payload[:at] + bytes([payload[at] | 0x80]) + payload[at + 1 :]
        result = dpi.inspect(mutated)
        assert result.parse_error is not None
        assert dpi.stats.parse_errors == 1
