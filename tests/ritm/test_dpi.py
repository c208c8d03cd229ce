"""Tests for the RA's deep-packet-inspection engine."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TLSError
from repro.ritm.dpi import DPIEngine, InspectionResult
from repro.tls.extensions import (
    RITM_SUPPORT_TYPE,
    SERVER_NAME_TYPE,
    SESSION_TICKET_TYPE,
    has_ritm_support,
    ritm_support_extension,
    server_name_extension,
)
from repro.tls.messages import (
    BODY_PARSERS,
    RANDOM_SIZE,
    CertificateMessage,
    ClientHello,
    Finished,
    HandshakeType,
    NewSessionTicket,
    ServerHello,
    ServerHelloDone,
    parse_handshake_messages,
)
from repro.tls.records import (
    MAX_RECORD_PAYLOAD,
    ContentType,
    TLSRecord,
    looks_like_tls,
    parse_records,
    serialize_records,
)

from tests.ritm.conftest import flip_bit


@pytest.fixture()
def dpi():
    return DPIEngine()


def handshake_payload(*messages) -> bytes:
    return TLSRecord(ContentType.HANDSHAKE, b"".join(m.to_bytes() for m in messages)).to_bytes()


class TestFastPath:
    def test_tls_payload_detected(self, dpi):
        assert dpi.is_tls(handshake_payload(ClientHello()))

    def test_non_tls_payload_rejected(self, dpi):
        assert not dpi.is_tls(b"GET / HTTP/1.1\r\n\r\n")
        assert not dpi.is_tls(b"\x00\x01\x02")


class TestClassifiedOnce:
    """``inspect`` is the one call the RA makes per packet: it classifies,
    so nothing is classified twice."""

    def test_inspect_classifies_as_is_tls_does(self, dpi):
        for payload in (handshake_payload(ClientHello()), b"GET / HTTP/1.1\r\n\r\n"):
            assert dpi.inspect(payload).is_tls == dpi.is_tls(payload)

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


class TestInspection:
    def test_client_hello_with_ritm_extension(self, dpi):
        payload = handshake_payload(ClientHello(extensions=(ritm_support_extension(),)))
        result = dpi.inspect(payload)
        assert result.is_tls
        assert result.client_requests_ritm

    def test_client_hello_without_extension(self, dpi):
        result = dpi.inspect(handshake_payload(ClientHello()))
        assert result.is_tls and result.parse_error is None
        assert not result.client_requests_ritm

    def test_server_flight_extracts_certificate_chain(self, dpi, small_corpus):
        chain = small_corpus.chains[0]
        payload = handshake_payload(ServerHello(), CertificateMessage(chain), ServerHelloDone())
        result = dpi.inspect(payload)
        assert result.server_session_id == b""
        assert result.certificate_chain == chain
        assert (dpi.chain_cache.stats.hits, dpi.chain_cache.stats.misses) == (0, 1)

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
        assert result.server_session_id is None

    def test_malformed_handshake_reports_parse_error(self, dpi):
        # A handshake record whose body claims more bytes than it carries.
        payload = TLSRecord(ContentType.HANDSHAKE, b"\x01\x00\x10\x00" + b"\x00" * 3).to_bytes()
        result = dpi.inspect(payload)
        assert result.parse_error is not None

    def test_multiple_records_in_one_packet(self, dpi, small_corpus):
        chain = small_corpus.chains[0]
        payload = (
            handshake_payload(ServerHello(), CertificateMessage(chain))
            + TLSRecord(ContentType.APPLICATION_DATA, b"body").to_bytes()
        )
        result = dpi.inspect(payload)
        assert result.server_session_id == b""
        assert result.certificate_chain is not None
        assert result.has_application_data

    def test_a_rejected_payload_reports_no_fact(self, dpi, small_corpus):
        """A valid server flight followed by a broken record yields the
        error alone: not the chain or session the flight carried."""
        chain = small_corpus.chains[0]
        flight = handshake_payload(ServerHello(), CertificateMessage(chain))
        broken = flight + TLSRecord(ContentType.HANDSHAKE, b"\x63\x00\x00\x00").to_bytes()
        result = dpi.inspect(broken)
        assert result == InspectionResult(True, parse_error=result.parse_error)
        assert result.parse_error is not None
        assert dpi.inspect(flight).certificate_chain == chain


def single_bit_flips(data: bytes):
    return (flip_bit(data, bit) for bit in range(8 * len(data)))


class TestCorruptedHandshakeFlights:
    """One flipped bit in a valid flight is a parse error and a packet to
    forward — never an exception out of the middlebox."""

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

    def test_no_bit_flip_of_a_client_hello_escapes_inspect(self, dpi):
        payload = handshake_payload(ClientHello(extensions=(ritm_support_extension(),)))
        results = [dpi.inspect(mutated) for mutated in single_bit_flips(payload)]
        assert any(result.parse_error is not None for result in results)

    def test_bad_utf8_in_a_certificate_name_is_a_parse_error(self, dpi, small_corpus):
        chain = small_corpus.chains[0]
        payload = handshake_payload(CertificateMessage(chain))
        subject = chain.leaf.subject.encode("utf-8")
        at = payload.index(subject)
        mutated = payload[:at] + bytes([payload[at] | 0x80]) + payload[at + 1 :]
        result = dpi.inspect(mutated)
        assert result.parse_error is not None


# -- differential: the offset walk against the endpoint parsers ---------------


def parsed_facts(payload: bytes):
    """What ``inspect`` must report, derived from the endpoint parsers:
    ``parse_records`` plus ``parse_handshake_messages(BODY_PARSERS)``."""
    is_tls = looks_like_tls(payload)
    server_id = chain = None
    ritm = finished = application_data = status = False
    if is_tls:
        try:
            for record in parse_records(payload):
                if record.content_type == ContentType.APPLICATION_DATA:
                    application_data = True
                elif record.content_type == ContentType.RITM_STATUS:
                    status = True
                elif record.content_type == ContentType.HANDSHAKE:
                    for kind, message in parse_handshake_messages(record.payload, BODY_PARSERS):
                        if kind == HandshakeType.CLIENT_HELLO:
                            ritm = has_ritm_support(message.extensions)
                        elif kind == HandshakeType.SERVER_HELLO:
                            server_id = message.session_id
                        elif kind == HandshakeType.CERTIFICATE:
                            chain = message.chain
                        elif kind == HandshakeType.FINISHED:
                            finished = True
        except TLSError:
            return (True, True, False, None, None, False, False, False)
    return (is_tls, False, ritm, server_id, chain, finished, application_data, status)


def inspected_facts(dpi: DPIEngine, payload: bytes):
    result = dpi.inspect(payload)
    return (
        result.is_tls,
        result.parse_error is not None,
        result.client_requests_ritm,
        result.server_session_id,
        result.certificate_chain,
        result.finished_seen,
        result.has_application_data,
        result.has_ritm_status,
    )


def flight_shapes(chain):
    """The five payloads an RA meets: ClientHello; ServerHello + Certificate
    + ServerHelloDone; Finished; Finished + NewSessionTicket; and a server
    flight another RA already appended a status record to — and a flight
    that ends in a certificate-less ServerHello, so every cut of its body
    reaches the end of the buffer."""
    hello = ClientHello(
        random=b"\x21" * 32,
        session_id=b"\x5a" * 32,
        extensions=(server_name_extension("a.example"), ritm_support_extension()),
    )
    server_flight = handshake_payload(
        ServerHello(random=b"\x11" * 32, session_id=b"\x42" * 32),
        CertificateMessage(chain),
        ServerHelloDone(),
    )
    return {
        "client-hello": handshake_payload(hello),
        "server-flight": server_flight,
        "finished": handshake_payload(Finished(b"\x33" * 12)),
        "finished-ticket": handshake_payload(
            Finished(b"\x33" * 12), NewSessionTicket(3600, b"\x77" * 40)
        ),
        "with-status": server_flight
        + TLSRecord(ContentType.RITM_STATUS, b"\x01\x00\x03abc").to_bytes(),
        "abbreviated": handshake_payload(
            Finished(b"\x33" * 12), ServerHello(random=b"\x11" * 32, session_id=b"\x42" * 32)
        ),
    }


def mutations(payload: bytes):
    """Every single bit flip; every truncation, of the payload and (framed
    anew) of each handshake message's body; and every big-endian field of
    one to three bytes grown by one and set to all ones — which covers every
    length prefix of the payload, oversized."""
    for bit in range(8 * len(payload)):
        yield flip_bit(payload, bit)
    for end in range(len(payload)):
        yield payload[:end]
    records = parse_records(payload)
    for r, record in enumerate(records):
        if record.content_type != ContentType.HANDSHAKE:
            continue
        messages = parse_handshake_messages(record.payload, {})  # bodies unparsed
        for m, (kind, body) in enumerate(messages):
            for end in range(len(body)):
                cut = messages[:m] + [(kind, body[:end])] + messages[m + 1 :]
                flight = b"".join(bytes((k,)) + len(b).to_bytes(3, "big") + b for k, b in cut)
                reframed = TLSRecord(ContentType.HANDSHAKE, flight)
                yield serialize_records(records[:r] + [reframed] + records[r + 1 :])
    for width in (1, 2, 3):
        for at in range(len(payload) - width + 1):
            value = int.from_bytes(payload[at : at + width], "big")
            for grown in {value + 1, 256**width - 1} - {value}:
                if grown < 256**width:
                    yield payload[:at] + grown.to_bytes(width, "big") + payload[at + width :]


class TestOffsetWalkMatchesTheParsers:
    """``inspect`` reads a payload by offset; the endpoint parsers it
    replaced decide what it must report, for every input."""

    @pytest.mark.parametrize(
        "shape",
        [
            "client-hello",
            "server-flight",
            "finished",
            "finished-ticket",
            "with-status",
            "abbreviated",
        ],
    )
    def test_every_mutation_of_a_flight(self, small_corpus, shape):
        payload = flight_shapes(small_corpus.chains[0])[shape]
        dpi = DPIEngine()
        assert inspected_facts(dpi, payload) == parsed_facts(payload)
        assert inspected_facts(dpi, payload)[1] is False  # the unmutated flight parses
        outcomes = set()
        for mutated in mutations(payload):
            facts = parsed_facts(mutated)
            assert inspected_facts(dpi, mutated) == facts, mutated.hex()
            outcomes.add((facts[0], facts[1]))
        assert outcomes == {(False, False), (True, True), (True, False)}

    def test_an_oversized_record_after_a_valid_one(self):
        """``looks_like_tls`` reads only the first header: a later record over
        2^14 bytes is a parse error, whatever its content type."""
        first = handshake_payload(Finished(b"\x33" * 12))
        for content_type in ContentType:
            for length in (MAX_RECORD_PAYLOAD, MAX_RECORD_PAYLOAD + 1):
                payload = first + struct.pack(">BBBH", content_type, 3, 3, length) + bytes(length)
                facts = parsed_facts(payload)
                # (zero bytes in a handshake record are handshake type 0: unknown)
                oversized = length > MAX_RECORD_PAYLOAD
                assert facts[1] is (oversized or content_type == ContentType.HANDSHAKE)
                assert inspected_facts(DPIEngine(), payload) == facts

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_built_flights(self, small_corpus, data):
        payload = data.draw(built_flight(small_corpus.chains))
        assert inspected_facts(DPIEngine(), payload) == parsed_facts(payload)


HELLO_FAULTS = (
    "version", "session", "suites", "compression", "block", "extension", "trailing", "short"
)
#: What can be wrong inside one handshake message's body, by handshake type.
BODY_FAULTS = {
    1: HELLO_FAULTS,
    2: HELLO_FAULTS,
    4: ("length", "short", "trailing"),
    11: ("short", "trailing"),
}
MESSAGE_KINDS = [1, 2, 4, 11, 14, 20]
RECORD_KINDS = [22, 22, 22, 23, 100, 21, 20]


def framed(draw, width: int, body: bytes, wrong: bool = False) -> bytes:
    """``body`` behind a big-endian length prefix, ``wrong`` by a little."""
    length = len(body) + (draw(st.sampled_from([-1, 1, 3])) if wrong else 0)
    return min(max(length, 0), 256**width - 1).to_bytes(width, "big") + body


def extensions_block(draw, wrong) -> bytes:
    parts = []
    for _ in range(draw(st.integers(0, 3))):
        kinds = [SERVER_NAME_TYPE, SESSION_TICKET_TYPE, RITM_SUPPORT_TYPE, 0xFF02]
        kind = draw(st.sampled_from(kinds))
        data = draw(st.binary(max_size=6))
        parts.append(kind.to_bytes(2, "big") + framed(draw, 2, data, wrong == "extension"))
    return framed(draw, 2, b"".join(parts), wrong == "block")


def hello_body(draw, client: bool, wrong) -> bytes:
    parts = [
        b"\x03\x01" if wrong == "version" else b"\x03\x03",
        bytes(RANDOM_SIZE),
        framed(draw, 1, draw(st.binary(max_size=32)), wrong == "session"),
    ]
    if client:
        suites = draw(st.lists(st.binary(min_size=2, max_size=2), max_size=4))
        if wrong == "suites":  # an odd length (the true one, or not)
            suites.append(b"\x00")
        parts.append(framed(draw, 2, b"".join(suites), wrong == "suites" and draw(st.booleans())))
        parts.append(b"\x01\x01" if wrong == "compression" else b"\x01\x00")
    else:
        parts.append(b"\xc0\x2f" + (b"\x01" if wrong == "compression" else b"\x00"))
    parts.append(extensions_block(draw, wrong))
    if wrong == "trailing":
        parts.append(draw(st.binary(min_size=1, max_size=4)))
    return b"".join(parts)


def message(draw, chains, kind: int, wrong) -> bytes:
    if wrong == "header":  # less than a handshake header
        return draw(st.binary(min_size=1, max_size=3))
    if kind in (1, 2):
        body = hello_body(draw, kind == 1, wrong)
        if wrong == "short":
            body = body[: draw(st.integers(0, len(body) - 1))]
    elif kind == 4:
        if wrong == "short":
            body = draw(st.binary(max_size=5))
        else:
            ticket = framed(draw, 2, draw(st.binary(max_size=12)), wrong == "length")
            body = b"\x00\x00\x0e\x10" + ticket + (b"\x00" if wrong == "trailing" else b"")
    elif kind == 11:
        body = draw(st.sampled_from(chains)).to_bytes()
        body = {"short": body[:-1], "trailing": body + b"\x00"}.get(wrong, body)
    else:
        body = draw(st.binary(max_size=12))
    if wrong == "type":
        kind = 3  # no such handshake type
    return bytes((kind,)) + framed(draw, 3, body, wrong == "frame")


#: Every (where, what is wrong) a built flight can carry; ``None``: nothing.
TARGETS = [
    (kind, wrong)
    for kind in MESSAGE_KINDS
    for wrong in (None, "frame", "type", "header") + BODY_FAULTS.get(kind, ())
] + [("record", wrong) for wrong in ("length", "type", "version")]


@st.composite
def built_flight(draw, chains) -> bytes:
    """One to three records of up to three handshake messages each, all well
    formed but for at most one field of one message or record (the target)."""
    target, wrong = draw(st.sampled_from(TARGETS))
    layout = draw(
        st.lists(
            st.tuples(
                st.sampled_from(RECORD_KINDS),
                st.lists(st.sampled_from(MESSAGE_KINDS), max_size=2),
            ),
            min_size=1,
            max_size=3,
        )
    )
    r = draw(st.integers(0, len(layout) - 1))
    if target != "record":
        kinds = list(layout[r][1])
        at = draw(st.integers(0, len(kinds)))
        layout[r] = (22, kinds[:at] + [target] + kinds[at:])
        spot = (r, at)
    else:
        spot = (r, None)
    payload = []
    for index, (kind, kinds) in enumerate(layout):
        if kind == 22:
            body = b"".join(
                message(draw, chains, message_kind, wrong if spot == (index, m) else None)
                for m, message_kind in enumerate(kinds)
            )
        else:
            body = draw(st.binary(max_size=8))
        faulty = wrong if spot == (index, None) else None
        payload.append(
            bytes((99 if faulty == "type" else kind,))
            + (b"\x03\x05" if faulty == "version" else b"\x03\x03")
            + framed(draw, 2, body, faulty == "length")
        )
    return b"".join(payload)
