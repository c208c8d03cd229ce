"""Tests for handshake message encoding and parsing."""

import pytest

from repro.errors import TLSError
from repro.tls.extensions import (
    Extension,
    decode_extensions,
    encode_extensions,
    find_extension,
    has_ritm_support,
    ritm_server_confirm_extension,
    ritm_support_extension,
    server_name_extension,
    has_ritm_server_confirmation,
)
from repro.tls.messages import (
    CertificateMessage,
    ClientHello,
    Finished,
    HandshakeType,
    NewSessionTicket,
    ServerHello,
    ServerHelloDone,
    parse_handshake_messages,
)


class TestExtensions:
    def test_roundtrip(self):
        extensions = [ritm_support_extension(), server_name_extension("example.com")]
        encoded = encode_extensions(extensions)
        assert decode_extensions(encoded, 0, len(encoded)) == extensions

    def test_find_extension(self):
        extensions = [ritm_support_extension(), server_name_extension("x.com")]
        assert find_extension(extensions, 0).data == b"x.com"
        assert find_extension(extensions, 0x9999) is None

    def test_ritm_support_detection(self):
        assert has_ritm_support([ritm_support_extension()])
        assert not has_ritm_support([server_name_extension("x.com")])

    def test_ritm_server_confirmation_detection(self):
        assert has_ritm_server_confirmation([ritm_server_confirm_extension()])
        assert not has_ritm_server_confirmation([])

    def test_truncated_extension_block_rejected(self):
        encoded = encode_extensions([ritm_support_extension()])
        with pytest.raises(TLSError):
            decode_extensions(encoded[:-2], 0, len(encoded) - 2)

    def test_wire_size(self):
        extension = Extension(5, b"abc")
        assert extension.wire_size == 4 + 3 == len(extension.to_bytes())


class TestClientHello:
    def test_roundtrip_with_extensions(self):
        hello = ClientHello(
            session_id=b"\x11" * 8,
            extensions=(ritm_support_extension(), server_name_extension("shop.example")),
        )
        parsed = parse_handshake_messages(hello.to_bytes())
        assert len(parsed) == 1
        handshake_type, message = parsed[0]
        assert handshake_type == HandshakeType.CLIENT_HELLO
        assert message.session_id == b"\x11" * 8
        assert has_ritm_support(list(message.extensions))
        assert message.cipher_suites == hello.cipher_suites

    def test_random_is_32_bytes(self):
        assert len(ClientHello().random) == 32

    def test_truncated_body_rejected(self):
        data = ClientHello().to_bytes()
        with pytest.raises(TLSError):
            parse_handshake_messages(data[:10])


class TestServerMessages:
    def test_server_hello_roundtrip(self):
        hello = ServerHello(
            session_id=b"\x22" * 16, extensions=(ritm_server_confirm_extension(),)
        )
        handshake_type, message = parse_handshake_messages(hello.to_bytes())[0]
        assert handshake_type == HandshakeType.SERVER_HELLO
        assert message.session_id == b"\x22" * 16
        assert has_ritm_server_confirmation(list(message.extensions))

    def test_certificate_message_roundtrip(self, small_corpus):
        chain = small_corpus.chains[0]
        message = CertificateMessage(chain)
        handshake_type, decoded = parse_handshake_messages(message.to_bytes())[0]
        assert handshake_type == HandshakeType.CERTIFICATE
        assert decoded.chain == chain

    def test_server_hello_done_and_finished(self):
        payload = ServerHelloDone().to_bytes() + Finished(verify_data=b"\xaa" * 12).to_bytes()
        messages = parse_handshake_messages(payload)
        assert messages[0][0] == HandshakeType.SERVER_HELLO_DONE
        assert messages[1][0] == HandshakeType.FINISHED
        assert messages[1][1].verify_data == b"\xaa" * 12

    def test_new_session_ticket_roundtrip(self):
        ticket = NewSessionTicket(lifetime_seconds=3600, ticket=b"ticket-bytes")
        handshake_type, decoded = parse_handshake_messages(ticket.to_bytes())[0]
        assert handshake_type == HandshakeType.NEW_SESSION_TICKET
        assert decoded.ticket == b"ticket-bytes"
        assert decoded.lifetime_seconds == 3600

    def test_full_server_flight_parses_in_order(self, small_corpus):
        chain = small_corpus.chains[0]
        flight = (
            ServerHello().to_bytes()
            + CertificateMessage(chain).to_bytes()
            + ServerHelloDone().to_bytes()
        )
        types = [handshake_type for handshake_type, _ in parse_handshake_messages(flight)]
        assert types == [
            HandshakeType.SERVER_HELLO,
            HandshakeType.CERTIFICATE,
            HandshakeType.SERVER_HELLO_DONE,
        ]

    def test_unknown_handshake_type_rejected(self):
        bogus = bytes([99]) + (1).to_bytes(3, "big") + b"\x00"
        with pytest.raises(TLSError):
            parse_handshake_messages(bogus)
