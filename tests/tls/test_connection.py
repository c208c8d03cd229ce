"""Tests for the TLS client/server connection state machines."""

import pytest

from repro.errors import CertificateError, TLSError
from repro.tls.connection import (
    ClientConnectionConfig,
    HandshakeStage,
    ServerConnectionConfig,
    TLSClientConnection,
    TLSServerConnection,
)
from repro.tls.records import ContentType, parse_records

NOW = 1_400_000_100


def run_handshake(client, server, now=NOW):
    """Drive records between the two endpoints until both are quiescent."""
    to_server = [client.client_hello()]
    guard = 0
    while to_server:
        guard += 1
        assert guard < 20, "handshake did not converge"
        to_client = []
        for record in to_server:
            to_client.extend(server.process_record(record, now))
        to_server = []
        for record in to_client:
            to_server.extend(client.process_record(record, now))
    return client, server


@pytest.fixture()
def endpoints(small_corpus):
    chain = small_corpus.chains[0]
    client = TLSClientConnection(
        ClientConnectionConfig(server_name=chain.leaf.subject), small_corpus.trust_store
    )
    server = TLSServerConnection(ServerConnectionConfig(chain=chain))
    return client, server, chain


class TestFullHandshake:
    def test_handshake_reaches_established(self, endpoints):
        client, server, _ = endpoints
        run_handshake(client, server)
        assert client.is_established
        assert server.stage == HandshakeStage.ESTABLISHED

    def test_client_validates_certificate_chain(self, endpoints):
        client, server, chain = endpoints
        run_handshake(client, server)
        assert client.server_chain == chain
        assert client.validation.valid

    def test_client_receives_session_ticket(self, endpoints):
        client, server, _ = endpoints
        run_handshake(client, server)
        assert client.received_ticket is not None
        assert client.negotiated_session_id

    def test_server_detects_ritm_extension(self, endpoints):
        client, server, _ = endpoints
        run_handshake(client, server)
        assert server.client_supports_ritm

    def test_server_without_ritm_extension(self, small_corpus):
        chain = small_corpus.chains[0]
        client = TLSClientConnection(
            ClientConnectionConfig(server_name=chain.leaf.subject, use_ritm_extension=False),
            small_corpus.trust_store,
        )
        server = TLSServerConnection(ServerConnectionConfig(chain=chain))
        run_handshake(client, server)
        assert not server.client_supports_ritm
        assert client.is_established

    def test_terminator_confirms_ritm_in_server_hello(self, small_corpus):
        chain = small_corpus.chains[0]
        client = TLSClientConnection(
            ClientConnectionConfig(server_name=chain.leaf.subject), small_corpus.trust_store
        )
        server = TLSServerConnection(
            ServerConnectionConfig(chain=chain, acts_as_ritm_terminator=True)
        )
        run_handshake(client, server)
        assert client.server_confirmed_ritm

    def test_wrong_hostname_fails_validation(self, small_corpus):
        chain = small_corpus.chains[0]
        client = TLSClientConnection(
            ClientConnectionConfig(server_name="wrong.example"), small_corpus.trust_store
        )
        server = TLSServerConnection(ServerConnectionConfig(chain=chain))
        with pytest.raises(CertificateError):
            run_handshake(client, server)

    def test_application_data_after_establishment(self, endpoints):
        client, server, _ = endpoints
        run_handshake(client, server)
        record = client.application_data(b"GET / HTTP/1.1")
        server.process_record(record, NOW)
        assert server.application_data_received == [b"GET / HTTP/1.1"]

    def test_application_data_before_establishment_rejected(self, endpoints):
        client, _, _ = endpoints
        with pytest.raises(TLSError):
            client.application_data(b"too early")


class TestResumption:
    def test_session_id_resumption_skips_certificate(self, small_corpus):
        chain = small_corpus.chains[0]
        cache_server = TLSServerConnection(ServerConnectionConfig(chain=chain))
        first_client = TLSClientConnection(
            ClientConnectionConfig(server_name=chain.leaf.subject), small_corpus.trust_store
        )
        run_handshake(first_client, cache_server)
        session_id = first_client.negotiated_session_id

        resumed_client = TLSClientConnection(
            ClientConnectionConfig(server_name=chain.leaf.subject, session_id=session_id),
            small_corpus.trust_store,
        )
        resumed_server = TLSServerConnection(
            ServerConnectionConfig(chain=chain),
            session_cache=cache_server.session_cache,
            ticket_issuer=cache_server.ticket_issuer,
        )
        run_handshake(resumed_client, resumed_server)
        assert resumed_client.is_established
        assert resumed_client.resumed
        assert resumed_server.resumed
        assert resumed_client.server_chain is None  # no Certificate message

    def test_ticket_resumption(self, small_corpus):
        chain = small_corpus.chains[0]
        original_server = TLSServerConnection(ServerConnectionConfig(chain=chain))
        original_client = TLSClientConnection(
            ClientConnectionConfig(server_name=chain.leaf.subject), small_corpus.trust_store
        )
        run_handshake(original_client, original_server)
        ticket = original_client.received_ticket.ticket

        resumed_client = TLSClientConnection(
            ClientConnectionConfig(server_name=chain.leaf.subject, session_ticket=ticket),
            small_corpus.trust_store,
        )
        resumed_server = TLSServerConnection(
            ServerConnectionConfig(chain=chain),
            ticket_issuer=original_server.ticket_issuer,
        )
        run_handshake(resumed_client, resumed_server)
        assert resumed_server.resumed
        assert resumed_client.is_established

    def test_unknown_session_id_falls_back_to_full_handshake(self, small_corpus):
        chain = small_corpus.chains[0]
        client = TLSClientConnection(
            ClientConnectionConfig(server_name=chain.leaf.subject, session_id=b"\x42" * 32),
            small_corpus.trust_store,
        )
        server = TLSServerConnection(ServerConnectionConfig(chain=chain))
        run_handshake(client, server)
        assert client.is_established
        assert not server.resumed
        assert client.server_chain is not None


class TestStateMachineErrors:
    def test_unexpected_server_hello_rejected(self, endpoints):
        client, _, _ = endpoints
        from repro.tls.messages import ServerHello
        from repro.tls.records import TLSRecord

        record = TLSRecord(ContentType.HANDSHAKE, ServerHello().to_bytes())
        with pytest.raises(TLSError):
            client.process_record(record, NOW)  # no ClientHello sent yet

    def test_server_rejects_premature_application_data(self, endpoints):
        _, server, _ = endpoints
        from repro.tls.records import TLSRecord

        with pytest.raises(TLSError):
            server.process_record(TLSRecord(ContentType.APPLICATION_DATA, b"x"), NOW)

    def test_alert_closes_connection(self, endpoints):
        client, server, _ = endpoints
        run_handshake(client, server)
        from repro.tls.records import TLSRecord

        client.process_record(TLSRecord(ContentType.ALERT, b"\x02\x28"), NOW)
        assert client.stage == HandshakeStage.CLOSED


class TestChainValidationCache:
    """The memoized chain-validation fast path must be invisible except in cost."""

    def test_cached_result_matches_uncached(self, small_corpus):
        from repro.pki.validation import validate_chain
        from repro.tls.connection import ChainValidationCache

        chain = small_corpus.chains[0]
        cache = ChainValidationCache()
        direct = validate_chain(
            chain, small_corpus.trust_store, now=NOW, expected_subject=chain.leaf.subject
        )
        cached = cache.validate(
            chain, small_corpus.trust_store, now=NOW, expected_subject=chain.leaf.subject
        )
        again = cache.validate(
            chain, small_corpus.trust_store, now=NOW, expected_subject=chain.leaf.subject
        )
        assert cached.valid and direct.valid
        assert cached.checks == direct.checks
        assert again is cached  # served from the cache
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_lookup_outside_validity_window_reverifies(self, small_corpus):
        from repro.tls.connection import ChainValidationCache

        chain = small_corpus.chains[0]
        cache = ChainValidationCache()
        assert cache.validate(chain, small_corpus.trust_store, now=NOW).valid
        far_future = max(cert.not_after for cert in chain) + 10
        late = cache.validate(chain, small_corpus.trust_store, now=far_future)
        assert not late.valid
        assert "validity window" in late.reason
        assert len(cache) == 0  # the dead entry was dropped, failure not cached

    def test_failures_are_not_cached(self, small_corpus):
        from repro.tls.connection import ChainValidationCache

        chain = small_corpus.chains[0]
        cache = ChainValidationCache()
        for _ in range(2):
            result = cache.validate(
                chain, small_corpus.trust_store, now=NOW, expected_subject="wrong.example"
            )
            assert not result.valid
        assert len(cache) == 0
        assert cache.stats.misses == 2

    def test_trust_store_contents_are_part_of_the_key(self, small_corpus):
        from repro.pki.ca import TrustStore
        from repro.tls.connection import ChainValidationCache

        chain = small_corpus.chains[0]
        cache = ChainValidationCache()
        assert cache.validate(chain, small_corpus.trust_store, now=NOW).valid
        empty = TrustStore()
        distrusted = cache.validate(chain, empty, now=NOW)
        assert not distrusted.valid
        assert cache.stats.hits == 0  # different trust store, different key

    def test_client_connection_uses_shared_cache(self, small_corpus):
        from repro.tls.connection import ChainValidationCache

        chain = small_corpus.chains[0]
        cache = ChainValidationCache()
        for _ in range(2):
            client = TLSClientConnection(
                ClientConnectionConfig(
                    server_name=chain.leaf.subject, validation_cache=cache
                ),
                small_corpus.trust_store,
            )
            server = TLSServerConnection(ServerConnectionConfig(chain=chain))
            run_handshake(client, server)
            assert client.is_established
            assert client.validation.valid
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_standalone_connection_validates_through_a_disabled_cache(self, small_corpus):
        """No cache passed: the one validation call still goes through a
        ``ChainValidationCache`` — private, ``maxsize=0``, memoizing nothing."""
        chain = small_corpus.chains[0]
        caches = []
        for _ in range(2):
            client = TLSClientConnection(
                ClientConnectionConfig(server_name=chain.leaf.subject),
                small_corpus.trust_store,
            )
            run_handshake(client, TLSServerConnection(ServerConnectionConfig(chain=chain)))
            assert client.validation.valid
            caches.append(client.config.validation_cache)
        assert caches[0] is not caches[1]
        for cache in caches:
            assert (cache.stats.misses, cache.stats.hits, len(cache)) == (1, 0, 0)
