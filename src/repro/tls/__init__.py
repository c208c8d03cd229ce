"""TLS substrate: records, handshake messages, extensions, sessions, endpoints."""

from repro.tls.connection import (
    ClientConnectionConfig,
    HandshakeStage,
    ServerConnectionConfig,
    TLSClientConnection,
    TLSServerConnection,
)
from repro.tls.extensions import (
    Extension,
    RITM_SERVER_CONFIRM_TYPE,
    RITM_SUPPORT_TYPE,
    has_ritm_server_confirmation,
    has_ritm_support,
    ritm_server_confirm_extension,
    ritm_support_extension,
    server_name_extension,
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
from repro.tls.records import (
    ContentType,
    TLSRecord,
    looks_like_tls,
    parse_records,
    serialize_records,
)
from repro.tls.session import SessionCache, SessionState, TicketIssuer

__all__ = [
    "ContentType",
    "TLSRecord",
    "parse_records",
    "serialize_records",
    "looks_like_tls",
    "Extension",
    "RITM_SUPPORT_TYPE",
    "RITM_SERVER_CONFIRM_TYPE",
    "ritm_support_extension",
    "ritm_server_confirm_extension",
    "server_name_extension",
    "has_ritm_support",
    "has_ritm_server_confirmation",
    "ClientHello",
    "ServerHello",
    "CertificateMessage",
    "ServerHelloDone",
    "Finished",
    "NewSessionTicket",
    "HandshakeType",
    "parse_handshake_messages",
    "SessionCache",
    "SessionState",
    "TicketIssuer",
    "TLSClientConnection",
    "TLSServerConnection",
    "ClientConnectionConfig",
    "ServerConnectionConfig",
    "HandshakeStage",
]
