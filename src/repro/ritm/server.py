"""TLS servers and TLS terminators as network endpoints.

The plain :class:`RITMServer` is an ordinary TLS server: it ignores the RITM
ClientHello extension entirely (paper §III step 3 — servers need no changes).
The :class:`TLSTerminator` models the close-to-server deployment (§IV): a
data-center ingress box that terminates TLS on behalf of the servers, whose
handshake confirms RITM support inside the ServerHello, and which typically
has an RA co-located with it.
"""

from __future__ import annotations

from typing import List, Optional

from repro.net.node import Endpoint
from repro.net.packet import Direction, Packet
from repro.pki.certificate import CertificateChain
from repro.tls.connection import (
    ServerConnectionConfig,
    TLSServerConnection,
)
from repro.tls.records import TLSRecord, parse_records, serialize_records
from repro.tls.session import SessionCache, TicketIssuer


class RITMServer(Endpoint):
    """An unmodified TLS server endpoint."""

    def __init__(
        self,
        ip_address: str,
        chain: CertificateChain,
        acts_as_ritm_terminator: bool = False,
        session_cache: Optional[SessionCache] = None,
        ticket_issuer: Optional[TicketIssuer] = None,
    ) -> None:
        super().__init__(ip_address)
        self.chain = chain
        self._session_cache = session_cache if session_cache is not None else SessionCache()
        self._ticket_issuer = ticket_issuer if ticket_issuer is not None else TicketIssuer()
        self._acts_as_terminator = acts_as_ritm_terminator
        #: One connection state machine per flow (keyed by the client side).
        self._connections: dict = {}
        self.application_payloads: List[bytes] = []

    def _connection_for(self, packet: Packet) -> TLSServerConnection:
        key = (packet.flow.src_ip, packet.flow.src_port)
        if key not in self._connections:
            self._connections[key] = TLSServerConnection(
                ServerConnectionConfig(
                    chain=self.chain,
                    acts_as_ritm_terminator=self._acts_as_terminator,
                ),
                session_cache=self._session_cache,
                ticket_issuer=self._ticket_issuer,
            )
        return self._connections[key]

    def handle_packet(self, packet: Packet, now: float) -> List[Packet]:
        connection = self._connection_for(packet)
        records = parse_records(packet.payload)
        responses: List[TLSRecord] = []
        for record in records:
            if record.is_ritm_status():
                # A server never sees these in practice (they travel towards
                # the client); ignore them defensively.
                continue
            responses.extend(connection.process_record(record, int(now)))
        self.application_payloads.extend(connection.application_data_received)
        connection.application_data_received = []
        if responses:
            return [packet.reply(serialize_records(responses), created_at=now)]
        return []

    def send_application_data(self, client_flow, payload: bytes, now: float) -> Packet:
        """Build a server→client application-data packet on an established session."""
        key = (client_flow.src_ip, client_flow.src_port)
        if key not in self._connections:
            raise KeyError(f"no TLS connection for client {key}")
        record = self._connections[key].application_data(payload)
        return Packet(
            flow=client_flow.reversed(),
            payload=record.to_bytes(),
            direction=Direction.SERVER_TO_CLIENT,
            created_at=now,
        )


class TLSTerminator(RITMServer):
    """A data-center TLS terminator that confirms RITM support in ServerHello.

    In the close-to-server deployment the terminator is where the RA
    functionality is attached; confirming support inside the (integrity
    protected) handshake is what defeats downgrade attacks in that model.
    """

    def __init__(self, ip_address: str, chain: CertificateChain, **kwargs) -> None:
        super().__init__(ip_address, chain, acts_as_ritm_terminator=True, **kwargs)
