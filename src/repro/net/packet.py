"""Packets and flow identification.

The RA keys its per-connection state on the TCP/IP five-tuple (Eq. 4 of the
paper: source/destination IP and port).  The simulator's packet is a thin
container: addressing, an opaque payload (usually one or more serialized TLS
records), and bookkeeping fields the middlebox uses when it rewrites
payloads (the simulated equivalent of fixing up TCP sequence numbers).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

_packet_counter = itertools.count(1)


class Direction(Enum):
    """Which way a packet travels relative to the client."""

    CLIENT_TO_SERVER = "client_to_server"
    SERVER_TO_CLIENT = "server_to_client"

    def reversed(self) -> "Direction":
        """The opposite direction of travel."""
        if self is Direction.CLIENT_TO_SERVER:
            return Direction.SERVER_TO_CLIENT
        return Direction.CLIENT_TO_SERVER


@dataclass(frozen=True, order=True)
class FiveTuple:
    """Flow identifier: protocol, source, destination."""

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    protocol: str = "tcp"

    def reversed(self) -> "FiveTuple":
        """The same flow seen from the other endpoint."""
        return FiveTuple(
            src_ip=self.dst_ip,
            src_port=self.dst_port,
            dst_ip=self.src_ip,
            dst_port=self.src_port,
            protocol=self.protocol,
        )

    def canonical(self) -> "FiveTuple":
        """Direction-independent form: both directions map to the same key."""
        forward = (self.src_ip, self.src_port, self.dst_ip, self.dst_port)
        backward = (self.dst_ip, self.dst_port, self.src_ip, self.src_port)
        if forward <= backward:
            return self
        return self.reversed()

    def __str__(self) -> str:
        return f"{self.src_ip}:{self.src_port} -> {self.dst_ip}:{self.dst_port}/{self.protocol}"


@dataclass(frozen=True)
class Packet:
    """A simulated packet carrying an opaque payload between two endpoints."""

    flow: FiveTuple
    payload: bytes
    direction: Direction = Direction.CLIENT_TO_SERVER
    sequence: int = 0
    created_at: float = 0.0
    packet_id: int = field(default_factory=lambda: next(_packet_counter))

    @property
    def size(self) -> int:
        """Payload size plus a nominal 40-byte TCP/IP header."""
        return len(self.payload) + 40

    def with_payload(self, payload: bytes) -> "Packet":
        """A copy with a rewritten payload (what an RA does when appending status)."""
        return Packet(
            self.flow, payload, self.direction, self.sequence, self.created_at, self.packet_id
        )

    def reply(self, payload: bytes, created_at: Optional[float] = None) -> "Packet":
        """Build a response packet on the reverse flow."""
        return Packet(
            flow=self.flow.reversed(),
            payload=payload,
            direction=self.direction.reversed(),
            sequence=self.sequence + 1,
            created_at=self.created_at if created_at is None else created_at,
        )


def make_flow(
    client_ip: str, client_port: int, server_ip: str, server_port: int = 443
) -> FiveTuple:
    """Convenience constructor for a client→server TLS flow."""
    return FiveTuple(
        src_ip=client_ip, src_port=client_port, dst_ip=server_ip, dst_port=server_port
    )
