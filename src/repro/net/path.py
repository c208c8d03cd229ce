"""A client↔server path with middleboxes, and the exchange engine over it.

RITM's validation protocol (§III, Fig. 3) is a conversation between a client
and a server across a path that contains zero or more Revocation Agents.
:class:`NetworkPath` models that path: an ordered list of middleboxes and the
links between consecutive hops.  :func:`exchange` delivers a packet along the
path (applying every middlebox in order, accumulating link and processing
latency), hands it to the destination endpoint, and recursively carries any
response packets back until no endpoint has anything left to say.

The engine keeps a log of every delivery, which the tests and the overhead
analysis use to count bytes on the wire and measure added latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import NetworkError
from repro.net.clock import SimulatedClock
from repro.net.link import Link, lan_link
from repro.net.node import Endpoint, Middlebox
from repro.net.packet import Direction, Packet


@dataclass
class DeliveryRecord:
    """One packet delivered end to end (after middlebox processing)."""

    packet: Packet
    direction: Direction
    sent_at: float
    delivered_at: float
    wire_bytes: int
    dropped: bool = False

    @property
    def latency(self) -> float:
        """Seconds between send and delivery."""
        return self.delivered_at - self.sent_at


@dataclass
class NetworkPath:
    """An ordered path: client endpoint, middleboxes, server endpoint."""

    client: Endpoint
    server: Endpoint
    middleboxes: List[Middlebox] = field(default_factory=list)
    links: Optional[List[Link]] = None

    def __post_init__(self) -> None:
        hop_count = len(self.middleboxes) + 1
        if self.links is None:
            self.links = [lan_link() for _ in range(hop_count)]
        if len(self.links) != hop_count:
            raise NetworkError(
                f"a path with {len(self.middleboxes)} middleboxes needs "
                f"{hop_count} links, got {len(self.links)}"
            )

    def hops_for(self, direction: Direction) -> Tuple[Sequence[Middlebox], Endpoint]:
        """Middleboxes in traversal order and the terminating endpoint."""
        if direction is Direction.CLIENT_TO_SERVER:
            return self.middleboxes, self.server
        return list(reversed(self.middleboxes)), self.client


class PathEngine:
    """Delivers packets over a :class:`NetworkPath` and tracks time and bytes."""

    def __init__(self, path: NetworkPath, clock: Optional[SimulatedClock] = None) -> None:
        self.path = path
        self.clock = clock if clock is not None else SimulatedClock()
        self.deliveries: List[DeliveryRecord] = []

    # -- public API -------------------------------------------------------------

    def send_from_client(self, packet: Packet, max_rounds: int = 64) -> List[Packet]:
        """Inject a packet at the client side and run the exchange to quiescence."""
        return self._exchange(packet, Direction.CLIENT_TO_SERVER, max_rounds)

    def send_from_server(self, packet: Packet, max_rounds: int = 64) -> List[Packet]:
        """Inject a packet at the server side and run the exchange to quiescence."""
        return self._exchange(packet, Direction.SERVER_TO_CLIENT, max_rounds)

    def total_wire_bytes(self) -> int:
        """Bytes that actually crossed the wire (dropped packets excluded)."""
        return sum(record.wire_bytes for record in self.deliveries if not record.dropped)

    # -- internals ----------------------------------------------------------------

    def _exchange(self, packet: Packet, direction: Direction, max_rounds: int) -> List[Packet]:
        pending: List[Tuple[Packet, Direction]] = [(packet, direction)]
        delivered: List[Packet] = []
        rounds = 0
        while pending:
            rounds += 1
            if rounds > max_rounds:
                raise NetworkError(
                    f"exchange did not quiesce after {max_rounds} rounds; "
                    "a protocol loop is likely"
                )
            current, current_direction = pending.pop(0)
            responses, final_packet = self._deliver(current, current_direction)
            if final_packet is not None:
                delivered.append(final_packet)
            for response in responses:
                pending.append((response, current_direction.reversed()))
        return delivered

    def _deliver(
        self, packet: Packet, direction: Direction
    ) -> Tuple[List[Packet], Optional[Packet]]:
        """Carry one packet across the path; returns (responses, delivered packet)."""
        middleboxes, destination = self.path.hops_for(direction)
        links = self.path.links if direction is Direction.CLIENT_TO_SERVER else list(
            reversed(self.path.links)
        )
        sent_at = self.clock.now()
        in_flight: List[Packet] = [packet]
        injected: List[Packet] = []

        for hop_index, middlebox in enumerate(middleboxes):
            if not in_flight:
                break
            self.clock.advance(links[hop_index].transfer_time(in_flight[0].size))
            next_flight: List[Packet] = []
            for transiting in in_flight:
                self.clock.advance(middlebox.processing_delay(transiting))
                outputs = middlebox.process_packet(transiting, self.clock.now())
                next_flight.extend(outputs)
            in_flight = next_flight

        if not in_flight:
            self.deliveries.append(
                DeliveryRecord(
                    packet=packet,
                    direction=direction,
                    sent_at=sent_at,
                    delivered_at=self.clock.now(),
                    wire_bytes=0,
                    dropped=True,
                )
            )
            return [], None

        # Final link into the destination endpoint.
        self.clock.advance(links[-1].transfer_time(in_flight[0].size))
        responses: List[Packet] = []
        delivered_packet: Optional[Packet] = None
        for arriving in in_flight:
            self.deliveries.append(
                DeliveryRecord(
                    packet=arriving,
                    direction=direction,
                    sent_at=sent_at,
                    delivered_at=self.clock.now(),
                    wire_bytes=arriving.size,
                )
            )
            delivered_packet = arriving
            responses.extend(destination.handle_packet(arriving, self.clock.now()))
        return responses, delivered_packet
