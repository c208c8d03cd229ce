"""A client↔server path with middleboxes, and the exchange engine over it.

RITM's validation protocol (§III, Fig. 3) is a conversation between a client
and a server across a path that contains zero or more Revocation Agents.
:class:`NetworkPath` models that path: an ordered list of middleboxes and the
links between consecutive hops.  :func:`exchange` delivers a packet along the
path (applying every middlebox in order, accumulating link and processing
latency), hands it to the destination endpoint, and recursively carries any
response packets back until no endpoint has anything left to say.

The engine counts what crossed the last link into an endpoint (packets and
bytes) and what a middlebox dropped; the tests and the overhead analysis read
bytes on the wire from those counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import NetworkError
from repro.net.clock import SimulatedClock
from repro.net.link import Link, lan_link
from repro.net.node import Endpoint, Middlebox
from repro.net.packet import Direction, Packet


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


class PathEngine:
    """Delivers packets over a :class:`NetworkPath` and tracks time and bytes."""

    def __init__(self, path: NetworkPath, clock: Optional[SimulatedClock] = None) -> None:
        self.path = path
        self.clock = clock if clock is not None else SimulatedClock()
        #: Bytes and packets that crossed the last link into an endpoint, and
        #: packets sent whose flight a middlebox emptied.
        self.wire_bytes = 0
        self.packets_delivered = 0
        self.packets_dropped = 0
        # Both traversal orders, fixed when the engine is built: each middlebox
        # paired with the link into it, then the link into the destination.
        links, boxes = path.links, path.middleboxes
        self._to_server = (tuple(zip(links, boxes)), links[-1], path.server)
        self._to_client = (tuple(zip(links[::-1], boxes[::-1])), links[0], path.client)

    # -- public API -------------------------------------------------------------

    def send_from_client(self, packet: Packet, max_rounds: int = 64) -> List[Packet]:
        """Inject a packet at the client side and run the exchange to quiescence."""
        return self._exchange(packet, Direction.CLIENT_TO_SERVER, max_rounds)

    def send_from_server(self, packet: Packet, max_rounds: int = 64) -> List[Packet]:
        """Inject a packet at the server side and run the exchange to quiescence."""
        return self._exchange(packet, Direction.SERVER_TO_CLIENT, max_rounds)

    def total_wire_bytes(self) -> int:
        """Bytes that actually crossed the wire (dropped packets excluded)."""
        return self.wire_bytes

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
        hops, last_link, destination = (
            self._to_server if direction is Direction.CLIENT_TO_SERVER else self._to_client
        )
        clock = self.clock
        in_flight: List[Packet] = [packet]

        for link, middlebox in hops:
            if not in_flight:
                break
            clock.advance(link.transfer_time(in_flight[0].size))
            next_flight: List[Packet] = []
            for transiting in in_flight:
                now = clock.advance(middlebox.processing_delay(transiting))
                next_flight.extend(middlebox.process_packet(transiting, now))
            in_flight = next_flight

        if not in_flight:
            self.packets_dropped += 1
            return [], None

        # Final link into the destination endpoint.
        now = clock.advance(last_link.transfer_time(in_flight[0].size))
        responses: List[Packet] = []
        for arriving in in_flight:
            self.packets_delivered += 1
            self.wire_bytes += arriving.size
            responses.extend(destination.handle_packet(arriving, now))
        return responses, in_flight[-1]
