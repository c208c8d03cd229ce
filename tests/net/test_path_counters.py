"""The path engine's counters and clock, checked against what endpoints saw.

The engine keeps three integers instead of a record per packet.  These tests
derive the same totals independently — from the packets the endpoints and
middleboxes were actually handed — on paths that drop, grow and reverse, and
pin the simulated arrival times of a full handshake over each deployment
builder, which must not move when the traversal is restructured.
"""

from typing import List, Tuple

import pytest

from repro.net.clock import SimulatedClock
from repro.net.link import Link
from repro.net.node import DroppingMiddlebox, Endpoint, Middlebox, TamperingMiddlebox
from repro.net.packet import Direction, Packet, make_flow
from repro.net.path import NetworkPath, PathEngine
from repro.ritm.deployment import (
    build_close_to_client_deployment,
    build_close_to_server_deployment,
    build_unprotected_path,
)

from tests.ritm.conftest import EPOCH, build_world

FLOW = make_flow("10.0.0.1", 40000, "10.0.0.2", 443)


class Recorder(Endpoint):
    """Logs ``(arrival time, packet)`` and answers from a script of reply payloads."""

    def __init__(self, ip_address: str, replies=()) -> None:
        super().__init__(ip_address)
        self.arrivals: List[Tuple[float, Packet]] = []
        self._replies = list(replies)

    def handle_packet(self, packet: Packet, now: float) -> List[Packet]:
        self.arrivals.append((now, packet))
        if not self._replies:
            return []
        return [packet.reply(payload, created_at=now) for payload in self._replies.pop(0)]


class Stamp(Middlebox):
    """Forwards untouched after a fixed delay, logging when it saw the packet."""

    def __init__(self, name: str, delay: float) -> None:
        super().__init__(name)
        self.delay = delay
        self.seen: List[Tuple[float, Direction]] = []

    def processing_delay(self, packet: Packet) -> float:
        return self.delay

    def process_packet(self, packet: Packet, now: float) -> List[Packet]:
        self.seen.append((now, packet.direction))
        return [packet]


def counters(engine: PathEngine) -> Tuple[int, int, int]:
    return engine.total_wire_bytes(), engine.packets_delivered, engine.packets_dropped


def arrived(*endpoints: Recorder) -> Tuple[int, int]:
    """(bytes, packets) the endpoints were handed."""
    packets = [packet for endpoint in endpoints for _, packet in endpoint.arrivals]
    return sum(packet.size for packet in packets), len(packets)


class TestCounters:
    def test_a_fresh_engine_counts_nothing(self):
        engine = PathEngine(NetworkPath(client=Recorder("a"), server=Recorder("b")))
        assert counters(engine) == (0, 0, 0)

    def test_dropped_packets_count_as_dropped_and_carry_no_bytes(self):
        # The server answers each request with two packets; the second of
        # every pair is dropped on its way back.
        client = Recorder("10.0.0.1")
        server = Recorder("10.0.0.2", replies=[(b"kept-1", b"lost"), (b"kept-2", b"lost")])
        dropper = DroppingMiddlebox(lambda packet: packet.payload == b"lost")
        engine = PathEngine(NetworkPath(client=client, server=server, middleboxes=[dropper]))
        for payload in (b"first request", b"second"):
            engine.send_from_client(Packet(flow=FLOW, payload=payload))
        assert dropper.dropped_count == 2
        assert [packet.payload for _, packet in client.arrivals] == [b"kept-1", b"kept-2"]
        wire_bytes, packets = arrived(client, server)
        assert packets == 4
        assert counters(engine) == (wire_bytes, 4, 2)
        payloads = (b"first request", b"second", b"kept-1", b"kept-2")
        assert wire_bytes == sum(len(payload) + 40 for payload in payloads)

    def test_a_grown_payload_is_counted_at_the_size_that_arrived(self):
        client, server = Recorder("10.0.0.1"), Recorder("10.0.0.2", replies=[(b"ok",)])
        grower = TamperingMiddlebox(
            should_tamper=lambda packet: packet.direction is Direction.SERVER_TO_CLIENT,
            tamper=lambda payload: payload + b"+status" * 10,
        )
        engine = PathEngine(NetworkPath(client=client, server=server, middleboxes=[grower]))
        sent = Packet(flow=FLOW, payload=b"hello")
        engine.send_from_client(sent)
        (_, request), (_, reply) = server.arrivals[0], client.arrivals[0]
        assert request is sent and reply.payload == b"ok" + b"+status" * 10
        assert counters(engine) == (sent.size + reply.size, 2, 0)
        assert counters(engine)[:2] == arrived(client, server)

    def test_an_injecting_middlebox_delivers_more_packets_than_were_sent(self):
        class Doubler(Middlebox):
            def process_packet(self, packet: Packet, now: float) -> List[Packet]:
                return [packet, packet.with_payload(b"injected")]

        client, server = Recorder("10.0.0.1"), Recorder("10.0.0.2")
        engine = PathEngine(NetworkPath(client=client, server=server, middleboxes=[Doubler()]))
        delivered = engine.send_from_client(Packet(flow=FLOW, payload=b"one"))
        assert [packet.payload for packet in delivered] == [b"injected"]  # the last to arrive
        assert counters(engine) == (*arrived(server), 0) == ((3 + 40) + (8 + 40), 2, 0)


class TestTraversalOrder:
    """Two middleboxes and three distinct links, crossed in both directions."""

    LINKS = [Link(0.001, 1e6, "first"), Link(0.02, 2e6, "middle"), Link(0.3, 4e6, "last")]

    def build(self):
        client = Recorder("10.0.0.1")
        server = Recorder("10.0.0.2", replies=[(b"r" * 1000,)])
        near, far = Stamp("near", 0.5), Stamp("far", 0.0625)
        path = NetworkPath(client=client, server=server, middleboxes=[near, far], links=self.LINKS)
        return client, server, near, far, PathEngine(path, clock=SimulatedClock(100.0))

    def test_each_direction_crosses_links_and_boxes_in_its_own_order(self):
        client, server, near, far, engine = self.build()
        request = Packet(flow=FLOW, payload=b"q" * 100)
        engine.send_from_client(request)
        first, middle, last = self.LINKS

        now = 100.0
        now += first.transfer_time(request.size)
        now += near.delay
        at_near = now
        now += middle.transfer_time(request.size)
        now += far.delay
        at_far = now
        now += last.transfer_time(request.size)
        assert server.arrivals[0][0] == now

        reply = client.arrivals[0][1]
        now += last.transfer_time(reply.size)
        now += far.delay
        back_at_far = now
        now += middle.transfer_time(reply.size)
        now += near.delay
        back_at_near = now
        now += first.transfer_time(reply.size)
        assert client.arrivals[0][0] == now == engine.clock.now()

        out, back = Direction.CLIENT_TO_SERVER, Direction.SERVER_TO_CLIENT
        assert near.seen == [(at_near, out), (back_at_near, back)]
        assert far.seen == [(at_far, out), (back_at_far, back)]
        assert counters(engine) == (request.size + reply.size, 2, 0)

    def test_a_packet_injected_at_the_server_side_takes_the_reverse_route(self):
        client, _, near, far, engine = self.build()
        push = Packet(flow=FLOW.reversed(), payload=b"p" * 10, direction=Direction.SERVER_TO_CLIENT)
        engine.send_from_server(push)
        assert [box.seen[0][1] for box in (far, near)] == [Direction.SERVER_TO_CLIENT] * 2
        assert far.seen[0][0] < near.seen[0][0] < client.arrivals[0][0]
        assert counters(engine) == (push.size, 1, 0)

    def test_a_drop_at_the_second_box_stops_the_clock_there(self):
        client = Recorder("10.0.0.1")
        server = Recorder("10.0.0.2")
        near, blackhole = Stamp("near", 0.5), DroppingMiddlebox(lambda packet: True)
        path = NetworkPath(
            client=client, server=server, middleboxes=[near, blackhole], links=self.LINKS
        )
        engine = PathEngine(path, clock=SimulatedClock(0.0))
        request = Packet(flow=FLOW, payload=b"q")
        assert engine.send_from_client(request) == []
        first, middle, _ = self.LINKS
        expected = 0.0
        expected += first.transfer_time(request.size)
        expected += near.delay
        expected += middle.transfer_time(request.size)
        expected += 0.0
        assert engine.clock.now() == expected
        assert counters(engine) == (0, 0, 1) and server.arrivals == []


#: (seconds after the start, endpoint, packet size) of every arrival of one full
#: handshake, as the engine that kept a record per packet computed them.  The
#: sizes are pinned beside the times they determine: if a wire format changes,
#: they are what moved first.
HANDSHAKE_ARRIVALS = {
    "build_close_to_client_deployment": [
        (0.04051351547241211, "server", 119),
        (0.0810689926147461, "client", 815),
        (0.12157750129699707, "server", 61),
        (0.16209650039672852, "client", 180),
    ],
    "build_close_to_server_deployment": [
        (0.04051351547241211, "server", 119),
        (0.08108687400817871, "client", 820),
        (0.12159538269042969, "server", 61),
        (0.16211438179016113, "client", 180),
    ],
    "build_unprotected_path": [
        (0.005001068115234375, "server", 119),
        (0.010005712509155273, "client", 575),
    ],
}


class TestDeploymentArrivalTimes:
    @staticmethod
    def arrivals(build, protected: bool):
        world = build_world()
        chain = world.corpus.chains[0]
        options = {"agent": world.agent} if protected else {}
        deployment = build(
            server_chain=chain,
            trust_store=world.trust_store,
            ca_public_keys=world.ca_public_keys(),
            config=world.config,
            clock=SimulatedClock(EPOCH + 10),
            **options,
        )
        log = []
        for name in ("client", "server"):
            endpoint = getattr(deployment, name)
            handle = endpoint.handle_packet

            def recording(packet, now, handle=handle, name=name):
                log.append((now - (EPOCH + 10), name, packet.size))
                return handle(packet, now)

            endpoint.handle_packet = recording
        deployment.run_handshake()
        engine = deployment.engine
        assert counters(engine) == (sum(size for _, _, size in log), len(log), 0)
        return log, engine.clock.now() - (EPOCH + 10), deployment

    @pytest.mark.parametrize(
        "build, protected",
        [
            (build_close_to_client_deployment, True),
            (build_close_to_server_deployment, True),
            (build_unprotected_path, False),
        ],
        ids=["close-to-client", "close-to-server", "unprotected"],
    )
    def test_arrival_times_are_unchanged_to_the_float(self, build, protected):
        log, elapsed, deployment = self.arrivals(build, protected)
        assert deployment.client.is_connection_usable == protected
        assert log == HANDSHAKE_ARRIVALS[build.__name__]
        assert elapsed == log[-1][0]
