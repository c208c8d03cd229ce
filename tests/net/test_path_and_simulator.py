"""Tests for the path engine, middleboxes, and the event scheduler."""

from typing import List

import pytest

from repro.errors import NetworkError
from repro.net.clock import SimulatedClock
from repro.net.link import Link
from repro.net.node import DroppingMiddlebox, Endpoint, TamperingMiddlebox, TransparentMiddlebox
from repro.net.packet import Packet, make_flow
from repro.net.path import NetworkPath, PathEngine
from repro.net.simulator import EventScheduler


class EchoServer(Endpoint):
    """Responds to every packet with an upper-cased copy of its payload."""

    def handle_packet(self, packet: Packet, now: float) -> List[Packet]:
        return [packet.reply(packet.payload.upper(), created_at=now)]


class SilentClient(Endpoint):
    """Collects packets and never responds."""

    def __init__(self, ip_address: str) -> None:
        super().__init__(ip_address)
        self.received: List[Packet] = []

    def handle_packet(self, packet: Packet, now: float) -> List[Packet]:
        self.received.append(packet)
        return []


@pytest.fixture()
def flow():
    return make_flow("10.0.0.1", 40000, "10.0.0.2", 443)


def build_engine(middleboxes, links=None):
    client = SilentClient("10.0.0.1")
    server = EchoServer("10.0.0.2")
    path = NetworkPath(client=client, server=server, middleboxes=middleboxes, links=links)
    return client, server, PathEngine(path, clock=SimulatedClock())


class TestPathEngine:
    def test_request_response_roundtrip(self, flow):
        client, _, engine = build_engine([TransparentMiddlebox()])
        engine.send_from_client(Packet(flow=flow, payload=b"hello"))
        assert client.received[0].payload == b"HELLO"

    def test_latency_accumulates_over_links(self, flow):
        links = [Link(latency_seconds=0.05, bandwidth_bytes_per_second=1e9)] * 2
        client, _, engine = build_engine([TransparentMiddlebox()], links=links)
        engine.send_from_client(Packet(flow=flow, payload=b"x"))
        # Two links out + two links back: at least 4 * 50 ms.
        assert engine.clock.now() >= 0.2

    def test_wire_bytes_are_counted(self, flow):
        _, _, engine = build_engine([])
        engine.send_from_client(Packet(flow=flow, payload=b"12345"))
        assert engine.total_wire_bytes() == 2 * (5 + 40)

    def test_dropping_middlebox_blocks_delivery(self, flow):
        dropper = DroppingMiddlebox(lambda packet: True)
        client, _, engine = build_engine([dropper])
        delivered = engine.send_from_client(Packet(flow=flow, payload=b"x"))
        assert delivered == []
        assert client.received == []
        assert dropper.dropped_count == 1

    def test_tampering_middlebox_rewrites_payload(self, flow):
        tamperer = TamperingMiddlebox(
            should_tamper=lambda packet: packet.payload == b"abc",
            tamper=lambda payload: b"xyz",
        )
        client, _, engine = build_engine([tamperer])
        engine.send_from_client(Packet(flow=flow, payload=b"abc"))
        assert client.received[0].payload == b"XYZ"
        assert tamperer.tampered_count == 1

    def test_mismatched_link_count_rejected(self):
        client = SilentClient("10.0.0.1")
        server = EchoServer("10.0.0.2")
        with pytest.raises(NetworkError):
            NetworkPath(client=client, server=server, middleboxes=[], links=[Link(0.01), Link(0.01)])

    def test_runaway_exchange_detected(self, flow):
        class PingPong(Endpoint):
            def handle_packet(self, packet: Packet, now: float) -> List[Packet]:
                return [packet.reply(packet.payload, created_at=now)]

        path = NetworkPath(client=PingPong("a"), server=PingPong("b"), middleboxes=[])
        engine = PathEngine(path)
        with pytest.raises(NetworkError):
            engine.send_from_client(Packet(flow=flow, payload=b"loop"), max_rounds=5)


class TestEventScheduler:
    def test_events_fire_in_time_order(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(5.0, lambda now: fired.append(("b", now)))
        scheduler.schedule(1.0, lambda now: fired.append(("a", now)))
        scheduler.run_until(10.0)
        assert fired == [("a", 1.0), ("b", 5.0)]
        assert scheduler.clock.now() == 10.0

    def test_cannot_schedule_in_the_past(self):
        scheduler = EventScheduler(SimulatedClock(100.0))
        with pytest.raises(NetworkError):
            scheduler.schedule(50.0, lambda now: None)

    def test_periodic_events(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule_periodic(10.0, lambda now: fired.append(now))
        scheduler.run_until(35.0)
        assert fired == [10.0, 20.0, 30.0]

    def test_run_until_only_processes_due_events(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(1.0, lambda now: fired.append(1))
        scheduler.schedule(50.0, lambda now: fired.append(50))
        processed = scheduler.run_until(10.0)
        assert processed == 1
        assert scheduler.pending() == 1

    def test_periodic_requires_positive_period(self):
        with pytest.raises(NetworkError):
            EventScheduler().schedule_periodic(0, lambda now: None)

    def test_events_scheduled_during_run_are_processed(self):
        scheduler = EventScheduler()
        fired = []

        def first(now):
            fired.append("first")
            scheduler.schedule(now + 1.0, lambda n: fired.append("second"))

        scheduler.schedule(1.0, first)
        scheduler.run_until(5.0)
        assert fired == ["first", "second"]

    def test_run_all_stops_a_runaway_schedule_at_its_budget(self):
        scheduler = EventScheduler()
        scheduler.schedule_periodic(1.0, lambda now: None)
        with pytest.raises(NetworkError, match="budget"):
            scheduler.run_all(max_events=50)
        assert scheduler.processed_events == 50
        assert scheduler.clock.now() == 50.0
        assert scheduler.pending() == 1

    def test_run_until_advances_the_clock_with_nothing_queued(self):
        scheduler = EventScheduler(SimulatedClock(3.0))
        assert scheduler.run_until(42.0) == 0
        assert scheduler.clock.now() == 42.0

    def test_processed_events_counts_across_runs(self):
        scheduler = EventScheduler()
        for at in (1.0, 2.0, 30.0):
            scheduler.schedule(at, lambda now: None)
        assert scheduler.run_until(10.0) == 2
        assert scheduler.run_all() == 1
        assert scheduler.processed_events == 3
        assert scheduler.pending() == 0

    def test_periodic_events_honour_an_explicit_start(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule_periodic(10.0, fired.append, start=0.0)
        scheduler.run_until(25.0)
        assert fired == [0.0, 10.0, 20.0]
