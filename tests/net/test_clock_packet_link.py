"""Tests for the clock, packet, and link primitives."""

import pytest

from repro.errors import NetworkError
from repro.net.clock import SimulatedClock, SkewedClock
from repro.net.link import Link, lan_link, metro_link, wan_link
from repro.net.packet import Direction, Packet, make_flow


class TestClock:
    def test_advance(self):
        clock = SimulatedClock(100.0)
        assert clock.now() == 100.0
        clock.advance(5.5)
        assert clock.now() == 105.5

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            SimulatedClock().advance(-1)

    def test_advance_to_never_goes_backwards(self):
        clock = SimulatedClock(50.0)
        clock.advance_to(40.0)
        assert clock.now() == 50.0
        clock.advance_to(60.0)
        assert clock.now() == 60.0

    def test_skewed_clock(self):
        reference = SimulatedClock(100.0)
        skewed = SkewedClock(reference, skew_seconds=-3.0)
        assert skewed.now() == 97.0
        reference.advance(10)
        assert skewed.now() == 107.0


class TestFiveTuple:
    def test_reversed(self):
        flow = make_flow("1.1.1.1", 1234, "2.2.2.2", 443)
        reverse = flow.reversed()
        assert reverse.src_ip == "2.2.2.2" and reverse.dst_port == 1234
        assert reverse.reversed() == flow

    def test_canonical_is_direction_independent(self):
        flow = make_flow("1.1.1.1", 1234, "2.2.2.2", 443)
        assert flow.canonical() == flow.reversed().canonical()

    def test_str(self):
        assert "1.1.1.1:1234 -> 2.2.2.2:443" in str(make_flow("1.1.1.1", 1234, "2.2.2.2"))


class TestPacket:
    def test_size_includes_headers(self):
        packet = Packet(flow=make_flow("1.1.1.1", 1, "2.2.2.2"), payload=b"\x00" * 100)
        assert packet.size == 140

    def test_with_payload_preserves_flow(self):
        packet = Packet(flow=make_flow("1.1.1.1", 1, "2.2.2.2"), payload=b"old")
        rewritten = packet.with_payload(b"new-bigger-payload")
        assert rewritten.flow == packet.flow
        assert rewritten.payload == b"new-bigger-payload"
        assert rewritten.packet_id == packet.packet_id

    def test_reply_reverses_flow_and_direction(self):
        packet = Packet(
            flow=make_flow("1.1.1.1", 1, "2.2.2.2"),
            payload=b"req",
            direction=Direction.CLIENT_TO_SERVER,
        )
        reply = packet.reply(b"resp")
        assert reply.flow == packet.flow.reversed()
        assert reply.direction == Direction.SERVER_TO_CLIENT
        assert reply.sequence == packet.sequence + 1

    def test_packet_ids_are_unique(self):
        flow = make_flow("1.1.1.1", 1, "2.2.2.2")
        a = Packet(flow=flow, payload=b"a")
        b = Packet(flow=flow, payload=b"b")
        assert a.packet_id != b.packet_id

    def test_direction_reversed(self):
        assert Direction.CLIENT_TO_SERVER.reversed() == Direction.SERVER_TO_CLIENT
        assert Direction.SERVER_TO_CLIENT.reversed() == Direction.CLIENT_TO_SERVER


class TestLink:
    def test_transfer_time_combines_latency_and_bandwidth(self):
        link = Link(latency_seconds=0.010, bandwidth_bytes_per_second=1_000_000)
        assert link.transfer_time(0) == pytest.approx(0.010)
        assert link.transfer_time(500_000) == pytest.approx(0.510)

    def test_round_trip_time(self):
        link = Link(latency_seconds=0.010, bandwidth_bytes_per_second=1_000_000)
        assert link.round_trip_time(1_000, 9_000) == pytest.approx(0.010 * 2 + 0.010)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(NetworkError):
            Link(latency_seconds=-1)
        with pytest.raises(NetworkError):
            Link(latency_seconds=0.1, bandwidth_bytes_per_second=0)
        with pytest.raises(NetworkError):
            Link(latency_seconds=0.1).transfer_time(-5)

    def test_presets_are_ordered_by_latency(self):
        assert lan_link().latency_seconds < metro_link().latency_seconds < wan_link().latency_seconds
