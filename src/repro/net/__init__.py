"""Network simulation substrate: clocks, packets, links, paths, events."""

from repro.net.clock import SimulatedClock, SkewedClock
from repro.net.link import Link, lan_link, metro_link, wan_link
from repro.net.node import (
    DroppingMiddlebox,
    Endpoint,
    Middlebox,
    TamperingMiddlebox,
    TransparentMiddlebox,
)
from repro.net.packet import Direction, FiveTuple, Packet, make_flow
from repro.net.path import NetworkPath, PathEngine
from repro.net.simulator import EventHandle, EventScheduler

__all__ = [
    "SimulatedClock",
    "SkewedClock",
    "Link",
    "lan_link",
    "metro_link",
    "wan_link",
    "Endpoint",
    "Middlebox",
    "TransparentMiddlebox",
    "DroppingMiddlebox",
    "TamperingMiddlebox",
    "Packet",
    "FiveTuple",
    "Direction",
    "make_flow",
    "NetworkPath",
    "PathEngine",
    "EventScheduler",
    "EventHandle",
]
