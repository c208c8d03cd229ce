"""Node interfaces for the network simulator.

Two roles exist on a simulated path:

* an :class:`Endpoint` terminates flows — it consumes packets addressed to it
  and may emit response packets (TLS clients and servers);
* a :class:`Middlebox` sits on the path and transforms packets in flight —
  it may pass them unchanged, rewrite their payloads, inject extra packets,
  or drop them (Revocation Agents, and the adversarial middleboxes used in
  the security tests).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List

from repro.net.packet import Packet


class Endpoint(ABC):
    """A flow-terminating host identified by an IP address."""

    def __init__(self, ip_address: str) -> None:
        self.ip_address = ip_address

    @abstractmethod
    def handle_packet(self, packet: Packet, now: float) -> List[Packet]:
        """Consume a packet addressed to this host; return packets to send back."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.ip_address}>"


class Middlebox(ABC):
    """An on-path packet processor."""

    def __init__(self, name: str = "middlebox") -> None:
        self.name = name

    @abstractmethod
    def process_packet(self, packet: Packet, now: float) -> List[Packet]:
        """Transform a transiting packet.

        Returning ``[packet]`` forwards it untouched, returning a modified
        copy rewrites it, returning extra packets injects them after it, and
        returning ``[]`` drops it.
        """

    def processing_delay(self, packet: Packet) -> float:
        """Per-packet processing latency added by this box (seconds)."""
        return 0.0

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class TransparentMiddlebox(Middlebox):
    """A middlebox that forwards everything untouched (the RA's behaviour for
    non-TLS traffic and unsupported clients)."""

    def process_packet(self, packet: Packet, now: float) -> List[Packet]:
        """Pass the packet through unchanged."""
        return [packet]


class DroppingMiddlebox(Middlebox):
    """An adversarial middlebox that drops packets matching a predicate.

    Used by the security-analysis tests to model blocking attacks on RITM
    status messages (§V, "MITM and Blocking Attack").
    """

    def __init__(self, should_drop, name: str = "dropper") -> None:
        super().__init__(name)
        self._should_drop = should_drop
        self.dropped_count = 0

    def process_packet(self, packet: Packet, now: float) -> List[Packet]:
        """Drop the packet (counting it) when the predicate matches."""
        if self._should_drop(packet):
            self.dropped_count += 1
            return []
        return [packet]


class TamperingMiddlebox(Middlebox):
    """An adversarial middlebox that rewrites payloads matching a predicate."""

    def __init__(self, should_tamper, tamper, name: str = "tamperer") -> None:
        super().__init__(name)
        self._should_tamper = should_tamper
        self._tamper = tamper
        self.tampered_count = 0

    def process_packet(self, packet: Packet, now: float) -> List[Packet]:
        """Rewrite the payload (counting it) when the predicate matches."""
        if self._should_tamper(packet):
            self.tampered_count += 1
            return [packet.with_payload(self._tamper(packet.payload))]
        return [packet]
