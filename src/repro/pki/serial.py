"""Certificate serial numbers.

RFC 5280 serial numbers are positive integers of at most 20 bytes assigned
uniquely per CA.  The paper's dataset analysis (§VII-A) found 3-byte serials
to be the most common size (32 % of revocations), and uses 3-byte serials
throughout its overhead figures; the default here matches that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MAX_SERIAL_BYTES = 20
#: Serial size used by the paper's evaluation (§VII-A).
DEFAULT_SERIAL_BYTES = 3


@dataclass(frozen=True, order=True)
class SerialNumber:
    """A CA-assigned certificate serial number.

    Ordering and equality are defined on the integer value, which also makes
    lexicographic ordering of the fixed-width encoding consistent with
    numeric ordering (the property the sorted Merkle tree relies on).
    """

    value: int
    width: int = DEFAULT_SERIAL_BYTES

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise ValueError("serial numbers are positive integers")
        if not 1 <= self.width <= MAX_SERIAL_BYTES:
            raise ValueError(f"serial width must be in [1, {MAX_SERIAL_BYTES}]")
        if self.value >= 256**self.width:
            raise ValueError(
                f"serial {self.value} does not fit in {self.width} bytes"
            )

    def to_bytes(self) -> bytes:
        """Fixed-width big-endian encoding (sorts the same as the integer)."""
        return self.value.to_bytes(self.width, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "SerialNumber":
        """Decode a big-endian serial, keeping the width it was sent with."""
        if not data or len(data) > MAX_SERIAL_BYTES:
            raise ValueError("serial encoding must be 1..20 bytes")
        return cls(value=int.from_bytes(data, "big"), width=len(data))

    def __str__(self) -> str:  # e.g. "73E10A5"-style display as in Fig. 3
        return format(self.value, "X")


class SerialNumberAllocator:
    """Deterministic, collision-free serial allocation for one CA.

    Real CAs draw serials at random to make them unpredictable; the allocator
    does the same (from a seeded PRNG so experiments are reproducible) while
    guaranteeing uniqueness within the CA.
    """

    def __init__(self, width: int = DEFAULT_SERIAL_BYTES, seed: int = 0) -> None:
        self._width = width
        self._rng = random.Random(seed)
        self._issued: set[int] = set()

    @property
    def width(self) -> int:
        """Byte width of every serial this allocator returns."""
        return self._width

    def allocate(self) -> SerialNumber:
        """Return a serial that has never been returned by this allocator."""
        space = 256**self._width - 1
        if len(self._issued) >= space:
            raise ValueError("serial number space exhausted")
        while True:
            candidate = self._rng.randint(1, space)
            if candidate not in self._issued:
                self._issued.add(candidate)
                return SerialNumber(candidate, self._width)

    def allocate_many(self, count: int) -> list[SerialNumber]:
        """``count`` serials, each from :meth:`allocate`."""
        return [self.allocate() for _ in range(count)]
