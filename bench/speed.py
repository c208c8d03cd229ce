"""The benchmark's reference clock: walls at a fixed machine speed.

The sandbox this runs on alternates, in phases of seconds to tens of seconds,
between two speeds about 1.45 times apart, on both vCPUs, with ``steal`` at 0.
A plain median of handshake walls spread 14 % between back-to-back runs of
one code in a quiet hour and 20–45 % in a slow one (README "Steadiness").

So every timing is taken in **laps**, and beside each lap the machine's speed
is read with a **reference spin**: a fixed loop of interpreter arithmetic and
of SHA-256, the two kinds of work the program under test is made of.  A lap's
wall is divided by its *slow-down* — the spin's wall at the lap's two ends
over :data:`REFERENCE_SPIN_S` — which states it at reference speed: what the
work would have taken on a machine where the spin takes 300 µs, which is this
sandbox undisturbed.  The spin is the benchmark's own code, so no change
under ``src/`` can move it, and no metric borrows another metric's samples.

Kept free of ``repro`` imports so the self-tests exercise it in isolation.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from typing import Callable

#: The spin's wall on the undisturbed sandbox (175 µs of arithmetic, 129 µs of
#: hashing).  It only sets the level timings are stated at, not their ratios.
REFERENCE_SPIN_S = 300e-6

#: A reading is the median of this many spins (about 2 ms).
SPINS_PER_READING = 7

#: Paths made of many short operations close a lap this often.
LAP_SECONDS = 0.1

_SPIN_SEED = b"ritm-bench-reference-spin".ljust(32, b".")


def spin() -> float:
    """The wall of one reference spin."""
    started = time.perf_counter()
    total = 0
    for i in range(3000):
        total += i * i % 7
    digest = _SPIN_SEED
    for _ in range(300):
        digest = hashlib.sha256(digest).digest()
    return time.perf_counter() - started


def read_slowdown() -> float:
    """How many times slower than reference speed the machine runs right now."""
    return statistics.median(spin() for _ in range(SPINS_PER_READING)) / REFERENCE_SPIN_S


class ReferenceClock:
    """Consecutive laps, each stated at reference speed.

    ``lap()`` ends the lap that began when the previous one ended (or at
    construction), reads the machine's speed, and returns the lap's slow-down:
    the mean of the readings at its two ends.  ``elapsed`` adds up the laps'
    reference walls; the readings themselves are outside every lap.
    """

    def __init__(self, read: Callable[[], float] = read_slowdown) -> None:
        self._read = read
        self._slowdown = read()
        self._lap_started = time.perf_counter()
        self.elapsed = 0.0

    def lap_is_due(self) -> bool:
        """Whether the open lap has lasted :data:`LAP_SECONDS`."""
        return time.perf_counter() - self._lap_started >= LAP_SECONDS

    def lap(self) -> float:
        ended = time.perf_counter()
        after = self._read()
        slowdown = (self._slowdown + after) / 2
        self.elapsed += (ended - self._lap_started) / slowdown
        self._slowdown = after
        self._lap_started = time.perf_counter()
        return slowdown
