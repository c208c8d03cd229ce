"""Streaming million-client workload generation (ROADMAP item 5).

The legacy workload modules (:mod:`repro.workloads.population`,
:mod:`repro.workloads.revocation_trace`) materialize one Python object per
client or per event, which caps traces around ``10^5`` events.  This module
replaces that with a *counter-based* streaming generator: every client-hello
event is a pure function of ``(StreamConfig, event index)``, produced in
compact ``array`` batches so a 1M-client / 30-day trace generates in
``O(batch_size)`` memory and can resume from any cursor.

The model has three statistical components, each pinned by the test layer in
``tests/workloads/``:

* **Site popularity** follows a Zipf law with configurable exponent
  (``weight(rank) = 1 / rank**s``), sampled by inverse CDF over a
  precomputed cumulative-weight array — memory scales with *sites*, never
  with clients or events.
* **Event times** follow a diurnal intensity curve
  ``lam(t) = 1 + a*sin(2*pi*(t/DAY - 0.25))`` — the same shape as
  :func:`repro.workloads.revocation_trace` uses for revocation timing —
  integrated analytically and inverted through a monotone interpolation
  table, so timestamps are strictly increasing across the whole trace.
* **Certificate lifetimes** are drawn per site from a configurable mix
  anchored on the 39-month CA/Browser-Forum maximum that
  :mod:`repro.pki.ca` issues by default (paper §VIII).

Determinism contract: event ``i`` consumes exactly
:data:`DRAWS_PER_EVENT` draws from the stratum RNG
``random.Random(f"{seed}:events:{i // STRATUM_EVENTS}")`` in a fixed order
(time jitter, client uniform, site uniform), so traces are independent of
batch size and resumable from any index.  :func:`materialize_trace` is the
intentionally naive per-event oracle the differential suite pins the
streaming path against.
"""

from __future__ import annotations

import bisect
import math
import random
from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.pki.ca import DEFAULT_VALIDITY_SECONDS

__all__ = [
    "DAY_SECONDS",
    "DEFAULT_LIFETIME_MIX",
    "DRAWS_PER_EVENT",
    "EVENT_BYTES",
    "STRATUM_EVENTS",
    "ClientEvent",
    "EventBatch",
    "StreamConfig",
    "StreamingWorkload",
    "intensity_table",
    "invert_intensity",
    "materialize_site_profile",
    "materialize_trace",
    "uniform_slot_counts",
    "zipf_cumulative_weights",
]

#: Seconds per day; period of the diurnal intensity curve.
DAY_SECONDS = 86_400

#: Events covered by one internal RNG stratum.  Fixed — never derived from
#: the batch size — so the generated trace is identical for every batch size
#: and resuming from an arbitrary cursor only replays at most one stratum.
STRATUM_EVENTS = 1024

#: Uniform draws consumed per event, in order: time jitter, client, site.
DRAWS_PER_EVENT = 3

#: Compact-array bytes per buffered event (float64 time + uint64 client +
#: uint32 site).  ``peak_batch_bytes`` is bounded by ``EVENT_BYTES *
#: batch_size`` regardless of client count — the soak scenario's
#: ``memory-bounded`` verdict asserts exactly this.
EVENT_BYTES = 20

#: Exclusive upper bound of the 3-byte serial space used across scenarios.
_SERIAL_SPACE = 256**3 - 1

#: Samples in the precomputed inverse-intensity interpolation table.
_TABLE_SAMPLES = 4096

#: Default certificate-lifetime mix ``(seconds, weight)``: short-lived 90-day
#: automation certs dominate, one-year renewals next, and a tail at the
#: 39-month CA/B-Forum maximum from :mod:`repro.pki.ca`.
DEFAULT_LIFETIME_MIX: Tuple[Tuple[int, float], ...] = (
    (90 * DAY_SECONDS, 0.60),
    (365 * DAY_SECONDS, 0.25),
    (DEFAULT_VALIDITY_SECONDS, 0.15),
)


class ClientEvent(NamedTuple):
    """One client hello: global index, absolute time, client id, site rank."""

    index: int
    time: float
    client: int
    site: int


@dataclass(frozen=True)
class StreamConfig:
    """Full specification of a streamed client-hello trace.

    A ``StreamConfig`` plus an event index determines an event completely;
    two generators built from equal configs emit byte-identical traces.
    """

    #: Distinct clients in the population (ids ``0 .. clients-1``).
    clients: int
    #: Distinct sites, ranked by popularity (rank ``0`` most popular).
    sites: int
    #: Total client-hello events across the whole trace.
    events_total: int
    #: Trace length in seconds (the diurnal curve repeats every day).
    duration_seconds: int
    #: Absolute timestamp of the start of the trace window.
    start_time: float = 0.0
    #: Zipf popularity exponent ``s`` in ``weight(rank) = 1 / rank**s``.
    zipf_exponent: float = 1.1
    #: Diurnal swing ``a`` in ``lam(t) = 1 + a*sin(...)``; must stay below
    #: ``1.0`` so the intensity never touches zero.
    diurnal_amplitude: float = 0.7
    #: Certificate-lifetime mix as ``(seconds, weight)`` pairs.
    lifetime_mix: Tuple[Tuple[int, float], ...] = DEFAULT_LIFETIME_MIX
    #: RNG seed; every derived stream is keyed off this value.
    seed: int = 404
    #: Events buffered per compact-array batch (the memory knob).
    batch_size: int = 8192

    def __post_init__(self) -> None:
        """Validate every knob eagerly so misconfiguration fails loudly."""
        if self.clients < 1:
            raise ConfigurationError("clients must be >= 1")
        if self.sites < 1:
            raise ConfigurationError("sites must be >= 1")
        if self.events_total < 1:
            raise ConfigurationError("events_total must be >= 1")
        if self.duration_seconds <= 0:
            raise ConfigurationError("duration_seconds must be positive")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.zipf_exponent <= 0.0:
            raise ConfigurationError("zipf_exponent must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ConfigurationError("diurnal_amplitude must be in [0, 1)")
        if not self.lifetime_mix:
            raise ConfigurationError("lifetime_mix must not be empty")
        for seconds, weight in self.lifetime_mix:
            if seconds <= 0 or weight <= 0:
                raise ConfigurationError("lifetime_mix entries must be positive")


def zipf_cumulative_weights(sites: int, exponent: float) -> array:
    """Running-sum Zipf weights ``1/rank**s`` for ranks ``1..sites``.

    The accumulation order is part of the determinism contract: the
    materialized oracle reproduces the exact same floats by summing in the
    same order.
    """
    cumulative = array("d")
    total = 0.0
    for rank in range(1, sites + 1):
        total += 1.0 / (rank**exponent)
        cumulative.append(total)
    return cumulative


def _cumulative_intensity(seconds: float, amplitude: float) -> float:
    """Integral of the diurnal intensity ``lam`` over ``[0, seconds]``."""
    two_pi = 2.0 * math.pi
    scale = amplitude * DAY_SECONDS / two_pi
    phase = two_pi * (seconds / DAY_SECONDS - 0.25)
    return seconds - scale * (math.cos(phase) - math.cos(-0.25 * two_pi))


def intensity_table(duration_seconds: int, amplitude: float) -> array:
    """Monotone table of cumulative intensity at evenly spaced times.

    Sample ``j`` holds the integral of the diurnal curve over
    ``[0, j * duration/(samples-1)]``; both the streaming generator and the
    materialized oracle invert event quantiles through this same table, so
    their timestamps agree bit for bit.
    """
    table = array("d")
    step = duration_seconds / (_TABLE_SAMPLES - 1)
    for sample in range(_TABLE_SAMPLES):
        table.append(_cumulative_intensity(sample * step, amplitude))
    return table


def invert_intensity(quantile: float, table: array, duration_seconds: int) -> float:
    """Seconds offset at which the cumulative intensity reaches ``quantile``.

    Piecewise-linear inversion of :func:`intensity_table` by binary search;
    strictly increasing in ``quantile`` because the diurnal intensity is
    strictly positive.
    """
    target = quantile * table[-1]
    index = bisect.bisect_left(table, target)
    if index <= 0:
        return 0.0
    if index >= len(table):
        return float(duration_seconds)
    step = duration_seconds / (len(table) - 1)
    low, high = table[index - 1], table[index]
    fraction = (target - low) / (high - low) if high > low else 0.0
    return (index - 1 + fraction) * step


class EventBatch:
    """A contiguous run of events stored as compact typed arrays.

    Iterating yields :class:`ClientEvent` views; the backing storage is
    exactly ``EVENT_BYTES`` per event regardless of population size.
    """

    __slots__ = ("start", "times", "clients", "sites")

    def __init__(self, start: int, times: array, clients: array, sites: array):
        """Wrap the filled arrays for events ``start .. start+len-1``."""
        self.start = start
        self.times = times
        self.clients = clients
        self.sites = sites

    def __len__(self) -> int:
        """Number of events in the batch."""
        return len(self.times)

    def __iter__(self) -> Iterator[ClientEvent]:
        """Yield each event as a :class:`ClientEvent`."""
        for offset in range(len(self.times)):
            yield ClientEvent(
                self.start + offset,
                self.times[offset],
                self.clients[offset],
                self.sites[offset],
            )

    @property
    def nbytes(self) -> int:
        """Bytes of compact-array storage held by this batch."""
        return sum(
            len(buf) * buf.itemsize for buf in (self.times, self.clients, self.sites)
        )


def _mix_lifetime(mix: Sequence[Tuple[int, float]], draw: float) -> int:
    """Lifetime for a uniform ``draw`` walked over the normalized mix."""
    total = sum(weight for _, weight in mix)
    accumulated = 0.0
    for seconds, weight in mix:
        accumulated += weight / total
        if draw < accumulated:
            return seconds
    return mix[-1][0]


class StreamingWorkload:
    """Resumable streaming generator over a :class:`StreamConfig`.

    Memory footprint is ``O(sites + batch_size)``: the Zipf cumulative
    array, the intensity table, a bounded per-site profile cache, and one
    in-flight :class:`EventBatch`.  Nothing scales with ``clients`` or
    ``events_total``.
    """

    def __init__(self, config: StreamConfig):
        """Precompute the sampling tables for ``config``."""
        self.config = config
        self._site_cum = zipf_cumulative_weights(config.sites, config.zipf_exponent)
        self._table = intensity_table(
            config.duration_seconds, config.diurnal_amplitude
        )
        self._profiles: Dict[int, Tuple[int, int]] = {}
        self._peak_batch_bytes = 0

    @property
    def peak_batch_bytes(self) -> int:
        """Largest compact-array batch built so far, in bytes."""
        return self._peak_batch_bytes

    def footprint_bytes(self) -> int:
        """Bytes held by the generator's tables and per-site cache."""
        tables = sum(
            len(buf) * buf.itemsize for buf in (self._site_cum, self._table)
        )
        # Conservative per-entry estimate for the dict of (lifetime, serial)
        # tuples: key + tuple + two ints.
        return tables + 128 * len(self._profiles)

    def fraction_at(self, rel_seconds: float) -> float:
        """Fraction of the trace scheduled before offset ``rel_seconds``."""
        duration = self.config.duration_seconds
        clamped = min(max(rel_seconds, 0.0), float(duration))
        step = duration / (len(self._table) - 1)
        position = clamped / step
        index = min(int(position), len(self._table) - 2)
        low, high = self._table[index], self._table[index + 1]
        value = low + (position - index) * (high - low)
        return value / self._table[-1]

    def index_at_time(self, rel_seconds: float) -> int:
        """Index of the first event at or after offset ``rel_seconds``.

        Monotone in ``rel_seconds`` and exact at the endpoints, so
        consecutive period boundaries partition ``range(events_total)``
        without gaps or overlaps.  Individual jittered timestamps may stray
        across a boundary by at most one event.
        """
        total = self.config.events_total
        return min(total, max(0, round(self.fraction_at(rel_seconds) * total)))

    def period_counts(self, boundaries: Sequence[float]) -> List[int]:
        """Events scheduled in each window between consecutive boundaries.

        ``boundaries`` are absolute times (``len(boundaries) - 1`` windows);
        the counts sum to ``events_total`` when the boundaries span the
        whole trace.
        """
        start = self.config.start_time
        indexes = [self.index_at_time(edge - start) for edge in boundaries]
        return [indexes[i + 1] - indexes[i] for i in range(len(indexes) - 1)]

    def site_profile(self, site: int) -> Tuple[int, int]:
        """Deterministic ``(lifetime_seconds, serial)`` for a site.

        Derived from ``Random(f"{seed}:site:{site}")`` with a fixed draw
        order (lifetime uniform, then serial) and cached, so the cache is
        bounded by the number of *distinct sites seen*, never by clients.
        """
        cached = self._profiles.get(site)
        if cached is not None:
            return cached
        rng = random.Random(f"{self.config.seed}:site:{site}")
        lifetime = _mix_lifetime(self.config.lifetime_mix, rng.random())
        serial = rng.randrange(1, _SERIAL_SPACE)
        profile = (lifetime, serial)
        self._profiles[site] = profile
        return profile

    def site_lifetime(self, site: int) -> int:
        """Certificate lifetime in seconds for ``site``."""
        return self.site_profile(site)[0]

    def site_serial(self, site: int) -> int:
        """Deterministic 3-byte certificate serial for ``site``."""
        return self.site_profile(site)[1]

    def batches(
        self, start: int = 0, stop: Optional[int] = None
    ) -> Iterator[EventBatch]:
        """Stream events ``start .. stop-1`` as compact-array batches.

        Resuming from any cursor replays at most one RNG stratum; the
        emitted events are identical to the corresponding slice of a
        full-trace run regardless of ``start`` or ``batch_size``.
        """
        cfg = self.config
        end = cfg.events_total if stop is None else min(stop, cfg.events_total)
        index = max(0, start)
        stratum = -1
        rng = random.Random()
        while index < end:
            limit = min(end, index + cfg.batch_size)
            times = array("d")
            clients = array("Q")
            sites = array("I")
            for event_index in range(index, limit):
                event_stratum, offset = divmod(event_index, STRATUM_EVENTS)
                if event_stratum != stratum:
                    stratum = event_stratum
                    rng = random.Random(f"{cfg.seed}:events:{stratum}")
                    for _ in range(DRAWS_PER_EVENT * offset):
                        rng.random()
                jitter = rng.random()
                client_draw = rng.random()
                site_draw = rng.random()
                quantile = (event_index + jitter) / cfg.events_total
                times.append(
                    cfg.start_time
                    + invert_intensity(quantile, self._table, cfg.duration_seconds)
                )
                clients.append(min(cfg.clients - 1, int(client_draw * cfg.clients)))
                target = site_draw * self._site_cum[-1]
                site = bisect.bisect_left(self._site_cum, target)
                sites.append(min(site, cfg.sites - 1))
            batch = EventBatch(index, times, clients, sites)
            if batch.nbytes > self._peak_batch_bytes:
                self._peak_batch_bytes = batch.nbytes
            yield batch
            index = limit

    def events(
        self, start: int = 0, stop: Optional[int] = None
    ) -> Iterator[ClientEvent]:
        """Stream individual :class:`ClientEvent` values over ``batches``."""
        for batch in self.batches(start, stop):
            yield from batch


def materialize_trace(config: StreamConfig) -> List[ClientEvent]:
    """Materialized small-N oracle for the differential test suite.

    Intentionally naive and independent of :class:`StreamingWorkload`'s
    machinery: one Python object per event, a fresh stratum RNG re-seeded
    (and burned forward) for *every* event, and a linear scan — not a
    binary search — over the Zipf cumulative weights and the intensity
    table.  Only the elementary constants (stratum size, draw order, table
    contents) are shared, so agreement proves the streaming/batching layer
    adds nothing and loses nothing.
    """
    cumulative: List[float] = []
    total = 0.0
    for rank in range(1, config.sites + 1):
        total += 1.0 / (rank**config.zipf_exponent)
        cumulative.append(total)
    table = intensity_table(config.duration_seconds, config.diurnal_amplitude)
    step = config.duration_seconds / (len(table) - 1)

    events: List[ClientEvent] = []
    for index in range(config.events_total):
        stratum, offset = divmod(index, STRATUM_EVENTS)
        rng = random.Random(f"{config.seed}:events:{stratum}")
        for _ in range(DRAWS_PER_EVENT * offset):
            rng.random()
        jitter = rng.random()
        client_draw = rng.random()
        site_draw = rng.random()

        target = (index + jitter) / config.events_total * table[-1]
        position = 0
        while position < len(table) and table[position] < target:
            position += 1
        if position <= 0:
            seconds = 0.0
        elif position >= len(table):
            seconds = float(config.duration_seconds)
        else:
            low, high = table[position - 1], table[position]
            fraction = (target - low) / (high - low) if high > low else 0.0
            seconds = (position - 1 + fraction) * step

        client = min(config.clients - 1, int(client_draw * config.clients))

        site_target = site_draw * cumulative[-1]
        site = 0
        while site < len(cumulative) and cumulative[site] < site_target:
            site += 1
        site = min(site, config.sites - 1)

        events.append(
            ClientEvent(index, config.start_time + seconds, client, site)
        )
    return events


def materialize_site_profile(config: StreamConfig, site: int) -> Tuple[int, int]:
    """Oracle twin of :meth:`StreamingWorkload.site_profile` (no cache)."""
    rng = random.Random(f"{config.seed}:site:{site}")
    draw = rng.random()
    mix_total = sum(weight for _, weight in config.lifetime_mix)
    accumulated = 0.0
    lifetime = config.lifetime_mix[-1][0]
    for seconds, weight in config.lifetime_mix:
        accumulated += weight / mix_total
        if draw < accumulated:
            lifetime = seconds
            break
    serial = rng.randrange(1, _SERIAL_SPACE)
    return lifetime, serial


def uniform_slot_counts(total: int, slots: int) -> List[int]:
    """Spread ``total`` across ``slots`` as evenly as possible.

    Byte-compatible with the fleet engine's original bespoke
    ``divmod``-based client-load spread: the first ``total % slots`` slots
    get one extra unit.  Kept as the legacy scheduling path so pre-existing
    client-load scenarios keep producing byte-identical reports.
    """
    if slots < 1:
        raise ValueError("slots must be >= 1")
    base, remainder = divmod(total, slots)
    return [base + (1 if slot < remainder else 0) for slot in range(slots)]
