"""§VII-D overheads: communication (Fig. 7), storage, and status size.

Three quantities are reproduced here:

* **Fig. 7** — how many bytes a single RA downloads per Δ during the
  Heartbleed week (14–20 April 2014) for Δ ∈ {10 s, 1 min, 5 min, 1 h, 1 day}
  and 254 dictionaries: the per-Δ cost is one freshness statement per
  dictionary (:data:`FRESHNESS_BYTES`, 20 B — the statement this wire sends
  is its 20-byte value and nothing else) plus the serials revoked in that
  period;
* **storage** — what an RA stores for 1.38 M (or 10 M) revocations and how
  much memory the materialised dictionaries take;
* **status size** — the wire size of one revocation status (Eq. 3) for a
  dictionary as large as the largest CRL in the dataset (the paper reports
  500–900 bytes).
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.crypto.signing import KeyPair
from repro.dictionary.authdict import CADictionary
from repro.pki.serial import SerialNumber
from repro.ritm.config import PAPER_DELTA_SWEEP
from repro.workloads.revocation_trace import (
    HEARTBLEED_WEEK,
    NUMBER_OF_CRLS,
    SERIAL_BYTES,
    TOTAL_REVOCATIONS,
    RevocationTrace,
    generate_trace,
    serials_for_count,
)

#: Δ values shown in Fig. 7.
FIGURE7_DELTAS: Dict[str, int] = {
    "10s": PAPER_DELTA_SWEEP["10s"],
    "1m": PAPER_DELTA_SWEEP["1m"],
    "5m": PAPER_DELTA_SWEEP["5m"],
    "1h": PAPER_DELTA_SWEEP["1h"],
    "1d": PAPER_DELTA_SWEEP["1d"],
}

#: Per-dictionary freshness statement bytes (truncated hash, §VI): also
#: what this wire sends, ``len(encode_freshness(...))`` at a 20-byte digest.
FRESHNESS_BYTES = 20
#: Amortised signed-root bytes accompanying a batch of new revocations.
SIGNED_ROOT_BYTES = 180
#: Revocation-number bytes stored alongside each serial.
NUMBER_BYTES = 4


@dataclass
class Figure7Series:
    """Per-Δ download sizes over the Heartbleed week for one Δ value."""

    delta_label: str
    delta_seconds: int
    #: (bin start Unix time, bytes downloaded in that Δ) samples.
    points: List[Tuple[int, float]]

    def max_bytes(self) -> float:
        return max(value for _, value in self.points)

    def min_bytes(self) -> float:
        return min(value for _, value in self.points)

    def mean_bytes(self) -> float:
        return sum(value for _, value in self.points) / len(self.points)


@dataclass
class Figure7Result:
    series: Dict[str, Figure7Series]
    dictionaries: int

    def baseline_bytes(self) -> float:
        """The no-new-revocations floor: one freshness statement per dictionary."""
        return self.dictionaries * FRESHNESS_BYTES


def figure_7(
    trace: Optional[RevocationTrace] = None,
    deltas: Optional[Dict[str, int]] = None,
    dictionaries: int = NUMBER_OF_CRLS,
    week: Tuple[_dt.date, _dt.date] = HEARTBLEED_WEEK,
) -> Figure7Result:
    """Compute the Fig. 7 communication-overhead series."""
    trace = trace if trace is not None else generate_trace()
    deltas = deltas if deltas is not None else FIGURE7_DELTAS
    series: Dict[str, Figure7Series] = {}
    for label, delta_seconds in deltas.items():
        bins = trace.counts_per_bin(week[0], week[1], delta_seconds)
        points: List[Tuple[int, float]] = []
        for bin_start, revocation_count in bins:
            downloaded = dictionaries * FRESHNESS_BYTES
            downloaded += revocation_count * SERIAL_BYTES
            if revocation_count > 0:
                downloaded += SIGNED_ROOT_BYTES
            points.append((bin_start, float(downloaded)))
        series[label] = Figure7Series(
            delta_label=label, delta_seconds=delta_seconds, points=points
        )
    return Figure7Result(series=series, dictionaries=dictionaries)


# -- storage (§VII-D "Storage") --------------------------------------------------------


@dataclass
class StorageEstimate:
    revocations: int
    storage_bytes: int
    memory_bytes: int


def storage_overhead(
    revocations: int = TOTAL_REVOCATIONS,
    serial_bytes: int = SERIAL_BYTES,
    digest_size: int = 20,
) -> StorageEstimate:
    """RA storage/memory for ``revocations`` entries, following §VII-D's model.

    Persistent storage holds the revocation entries themselves (the tree is
    reconstructible); building the dictionaries in memory additionally holds
    the revocation numbers and one digest per leaf.
    """
    storage = revocations * serial_bytes
    memory = revocations * (serial_bytes + NUMBER_BYTES + digest_size)
    return StorageEstimate(revocations=revocations, storage_bytes=storage, memory_bytes=memory)


# -- revocation status size (§VII-D "Communication") -----------------------------------------


@dataclass
class StatusSizeResult:
    entries: int
    absent_status_bytes: int
    revoked_status_bytes: int
    proof_depth: int


def status_size_for_dictionary(
    entries: int = 50_000, delta_seconds: int = 60, seed: int = 9
) -> StatusSizeResult:
    """Measure the encoded size of a revocation status for a dictionary of
    ``entries`` revocations (the paper quotes 500–900 B for the largest
    CRL's dictionary).

    Building the full 339k-entry dictionary takes a few seconds of hashing;
    benchmarks that need the exact largest-CRL figure pass
    ``entries=LARGEST_CRL_ENTRIES``.
    """
    keys = KeyPair.generate(f"status-size-{entries}".encode())
    dictionary = CADictionary(
        ca_name="Size-CA", keys=keys, delta=delta_seconds, chain_length=64
    )
    serial_values = serials_for_count(entries + 1, seed=seed)
    revoked = [SerialNumber(value) for value in serial_values[:entries]]
    absent_serial = SerialNumber(serial_values[-1])
    dictionary.insert(revoked, now=0)

    absent_status = dictionary.prove(absent_serial)
    revoked_status = dictionary.prove(revoked[len(revoked) // 2])
    from repro.ritm.messages import encode_status

    absent_bytes = len(encode_status(absent_status))
    revoked_bytes = len(encode_status(revoked_status))
    depth = 0
    if hasattr(revoked_status.proof, "path"):
        depth = len(revoked_status.proof.path)
    return StatusSizeResult(
        entries=entries,
        absent_status_bytes=absent_bytes,
        revoked_status_bytes=revoked_bytes,
        proof_depth=depth,
    )
