"""Fig. 5: CDF of revocation-message download times across vantage points.

The paper uploads five revocation messages (a bare freshness statement and
messages carrying 15k, 30k, 45k, and 60k revocations) to Amazon CloudFront
with caching disabled (TTL = 0), then downloads each ten times from 80
PlanetLab nodes and plots the download-time CDFs.  The headline result: even
for the largest message and in the worst (uncached) case, 90 % of nodes
finish in under one second.

This harness reproduces the experiment against the CDN model: it builds
revocation messages of the same five sizes from a real CA dictionary, uploads
them to the simulated CDN, and "downloads" them from the synthetic PlanetLab
vantage points with per-repetition network jitter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cdn.network import CDNNetwork
from repro.crypto.signing import KeyPair
from repro.dictionary.authdict import CADictionary
from repro.pki.serial import SerialNumber
from repro.ritm.messages import encode_issuance
from repro.workloads.planetlab import (
    REPETITIONS_PER_NODE,
    VantagePoint,
    generate_vantage_points,
)
from repro.workloads.revocation_trace import serials_for_count

#: The five message sizes measured in the paper.
PAPER_MESSAGE_SIZES = (0, 15_000, 30_000, 45_000, 60_000)


@dataclass
class Figure5Result:
    """Download-time samples per message size, plus the built message sizes."""

    samples: Dict[int, List[float]]
    message_bytes: Dict[int, int]
    node_count: int
    repetitions: int

    def fraction_below(self, revocation_count: int, threshold_seconds: float) -> float:
        values = self.samples[revocation_count]
        if not values:
            return 0.0
        return sum(1 for value in values if value <= threshold_seconds) / len(values)

    def percentile(self, revocation_count: int, fraction: float) -> float:
        values = sorted(self.samples[revocation_count])
        index = min(len(values) - 1, int(round(fraction * (len(values) - 1))))
        return values[index]


def build_revocation_message(revocation_count: int, delta_seconds: int = 60) -> bytes:
    """Build a revocation-issuance message carrying ``revocation_count`` serials.

    A count of zero produces the freshness-statement-only object (the paper's
    "0 revocations" line).
    """
    keys = KeyPair.generate(f"fig5-{revocation_count}".encode())
    dictionary = CADictionary(
        ca_name="Fig5-CA", keys=keys, delta=delta_seconds, chain_length=64
    )
    if revocation_count == 0:
        dictionary.refresh(0)
        from repro.ritm.messages import encode_head, DictionaryHead

        return encode_head(DictionaryHead(dictionary.signed_root, dictionary.latest_freshness))
    serials = [SerialNumber(value) for value in serials_for_count(revocation_count, seed=revocation_count)]
    issuance = dictionary.insert(serials, now=0)
    return encode_issuance(issuance)


def run_figure_5(
    message_sizes: Sequence[int] = PAPER_MESSAGE_SIZES,
    vantage_points: Optional[List[VantagePoint]] = None,
    repetitions: int = REPETITIONS_PER_NODE,
    jitter_sigma: float = 0.35,
    seed: int = 55,
    cdn: Optional[CDNNetwork] = None,
) -> Figure5Result:
    """Run the Fig. 5 measurement against the CDN model.

    ``jitter_sigma`` is the log-normal sigma applied per repetition to model
    transient network variation (queueing, loss recovery, shared PlanetLab
    hosts); the paper's spread between repetitions motivates it.
    """
    vantage_points = (
        vantage_points if vantage_points is not None else generate_vantage_points()
    )
    cdn = cdn if cdn is not None else CDNNetwork(edges_per_region=2)
    rng = random.Random(seed)

    message_bytes: Dict[int, int] = {}
    for count in message_sizes:
        content = build_revocation_message(count)
        message_bytes[count] = len(content)
        # TTL = 0: every request goes back to the origin (the paper's worst case).
        cdn.publish(f"/fig5/{count}", content, now=0.0, ttl_seconds=0.0)

    samples: Dict[int, List[float]] = {count: [] for count in message_sizes}
    now = 1.0
    for count in message_sizes:
        for node in vantage_points:
            for _ in range(repetitions):
                download = cdn.download(f"/fig5/{count}", node.location, now)
                jitter = rng.lognormvariate(0.0, jitter_sigma)
                samples[count].append(download.latency_seconds * jitter)
                now += 1.0
    return Figure5Result(
        samples=samples,
        message_bytes=message_bytes,
        node_count=len(vantage_points),
        repetitions=repetitions,
    )
