"""Golden report digests: the byte-identity guard for refactoring PRs.

Every registered scenario's ``.smoke()`` run is reduced to the SHA-256 of its
report JSON minus ``extras`` (the one section allowed to carry wall-clock
measurements) — the same definition ``bench/workloads.py:report_digest``
uses — and compared against the table below.  A change that is meant to
keep behaviour must keep every digest; a change that is meant to alter a
scenario re-pins exactly that row and says why in ``CHANGES.md``.

The table was captured at the parent of the dictionary-stream refactor plus
the stable serial-allocator seed (before that fix three rows depended on
``PYTHONHASHSEED``); CI runs this file under two different hash seeds.  That
refactor re-pinned one row, ``sharded-longrun``: its CA now publishes a WAL
segment per shard batch and opens expiry windows ahead of their first
revocation, and its RA prunes expired shards before (not after) polling them.
Deleting the never-measured ``parallelism`` knob re-pinned all 17 rows: the
JSON diff of every report was exactly the removed ``parallelism`` keys.
Folding the RA's two catch-up walks into one re-pinned ``region-outage``:
``dissemination.freshness_applied`` 78 → 74, because each of the two restored
RAs now applies its three-segment peer backlog in one transaction followed by
one freshness statement instead of three.
Sizing every message by its codec (no hand-estimated ``encoded_size()``)
re-pinned six rows whose reports print a byte count that used to be an
estimate: the four with a victim handshake (``status 187 B`` → ``229 B`` in one
event and one check), ``tampered-cdn`` (its resync's bytes, 6911 → 6981
downloaded) and ``region-outage`` (the cold-sync counterfactual, 1140 → 1630 B).
Making a segment its issuance object under one signature re-pinned
``soak`` and ``region-outage``, the two rows whose RAs fetch segments: only
byte counts moved (segment bytes 76,680 → 42,960 and 33,800 → 21,400), with
the pull latency, overlap factor and lag they feed, and every check held.
Staging ``ca-audit-gossip``'s equivocation as an ``equivocating-ca`` fault on
the victim's revocation, in place of a post-run audit that wrote a forgery
into the agent, re-pinned that row: the forgery now arrives through a pull,
so the audit's extra pull is gone (7 → 6 pulls) and the gossip ring adds
``equivocation-detected-within-one-round`` beside the six old checks.
Making client load one stream and never-varied options constants re-pinned
six rows, every check still passing.  ``thundering-herd`` declares its load
as a flat client stream: ``config.fleet.client_handshakes`` became a
``client_stream`` block, the client-load check now says "streamed", and the
served serials moved from a seeded issued/absent sampler to the stream's
site serials (proof-cache hits 158 → 971).  ``flash-crowd`` lost its
store-engine replay: the ``engines-agree-on-root`` check and the ``engines``
tag are gone, and its title and summary no longer promise the comparison.
``sharded-longrun``'s shard index no longer lists retired windows (RAs prune
by their own clock every pull), so its RA downloaded 285 B less (31,757 →
31,472 B, with the mean pull latency that bytes feed), and its config lost
``prune_every_periods``.  ``soak``, ``staggered-pulls`` and ``slow-ra-holb``
differ only by the removed ``config.fleet.client_handshakes`` key.
Polling each dictionary's freshness object instead of its head re-pinned all
17 rows, every check still passing and no resync, error, applied count or
verification count moved.  In every row ``dissemination.bytes_downloaded``
fell (the "N pulls, B bytes" check detail with it; ``quickstart`` 2,492 →
1,772 B, ``soak`` 74,685 → 61,725 B), together with the
``average_pull_latency_seconds``, ``fleet.overlap_factor`` and
``hot_path.edge_object_cache`` counts those fetches feed.
``ra-crash-recovery`` and ``region-outage`` also print their recovery pull's
bytes in an event (and, for the first, a check): 1,764 → 1,584 B and 988 →
808 B.  ``slow-ra-holb``'s max lag fell 70.334 → 70.331 s.  Two rows read one
object more in their attack periods, because a statement that links to no
held root sends the RA on to the head: in ``rotated-ca-key`` every rotation
and the retired-key forgery cost one more GET (edge misses 20 → 24, mean pull
latency 0.131 → 0.157 s, max lag 10.255 → 10.34 s, still inside 2Δ); in
``replayed-head`` the replay costs one more GET (edge misses 14 → 15), is
refused because the replayed root covers 10 revocations where the replica
holds 40 (the event's text says so, where it used to cite the publication
sequence), and the summary now says a freshness object is replayed too.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.scenarios import get, names, run_scenario

GOLDEN_DIGESTS = {
    "ca-audit-gossip": "dbd8b58d5ef941a78ffb80b8d66bc133f9696678d2d592ed77846115ef7ea1e2",
    "degraded-ra": "fc828c483a59cd89214d756cacd6487c72939a361bd5bee7b5ab75c9b364ef00",
    "equivocating-ca": "d3380c2f77fe10e2894fe0dee613613fafc0a98f6351e67852a0e63effa6dd65",
    "flash-crowd": "f16ddbb629d9e7d394698194289a109b55938ee3a16c23a6b0c50993a626d261",
    "heartbleed": "4f8c10c51a8dfa7566f57a9ce7438f77ca13b00741349cfe1b921f73222b5872",
    "iot-long-lived": "d5299069ea4e649dfd4d666aec0a92b95f027607f42fb77a3e22327a3537fbc5",
    "quickstart": "cfe70a1f7dc95c719d7ae06000cbeaba68b9323fce2531c2f2c8487cd756780f",
    "ra-crash-recovery": "f6bad05b52206ad473b8a115adc27cb3e2060a563064ea513c16255df636b269",
    "region-outage": "f94cde8027b238aa641f8b0579d2a65a13d2062653b27de976c5147d17ddd848",
    "replayed-head": "3806620c7ac5887b3cdd1336e0e5c4c1d1d71e43cd6cfaa126eaf65ff3ca14e2",
    "rotated-ca-key": "e989bd4f2141c165f5be33d5f85b1f8ca420cfb602f79fc5a698ddb67f913f72",
    "sharded-longrun": "6cf41eae92020dcc9dfb28646b987600b6c494b12acdec23c62ac554425c3baa",
    "slow-ra-holb": "7eaf1f32746e079ff7494104cb7b69b28155c4812d41254e4fafee101fc9193e",
    "soak": "9956d3b2e1f35f73f502182f4a996f112e42a1ef47bb7a34099f1e0f2c2fc8dc",
    "staggered-pulls": "cde8fa4ec0ed006165c0325e7abd141a07999a638ac2104cfb7aa08372679dd1",
    "tampered-cdn": "5557bcae4d9751fafb79abc6be630445c12d57f3aa52ee16c95f0d78b7e9fb97",
    "thundering-herd": "a29f5e22be8a76e97e443bcd9f52dc808b46b0a6bff94209990d94f0de836862",
}


def report_digest(report) -> str:
    """SHA-256 of the report's JSON form without its ``extras`` section."""
    body = report.to_json_dict()
    del body["extras"]
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()


def test_every_registered_scenario_is_pinned():
    assert sorted(GOLDEN_DIGESTS) == sorted(names())


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_smoke_report_digest_is_pinned(name):
    report = run_scenario(get(name).smoke())
    # Check names and pass flags are inside the digest, so this line is what
    # keeps a re-pin from ever blessing a failing check.
    assert report.all_checks_passed, [c.name for c in report.checks if not c.passed]
    assert report_digest(report) == GOLDEN_DIGESTS[name]
