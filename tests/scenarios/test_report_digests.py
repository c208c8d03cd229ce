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
Making a batch's segment the stream's per-Δ object until the next refresh
(one GET per dictionary per Δ) re-pinned all 17 rows, every check still
passing and no resync, error, applied count or verification count moved.
The keys that moved: ``dissemination.bytes_downloaded`` (and the "N pulls,
B bytes" check detail), ``average_pull_latency_seconds``, every
``max_lag_seconds`` (agents and ``attack_window``, with the lag check
details of ``degraded-ra``, ``region-outage``, ``slow-ra-holb``,
``staggered-pulls`` and ``thundering-herd``), ``fleet.overlap_factor`` and
the ``hot_path.edge_object_cache`` counts; ``ra-crash-recovery`` and
``region-outage`` also print their recovery pull's bytes and time (1,584 →
1,474 B; 808 → 565 B).  Bytes fell in 16 rows (``quickstart`` 1,772 →
1,662 B, ``soak`` 61,725 → 44,229 B) and rose in ``staggered-pulls``
(30,488 → 31,852 B): its run ends with a pull round after the CA's last
duty, a batch, so seven of that round's pulls re-read the batch's segment
(505 B) where they used to read its 43-byte statement.  ``sharded-longrun``'s CA no longer republishes a
stream at the instant a batch published it, which its smoke report does
not print (the full run: 179 → 130 head publications).
Ordering heads by their signed root and dropping every publication sequence
re-pinned all 17 rows, every check still passing and no resync, error,
replay, applied count or verification count moved.  The keys that moved:
``dissemination.stale_heads_ignored`` became
``dissemination.stale_statements_ignored`` (0 in every row);
``dissemination.bytes_downloaded`` fell 8 B per head read (the "N pulls, B
bytes" check detail with it; ``quickstart`` 1,662 → 1,654 B, ``soak`` 44,229 →
44,205 B), and in ``sharded-longrun`` also by the binary shard index (22,368 →
21,751 B); ``average_pull_latency_seconds`` followed the bytes.
``ra-crash-recovery`` prints its cold recovery's bytes in an event and a
check (4,446 → 4,438 B).  Two fault events lost their sequence:
``replayed-head``'s rollback names the replayed root's signing time, and its
refusal names both roots' sizes and times; ``rotated-ca-key``'s retired-key
forgery no longer prints "(sequence 71)".
Addressing every batch by its first serial number (no segment number, no
stream position) re-pinned all 17 rows, every check still passing and no
resync, error, replay, applied count, peer-relayed segment count or
verification count moved.  Each segment is 8 B smaller, so every row's
``dissemination.bytes_downloaded`` fell 8 B per segment read (the "N pulls,
B bytes" check detail and ``average_pull_latency_seconds`` with it;
``quickstart`` 1,654 → 1,646 B, ``soak`` 44,205 → 43,629 B and its
``replication.segment_bytes_downloaded`` 42,960 → 42,384 B,
``region-outage`` 21,400 → 21,080 B segment bytes and overlap factor
3.0952 → 3.0951).  ``ra-crash-recovery`` and ``region-outage`` print their
recovery pull's bytes (1,474 → 1,466 B; 565 → 557 B).  ``rotated-ca-key``
also reads the binary key-announcement chain in place of the JSON one:
10,175 → 8,271 B over its four chain reads and its segments.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.scenarios import get, names, run_scenario

GOLDEN_DIGESTS = {
    "ca-audit-gossip": "7c2ace3945b3e7ad717b9efa8a362fd69f91eef391d6293fe8b5db8016a5a734",
    "degraded-ra": "c78c9b31315e0e2e6eedd5948ced028dfd942333e55743c210aa136422cd0325",
    "equivocating-ca": "e1dc280e182437bd7f42ad237c2f126daeb4973de9e93dd8864199b6e6be097f",
    "flash-crowd": "bd9badd16a7564b1e2c68f0c1862b85aebecb9178b9cdc15dfb04f0404fcbdc2",
    "heartbleed": "cfc3185d73d0bb7b2e13f0248d0d603ddae0fcda7665c21fab308b242b26aa8e",
    "iot-long-lived": "c13b48fdbc501c8a01e9c0188661e68d9f8260fc828a7bd6fb739c9c6bc4c75e",
    "quickstart": "d0dd632dc9d37aa7edecbae2cd210b2f9839ae569b2d4872f7de55d30ee25de2",
    "ra-crash-recovery": "3fabf1c4e99bf96e6331a53a0da596e2c495285b9a330b4d0bab41677f3d90dd",
    "region-outage": "2042edc161b0f6f36bf74d1f095d2fa5b6393b3d9736cf715c6604562e5c725f",
    "replayed-head": "19e1e95d98bb5f66a81a1280d4f22cc2fb770d1f90567da722c4c7f56df5fef6",
    "rotated-ca-key": "882ec3d081fdeac8bc6d8e16067c531d9c8ea9c9262fe2f69d379776ab4a381f",
    "sharded-longrun": "d61f574e34cb0e12e0fc18936d537177d86651c0eb6d196c6044bfd4476382fc",
    "slow-ra-holb": "e0e64e30a9f54a122dd08fa021ba7ca66180bb8d790ef192f1472ef7cd0fc9e4",
    "soak": "929ec4995b69ae866983034366bfdaa99e6e36eaae7769f302462bcdb28fe39b",
    "staggered-pulls": "d2064a23d5c4731850216a8dca109e5438b16ad07c6a283a422a42923c042a02",
    "tampered-cdn": "f49bc5c5c5b29c64d950870237d8dd610cad1171f9264147a307b91360ea928c",
    "thundering-herd": "85fe0a362afa8e98a1179c130feef121e6f7b25616d0f34d0e8a9aa82b79b8bb",
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
