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
Sending every fact once — a freshness statement is its 20-byte value, a
status is proof ‖ signed root ‖ value, a head is signed root ‖ value —
re-pinned all 17 rows, every check still passing and no resync, error,
replay, applied count, peer-relayed segment count or verification count
moved.  The keys that moved: ``dissemination.bytes_downloaded`` (the "N
pulls, B bytes" check detail and ``average_pull_latency_seconds`` with it)
fell in 15 rows (``quickstart`` 1,646 → 1,509 B, ``soak`` 43,629 → 41,829 B
and its ``replication.segment_bytes_downloaded`` 42,384 → 40,728 B,
``region-outage``'s 21,080 → 20,160 B) and rose in the two whose idle Δ
follows a batch the RA missed, so its statement links to no held root and
the RA reads the head before walking: ``ca-audit-gossip`` 2,438 → 2,620 B
and ``equivocating-ca`` 2,986 → 3,166 B, each with one more head GET (its
``hot_path.edge_object_cache`` hits 2 → 3), a max lag 0.02 s and 0.01 s
longer, and ``fleet.overlap_factor`` 1.7059 → 1.8236 and 1.8611 → 1.8501.
``rotated-ca-key`` has the same case once, but its RA read the head in
that Δ anyway (a rotation re-signed the root): it now reads it before the
walk instead of after, the same GETs.
The four rows with a victim handshake print ``status 229 B`` → ``182 B``;
``ra-crash-recovery`` and ``region-outage`` print their recovery bytes
(warm 1,466 → 1,443 B, cold 4,438 → 4,390 B; 557 → 534 B and the cold-sync
counterfactual 1,630 → 1,584 B); ``slow-ra-holb``'s max lag 70.195 →
70.194 s; ``degraded-ra`` and ``thundering-herd``'s overlap factor moved in
the fourth decimal.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.scenarios import get, names, run_scenario

GOLDEN_DIGESTS = {
    "ca-audit-gossip": "c24422c27599ea54318770c5ff2df83c616bbc347f726eced3713de3432a9030",
    "degraded-ra": "fe244cf1c90352e571c68b0c9bf99da3317a4053aeea921674239560b87b3837",
    "equivocating-ca": "2c2902b71ad17f862c1ba95cd646e8d422a3410a782af890135a68748280d6cc",
    "flash-crowd": "d2494dacd6d051f43703cb68eda6fe69fdece23307bf8a450790168aa6747d5c",
    "heartbleed": "f68bc1c10ef1e6531aa2e66af403b4e95055f57f76d3c21ebbc0abbe82ec8375",
    "iot-long-lived": "556890096260fd68133e5b7108b4af6f784f9b7070487e73a76140f29817e3ba",
    "quickstart": "21329ac48f7676f8fc2dd4ae74dc1fbf844fb32b1d90ee815865ed5a0be6f53e",
    "ra-crash-recovery": "f0a55d6ee27ab0ccba002c7a40237ea9d3465b16ada72b6859ff60a937c367bc",
    "region-outage": "dcbf7e0b8f505ecd5d0ddac3f4c68f5692feda8eb06f6e3625044d205cca67d5",
    "replayed-head": "8481c1e71ce4db4d1931da5c65376bee366d9ecf0f346f46e27208cc60868b19",
    "rotated-ca-key": "58215d03ee5e342cee47c69a07990022dbe01264093ced999102af80ecce68d0",
    "sharded-longrun": "4b1e9d0c5fc6d77980e0133462a4d5e69b9975c923e131661c44360c2ce292e5",
    "slow-ra-holb": "123ca70681b9fd85cbce4a0acba0c65544b7142a2e50acb58e780b504ace0086",
    "soak": "d5a97e8116b74707ad3f75e069d575e6ef643bbeef57233e1bead2952892b913",
    "staggered-pulls": "0b2c5af1228a47b3f9f5e925e1af94ce0015833ec7a8f7769ddfa215b1ce8049",
    "tampered-cdn": "4cf40b85665fbfa3942a8800b740864808a0acd5ee29c7316d5ed17edac20650",
    "thundering-herd": "34c2e49efb46c2a401d7a9a9b4176ab2f90698d934586cdfb7cbc4746b6dd7d7",
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
