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
Publishing each batch as one unsigned batch object (signed root ‖ count ‖
serials ‖ statement, no second signature, checksum, name or number)
re-pinned all 17 rows, every check still passing and no resync, error,
replay, applied count, peer-relayed batch count or verification count
moved.  ``dissemination.bytes_downloaded`` (the "N pulls, B bytes" check
detail and ``average_pull_latency_seconds`` with it) fell in every row
(``quickstart`` 1,509 → 1,402 B, ``soak`` 41,829 → 33,093 B,
``region-outage`` 21,628 → 17,028 B, ``thundering-herd`` 39,444 →
33,066 B); ``fleet.overlap_factor`` moved in the fourth decimal in seven
rows and ``slow-ra-holb``'s and ``thundering-herd``'s max lag by at most
12 ms.  ``ra-crash-recovery`` prints its recovery bytes (warm 1,443 →
1,293 B, cold 4,390 → 4,246 B) and ``region-outage`` its (534 → 419 B)
and the cold-sync counterfactual (1,584 → 1,302 B).  The two rows whose
RAs archive batches, ``soak`` and ``region-outage``, renamed their
``metrics.replication`` keys (``segments_*`` → ``batches_*``;
``batches_applied`` is the applied batch count, 72 and 40 as before;
``batch_bytes_downloaded`` 40,728 → 31,992 B and 20,160 → 15,560 B) and
their descriptions, and their ``dissemination.freshness_applied`` fell
147 → 75 and 74 → 40: the walk no longer applies the last batch's
statement before the poll applies the same one, so a statement is
counted once (a peer sync, which has no other, still applies it).
``soak``'s ``all-subsystems-exercised`` detail counts batches applied.
Publishing each batch object as its issuance alone (the statement served
after a batch is its root's anchor, so it is no longer sent twice)
re-pinned all 17 rows, every check still passing: every batch object an RA
fetched is 20 B shorter, so ``dissemination.bytes_downloaded`` fell
(``quickstart`` 1,402 → 1,382 B, ``soak`` 33,093 → 31,653 B) with the check
details, pull latencies, ``replication.batch_bytes_downloaded``,
``fleet.overlap_factor`` (``thundering-herd`` 3.1813 → 3.1812) and
``slow-ra-holb``'s max lag (70.182 → 70.181 s) they feed, and the recovery
byte counts ``ra-crash-recovery`` and ``region-outage`` print.
``region-outage``'s ``dissemination.freshness_applied`` fell 40 → 38: a
peer sync no longer re-applies its last batch's statement, which the
batch's own root had just installed.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.scenarios import get, names, run_scenario

GOLDEN_DIGESTS = {
    "ca-audit-gossip": "78e08edfb93d2bee7eef514a1fafbd437f80d7eba41581e8c04ccc8e966dabff",
    "degraded-ra": "8e480f5de3d95440015be223854f4a608f81fc42ebf0c671b177ac502d544872",
    "equivocating-ca": "0b0258649843a81d1cefadf9a5b11d49baa69e91dd2b8cd0526573f6b50ef2cb",
    "flash-crowd": "9b5a71960c660cf6ef9a02c9feb308347510941b6c8d95833fdc5432fc9b6b58",
    "heartbleed": "c533aa888984b2a7950f98739b640c678f588d2c83a95c2e26901294424ed3dc",
    "iot-long-lived": "0cff06cff2c407f2c7226ed5944113712c23418c2ee5d2cca42d898d1f6463d2",
    "quickstart": "b117b379d16fadb03bcb529ce664b84818c0a3c125d49a648baef68f17946e3d",
    "ra-crash-recovery": "a543276a0c4ee01ed620465318c046489a0f12f678a7e159a49243a96d128f17",
    "region-outage": "a3a54ffba9ae4833ae3287e19aad0b45b7ee7307898507abf9c51547b6232a65",
    "replayed-head": "41d5b4a2da5967ab4250ba5520dc3aad71582b42477845d98fd966dfde024c42",
    "rotated-ca-key": "5f4ed48caf0a61a6316f4cfb944e0a7e4b5f8e4de2caa9faa5c00bed8c1f6bfa",
    "sharded-longrun": "afaeff9e0bcea764390ac5a4f149e2ebf0383c72ba9af76eb535aa2bd0d43154",
    "slow-ra-holb": "b40a5320df89a2db316d0a8bfc60e58159d19036c1e1027110e46fb2ebf3db3d",
    "soak": "a6883fab5cbef93edae1d541099d1b6f95ed2efbd9fa84871bf8712a7b1558ba",
    "staggered-pulls": "282d52f8518243ec7e67d5d935aa061f6849607c1e83f46a9e2fb18ecefa4c92",
    "tampered-cdn": "bd951ddb0bb6d34802f5ce7d6bd3ba57ee8b1a52a15564122a5e7b0fa47857e8",
    "thundering-herd": "87d0864cc76a3f6dd6de972b0a28e134034ca8c779aba357f9c8858cdf96ab06",
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
