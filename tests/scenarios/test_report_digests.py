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
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.scenarios import get, names, run_scenario

GOLDEN_DIGESTS = {
    "ca-audit-gossip": "7fb1e1721d821a357059642b150c2fd45dca6ddc45c039b32172b8e46757e953",
    "degraded-ra": "ee6ceed1e742315bd0c335d42c5fb5dcbc59882b22a361b1740c9168d6e767ba",
    "equivocating-ca": "17d929f75b9d2d73f33382f27b13f7d965ef857782426655b8418ff468bfbba4",
    "flash-crowd": "5eb9a83da0b0cdc4e4e8801d55e519fce87777cfccb773864c0d223c113a063b",
    "heartbleed": "9a809fc660ed2c6577ac4ca0e1f78849aa10da2178c3c405fae5b3aca2fc73af",
    "iot-long-lived": "6995a5787c226d0a2b38755162d80d04395b3cb8026ee0c9695409b2be918512",
    "quickstart": "2f5381e874e904a95c0c0d4cf45b24e7777d11665476c8a2ebbbc5c194fdf067",
    "ra-crash-recovery": "fba12816ff74e7bd01d4b862e4d1e7f5a5391cd4bfde839be0192ea06e7b1a7d",
    "region-outage": "7b274b33188b06df54591e58c86425cce374feda5465214d818efe09487f79b6",
    "replayed-head": "32f2215e1a1572640cb8e6545d91e93587418eed6dd572fd90ab04e06e55b2c8",
    "rotated-ca-key": "0787495e14351cc2e1474cd41ba19fef38083d83749f20499d79873fdab2e510",
    "sharded-longrun": "314e57afd8887d1632e75116c291540404d50c6263a6f85c055fd9aace5b5c91",
    "slow-ra-holb": "135c7431e2ad0122753db9f75d48cde2e587d115e8308a7794bbfb4ad9f76634",
    "soak": "b71acd8127172a67b051d11d18bf93847e38a9559f24778d1f8020449d5d48bf",
    "staggered-pulls": "cea96884a0f98c1b24c80b122ebc999bc40edd78de4aed053056d65c44532c74",
    "tampered-cdn": "f5e40208bea99f3883d5d48cf7a8729de10e0cb0c122cb32e7a2c28a3a72cd99",
    "thundering-herd": "5e3036cb18dca2aaaf5f2c486001dfa2806426ff917d1b30e9d883b8c86042de",
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
