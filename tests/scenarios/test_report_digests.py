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
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.scenarios import get, names, run_scenario

GOLDEN_DIGESTS = {
    "ca-audit-gossip": "a07e59122016f01093205587fee4b502a89b31c24d16a06f72411457171727fb",
    "degraded-ra": "7da563eed2ca9f0851fc5eab4933f886366adad99f8d0a219cf684113555db2f",
    "equivocating-ca": "1a41a2a00d8d7bc06a6032f7b3bb46b88ce86b48d4ac1c5dfb4758da84646170",
    "flash-crowd": "8df76e7781905b356a618cac31854b6001c36db3c610548a14fac103dbc7a38e",
    "heartbleed": "fcc4e47e0fd8e583e9b164b417da4ed5dc342d805d021efb72034be850a26af1",
    "iot-long-lived": "062e2189d0aa399bf3e203c2a04f4c8da85a27f03d4f9a334967bbd8a12938f2",
    "quickstart": "05140a088fca2ccfe1ebd9d20c8b4f5a578077f85707974c1b56d1b8946ccb48",
    "ra-crash-recovery": "8a687cb815db6ada1692c69b8035aa23af2098b72a5fef75c5a48f8bd81ce008",
    "region-outage": "bdf57bd80388e14d83d94d6c50bf087ba785692331f8a171b9a16ad7c6c6d5af",
    "replayed-head": "920720ece2660f5decadb5d75975ad6962bb2e39208a168b9b21d48e954a1cda",
    "rotated-ca-key": "d9d10875a8f0c39d8d8ef23a0a0cbc6a718dfa4c386e790f77e0ef03aa55a41f",
    "sharded-longrun": "35be1924b4aa9d97585ab5d5ab4b036a3e962e104be51e6fc7a10873c15ab555",
    "slow-ra-holb": "788b8f2da53e07bf75e6af981ff0a5a865628107d0d08ad89f4d0d6a4b74d9da",
    "soak": "b0d68b0f02cf2c1ac791b9dbf0e0b6794d7df95482a4dcd899f1cf9d5dd12c0d",
    "staggered-pulls": "7d670f8e7d42a552d0d65cf0e7716c81f082c294934464bd71a213e000531553",
    "tampered-cdn": "86c025664296959a8de0651c72474749781421bfeb4a998b7cbfc32c40ed53e6",
    "thundering-herd": "79404c30c5665c34f5a6ee9bee3616555b54b6d7c50405277a4d23d204b2d714",
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
