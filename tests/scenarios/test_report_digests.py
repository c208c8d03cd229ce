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
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.scenarios import get, names, run_scenario

GOLDEN_DIGESTS = {
    "ca-audit-gossip": "6f37d73591389e5d6541cc8d59713387a92292304c6f29fabe34dab9b4fbc67f",
    "degraded-ra": "0476dd6f731042d585085d7b7ffc4971a0f42243b337fde1efeed66015daa177",
    "equivocating-ca": "81ee8af79081bee635a6b30cc6868afa495d0b410385e1a61d28ca4c914de3a3",
    "flash-crowd": "41374057cb1693ced73dfeefe7edbfea269fc46f2395faff93d62e0331dd7dba",
    "heartbleed": "4e1114f62613fd10a4fe96a48b5fdbfe8144a981fa74ea125aca14290e07750d",
    "iot-long-lived": "03a08b7341ae944884fa2e7d448907584dcd860710b23facbacc0d83e8166518",
    "quickstart": "3244dc703a0f0ec158b9831967cafe7424a00d92a0733f5fce6758571849dbb4",
    "ra-crash-recovery": "310c301c38ae93bdf8fca1c1a818a86cec27eec3b06af83093ae7d18926b1443",
    "region-outage": "0a4d91c36156a8f7ba438f9967164f0608a74fc6bd80db7e0e268b32cf749d7e",
    "replayed-head": "0b9fe51821bc41d1a4309a1e542f1aabe89052037bc89f13a8f76afc143832cf",
    "rotated-ca-key": "4299b7e68601da4faeae307b5528c6d51c74a2915ad2290023746fb2de4593c6",
    "sharded-longrun": "5ab70a00c43358c0b9f08b32086c9b275aa0e2631c25f7fb6b83946c3f8296fa",
    "slow-ra-holb": "089d35822d7113168bb4a3198ef202a6e00bdc5dda2137d748d99b7bdf12de56",
    "soak": "fb89d69b494ce9c72038d81b2f86685329e20b8aacf10734b901b557a289dca6",
    "staggered-pulls": "814e5b760f4d175e168888a6f828717e2a91fe0bf93a07b28ab27d29b93e068f",
    "tampered-cdn": "79737785e6c9c87f7f2d02ccbe182004a60eab5b991c6be404d3ba25db4e74f3",
    "thundering-herd": "6b91839515f9715eaed8d59956d803cd69f000d81354c594e4d7e9cfdc8f0646",
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
