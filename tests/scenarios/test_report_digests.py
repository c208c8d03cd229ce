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
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.scenarios import get, names, run_scenario

GOLDEN_DIGESTS = {
    "ca-audit-gossip": "c41da7e3aa66b406ba653158338ba06fea583bb3a1ef1a1ae71359fae152afff",
    "degraded-ra": "0476dd6f731042d585085d7b7ffc4971a0f42243b337fde1efeed66015daa177",
    "equivocating-ca": "81ee8af79081bee635a6b30cc6868afa495d0b410385e1a61d28ca4c914de3a3",
    "flash-crowd": "41374057cb1693ced73dfeefe7edbfea269fc46f2395faff93d62e0331dd7dba",
    "heartbleed": "4e1114f62613fd10a4fe96a48b5fdbfe8144a981fa74ea125aca14290e07750d",
    "iot-long-lived": "8547dbddf291314c5600eaa823725a577efa8568198843ebc32824d6767806b9",
    "quickstart": "fd9b9bdd7df97c89d6f3de5d1419ff79f281f556674ae81f0ce5f2b1a4c133af",
    "ra-crash-recovery": "310c301c38ae93bdf8fca1c1a818a86cec27eec3b06af83093ae7d18926b1443",
    "region-outage": "c02762eb76e6c828ee1a2aa9faa85204ffb56925c97705743efb103bc3a4477b",
    "replayed-head": "0b9fe51821bc41d1a4309a1e542f1aabe89052037bc89f13a8f76afc143832cf",
    "rotated-ca-key": "b4c887b7c29aed2b7de70191b64618f5356fcb1bdd755f294a921609eda5d926",
    "sharded-longrun": "5ab70a00c43358c0b9f08b32086c9b275aa0e2631c25f7fb6b83946c3f8296fa",
    "slow-ra-holb": "089d35822d7113168bb4a3198ef202a6e00bdc5dda2137d748d99b7bdf12de56",
    "soak": "619b04e14dde17279b328c7fb9825be366fe95f382bb7a100370d8c7bb0bbd3a",
    "staggered-pulls": "814e5b760f4d175e168888a6f828717e2a91fe0bf93a07b28ab27d29b93e068f",
    "tampered-cdn": "a01a9363adf6c34ef76b0771b019486103584c8a98c29df5bb8c4d9edc31f5ea",
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
