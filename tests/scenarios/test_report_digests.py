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
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.scenarios import get, names, run_scenario

GOLDEN_DIGESTS = {
    "ca-audit-gossip": "deb24b31fb0be845b55b1bf577d0ba78972a4c799a88b56403c813081efd521c",
    "degraded-ra": "e902770b3835faa8bd8cb3c8a3b6c383c25c51244e7c7ed0ddc6852d14ecb6d9",
    "equivocating-ca": "76921ffbe9890ea4d08f3c83b2b37d2f8c0b7839d7e7a5266e80bbe99c4782fd",
    "flash-crowd": "f5c5505909cd126e164a9df02d9bdfd4d852145cc3be1aa36134bccf1f98b161",
    "heartbleed": "1cd393a093b5b43d31afdaf1ce59248dca6b6787f3d015371b25a9c772e9f6d0",
    "iot-long-lived": "d1fffab347e53dcf7dbf399031da94de996effd1e9e4cedbfc4ed856a5ea19b7",
    "quickstart": "954f1995b56b930c757147de8fbb86dad1deaae026da7588b562335efb0fcc36",
    "ra-crash-recovery": "f0db415d3ee68dd6d0a679e5011439c905047c14250441c5097d161b5e7e3da6",
    "region-outage": "e0bb4c669a625c143367a37d07b8d15a183e72f3d21eff3f8f4d9fa00ad95b88",
    "replayed-head": "e095c3cb1c1c4c96e724da04d4910860a73be89e3290c3c5773e2daac5052fa8",
    "rotated-ca-key": "cd71eedbfe4f370e1789c14c458f64ff6fe6e8af9be299c6de55bdc4dbc48e4b",
    "sharded-longrun": "ae2f50f48c5cedb736f1005b6bdb0015d73cf2937617c0b5d5155548e6dcf5c8",
    "slow-ra-holb": "4e74cea3ff2b430b3739384c089e2966adb6d74f897b7d7ec3b4744911e0bb51",
    "soak": "8869f2e78621d82432e0f97557d2828e70c52f73a08ad98db66ec6d6cea1cdc0",
    "staggered-pulls": "ff0bad29f97b51ed2cdbd78f5cb8bae04f117d1869e9b1f6ae8502f2d0d4be11",
    "tampered-cdn": "620b4c1127db52945087677b955dc0cc1583e1bcbaf2ae96ee03ec5d00d7cad1",
    "thundering-herd": "ef768586ff8b6d1cc2d6d30925a31073fff4289510ca7584591a0e5c73a2fe98",
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
    assert report_digest(run_scenario(get(name).smoke())) == GOLDEN_DIGESTS[name]
