"""RA GETs and bytes by object kind, for every registered scenario (smoke).

Every CDN GET an RA makes goes through ``CDNNetwork.download``; its path
names the object it fetches: a dictionary's head, its per-Δ object (a
freshness statement, or in a Δ with a batch that batch's object), a batch
object the catch-up walk fetches, a sharded CA's shard index, or a CA's
key-announcement chain.  Sync requests and peer
relays are not GETs and are not counted.  The table lands in
``benchmarks/results/dissemination_requests.txt``; the exact counts of
``quickstart`` and ``soak`` are gated, so a change to what an RA fetches
shows here first.
"""

from __future__ import annotations

import pytest
from bench_harness import write_result

from repro.analysis.reporting import format_table
from repro.cdn.network import CDNNetwork
from repro.scenarios import get, names, run_scenario

#: Object kinds, in table order, by the last component of their CDN path (a
#: batch object's path ends in its number instead).
KINDS = {
    "head": "head",
    "freshness": "per-Δ",
    "issuance": "batch",
    "shards": "shard index",
    "keys": "keys",
}

#: (GETs, bytes on the wire) per kind, for the gated scenarios.
GATED = {
    "quickstart": {"head": (1, 367), "per-Δ": (4, 1015)},
    "soak": {"head": (3, 1101), "per-Δ": (72, 30552)},
}


def kind_of(path: str) -> str:
    """The object kind a GET of ``path`` fetches."""
    parent, last = path.rsplit("/", 2)[-2:]
    return KINDS[parent if last.isdigit() else last]


def gets_by_kind(name: str, monkeypatch) -> dict:
    """Run ``name``'s smoke variant; return {kind: (GETs, bytes)} of its RAs."""
    tally = {kind: [0, 0] for kind in KINDS.values()}
    download = CDNNetwork.download

    def counted(self, path, *args, **kwargs):
        result = download(self, path, *args, **kwargs)
        entry = tally[kind_of(path)]
        entry[0] += 1
        entry[1] += result.bytes_on_wire
        return result

    with monkeypatch.context() as patch:
        patch.setattr(CDNNetwork, "download", counted)
        report = run_scenario(get(name).smoke())
    assert report.all_checks_passed, name
    return {kind: tuple(entry) for kind, entry in tally.items() if entry[0]}


@pytest.fixture(scope="module")
def requests_by_scenario():
    """{scenario: {kind: (GETs, bytes)}} for every registered scenario."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        return {name: gets_by_kind(name, monkeypatch) for name in names()}


def test_dissemination_requests_by_object_kind(requests_by_scenario):
    """Write the table, then gate the two pinned scenarios exactly."""
    kinds = list(KINDS.values())
    rows = []
    for name, tally in requests_by_scenario.items():
        cells = [f"{tally[kind][0]} / {tally[kind][1]:,}" if kind in tally else "-" for kind in kinds]
        total = sum(gets for gets, _ in tally.values())
        rows.append([name, *cells, total])
    write_result(
        "dissemination_requests",
        format_table(
            ["scenario", *kinds, "GETs"],
            rows,
            title="RA GETs / bytes on the wire by object kind (smoke runs)",
        ),
    )
    for name, expected in GATED.items():
        assert requests_by_scenario[name] == expected, name
