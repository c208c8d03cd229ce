"""Reject costs in counts: what a bad batch object costs the RA that reads it.

A batch object carries nothing signed but the root the CA signed after the
batch, so an RA finds a tampered batch by applying it: ``update_many``
verifies the root's signature, merges the batch, recomputes the root and
rolls the batch back when it is not the signed one; the walk then resyncs
from the CA's sync endpoint.  This file prices each reject path against its
honest twin in exact counts, never in wall time, so no gate can flake:

* SHA-256 calls — every ``raw_sha256`` construction, whichever module makes
  it (leaf and node hashes, hash-chain links);
* Ed25519 verifications (``repro.crypto.ed25519.verify``);
* store mutations — ``insert_batch`` and ``remove_batch`` on the replica;
* CA-origin requests — CDN GETs an edge forwards to the origin, plus sync
  requests.

A reject is counted up to the sync request it ends in; the resync — that
request and its apply — is reported beside it.  The cases, each on a replica of 10⁵ revoked serials:

* the CA's largest batch, 65,535 serials, honest and with one serial
  swapped.  The batch object carries no signature of its own on the
  condition that the tampered batch costs at most twice the honest one in
  SHA-256 calls before its resync;
* the same batch under a forged root signature: one verification, no
  hash and no mutation before the resync;
* the same batch one serial short of its root's size: the first number it
  implies is not the address the walk asked for, so no hash and no
  verification before the resync.

Beside them, under the default chain length of 8,640, a freshness value as
wide as the anchor that links to no chain: an RA polling it at the per-Δ
path, and a client checking a status that carries it, each against the
CA's honest period-1 value.

The counts land in ``benchmarks/results/reject_cost.json`` and
``reject_cost_freshness.json``, and in docs/THREATS.md.
"""

from __future__ import annotations

import contextlib
import importlib
from dataclasses import replace

import pytest
from bench_harness import write_json_result

from repro.cdn import CDNNetwork, GeoLocation
from repro.cdn.geography import Region
from repro.crypto import ed25519
from repro.dictionary.freshness import FreshnessStatement
from repro.perf import VerifiedRootCache
from repro.pki import CertificationAuthority, SerialNumber
from repro.ritm import RITMCertificationAuthority, RITMConfig, RevocationAgent, attach_agent_to_cas
from repro.ritm.ca_service import freshness_path, issuance_path
from repro.ritm.replication import decode_segment, encode_segment

#: Revoked serials the replica holds before the batch.
REPLICA_SERIALS = 100_000
#: The batch: the most serials one ``revoke`` may carry.
BATCH_SERIALS = 65_535
#: A serial neither the replica nor the batch holds (they hold 1 … 199,999
#: odd and 2 … 131,070 even).
ABSENT = 16_000_000
#: The SHA-256 calls of the honest batch and of the swapped one up to its
#: resync (1.28×), as built; the resync costs the honest batch again.
HONEST_SHA256 = 231_069
SWAPPED_SHA256 = 296_602
#: Every module that builds a SHA-256 object under its own name.
SHA256_MODULES = (
    "repro.crypto.hashing",
    "repro.crypto.merkle",
    "repro.store.base",
    "repro.store.incremental",
    "repro.store.compact",
)


class Ledger:
    """The counts one pull makes, split at its sync request."""

    FIELDS = ("sha256", "verifications", "insert_batch", "remove_batch", "origin_requests")

    def __init__(self) -> None:
        self.counts = dict.fromkeys(self.FIELDS, 0)
        #: ``counts`` as they stood at the sync request (``None``: no resync).
        self.before_resync = None

    def add(self, name: str) -> None:
        self.counts[name] += 1

    def split(self):
        """(the reject's counts, the resync's counts)."""
        before = self.before_resync or self.counts
        after = {name: self.counts[name] - before[name] for name in self.FIELDS}
        return dict(before), after


@contextlib.contextmanager
def counting(monkeypatch, client, ca):
    """Count every SHA-256 call, verification, store mutation and origin
    request while the block runs."""
    ledger = Ledger()
    with monkeypatch.context() as patch:
        for name in SHA256_MODULES:
            module = importlib.import_module(name)
            real = module.raw_sha256

            def sha(*data, _real=real):
                ledger.add("sha256")
                return _real(*data)

            patch.setattr(module, "raw_sha256", sha)
        verify = ed25519.verify

        def counted_verify(*args):
            ledger.add("verifications")
            return verify(*args)

        patch.setattr(ed25519, "verify", counted_verify)
        store = client.agent.replica_for(ca.name)._tree
        for method in ("insert_batch", "remove_batch"):

            def mutation(*args, _method=method, _real=getattr(store, method)):
                ledger.add(_method)
                return _real(*args)

            patch.setattr(store, method, mutation)
        download = client.cdn.download

        def get(*args, **kwargs):
            result = download(*args, **kwargs)
            if not result.cache_hit:
                ledger.add("origin_requests")
            return result

        patch.setattr(client.cdn, "download", get)
        serve = ca.sync_server.serve

        def sync(request):
            ledger.before_resync = dict(ledger.counts)
            ledger.add("origin_requests")
            return serve(request)

        patch.setattr(ca.sync_server, "serve", sync)
        yield ledger


def _serials(first: int, count: int):
    return [SerialNumber(first + 2 * n) for n in range(count)]


@pytest.fixture(scope="module")
def costs():
    """Four RAs on one 10⁵-serial replica each; each reads the 65,535-serial
    batch once: honest, swapped, under a forged root, one serial short."""
    config = RITMConfig(delta_seconds=10, chain_length=64)
    cdn = CDNNetwork()
    authority = CertificationAuthority("Reject CA", key_seed=b"reject-cost")
    ca = RITMCertificationAuthority(authority, config, cdn)
    ca.bootstrap(now=100)
    for start in range(0, REPLICA_SERIALS, 50_000):
        ca.revoke(_serials(1 + 2 * start, 50_000), now=110)
    clients = {}
    for case in ("honest", "swapped", "forged-root", "wrong-size"):
        client = attach_agent_to_cas(
            RevocationAgent(f"{case}-ra", config), [ca], cdn, GeoLocation(Region.EUROPE)
        )
        assert client.pull(now=111).serials_applied == REPLICA_SERIALS
        clients[case] = client

    issuance = ca.revoke(_serials(2, BATCH_SERIALS), now=120)
    paths = [issuance_path(ca.name, issuance.first_number), freshness_path(ca.name)]
    honest = cdn.origin.fetch(paths[0]).content
    batch = decode_segment(honest)
    root = batch.issuance.signed_root
    forgeries = {
        "honest": batch.issuance,
        # a serial revoked nowhere, so the merge goes through and only the
        # recomputed root can tell
        "swapped": replace(
            batch.issuance, serials=(SerialNumber(ABSENT),) + batch.issuance.serials[1:]
        ),
        "forged-root": replace(batch.issuance, signed_root=replace(root, signature=bytes(64))),
        "wrong-size": replace(
            batch.issuance,
            serials=batch.issuance.serials[1:],
            first_number=batch.issuance.first_number + 1,
        ),
    }
    results = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for case, client in clients.items():
            content = encode_segment(replace(batch, issuance=forgeries[case]))
            for path in paths:  # the batch's path and the per-Δ object
                cdn.publish(path, content, 120)
            cdn.invalidate()  # every case's GETs reach the origin alike
            with counting(monkeypatch, client, ca) as ledger:
                pull = client.pull(now=121)
            replica = client.agent.replica_for(ca.name)
            assert replica.root() == ca.dictionary.root()
            reject, recovery = ledger.split()
            results[case] = {
                "reject": reject,
                "resync": recovery if ledger.before_resync is not None else None,
                "requests": pull.requests,
                "resyncs": pull.resyncs,
                "batches_rejected": pull.batches_rejected,
            }
    for client in clients.values():
        client.agent.close()
    ca.close()
    write_json_result(
        "reject_cost",
        {"replica_serials": REPLICA_SERIALS, "batch_serials": BATCH_SERIALS, "cases": results},
    )
    return results


def test_an_honest_batch_is_one_merge_one_verify_and_one_get(costs):
    honest = costs["honest"]
    assert honest["resync"] is None and honest["batches_rejected"] == 0
    reject = honest["reject"]
    assert reject["sha256"] == HONEST_SHA256
    assert (reject["verifications"], reject["insert_batch"], reject["remove_batch"]) == (1, 1, 0)
    assert (honest["requests"], reject["origin_requests"]) == (1, 1)


def test_a_swapped_serial_costs_at_most_twice_the_honest_batch_then_one_resync(costs):
    """One insert, one rollback, one resync: bounded, and never a wrong state."""
    honest, swapped = costs["honest"]["reject"], costs["swapped"]["reject"]
    assert costs["swapped"]["batches_rejected"] == costs["swapped"]["resyncs"] == 1
    assert (swapped["insert_batch"], swapped["remove_batch"], swapped["verifications"]) == (1, 1, 1)
    assert swapped["sha256"] == SWAPPED_SHA256 <= 2 * honest["sha256"]
    # the per-Δ GET, then the sync request
    assert (costs["swapped"]["requests"], swapped["origin_requests"]) == (2, 1)
    resync = costs["swapped"]["resync"]
    assert (resync["origin_requests"], resync["insert_batch"]) == (1, 1)


def test_a_forged_root_costs_one_verification_and_no_hash(costs):
    """The signature is checked before anything is staged.  A failed
    signature first looks for a key rotation (one more GET, of the key
    chain, which this CA never rotated and so never published)."""
    forged = costs["forged-root"]
    reject = forged["reject"]
    assert (reject["verifications"], reject["sha256"]) == (1, 0)
    assert (reject["insert_batch"], reject["remove_batch"]) == (0, 0)
    assert forged["batches_rejected"] == forged["resyncs"] == 1
    assert forged["requests"] == 3  # per-Δ object, key chain, sync request


def test_a_wrong_size_batch_costs_no_hash(costs):
    """One serial short, so its first number is one past the address the
    walk asked for: refused before the store and before any signature."""
    wrong = costs["wrong-size"]
    reject = wrong["reject"]
    assert (reject["sha256"], reject["verifications"]) == (0, 0)
    assert (reject["insert_batch"], reject["remove_batch"]) == (0, 0)
    assert wrong["batches_rejected"] == wrong["resyncs"] == 1
    # the per-Δ object is not the batch at its address, so the walk GETs it
    assert (wrong["requests"], reject["origin_requests"]) == (3, 2)


#: The value planted at the per-Δ path: as wide as the anchor, linked to no
#: chain (the cheaper case, a value of another width, is refused unhashed).
UNLINKED_VALUE = bytes(range(40, 60))
#: The default ``RITMConfig.chain_length``: a value that links to no anchor
#: is hashed this many times plus one before it is refused.
CHAIN_LENGTH = RITMConfig().chain_length
#: SHA-256 calls, as built: an RA's poll of the unlinked value (then its
#: head, whose statement links in one), and a client's check of a status
#: carrying it, against each one's honest twin (the period-1 value).
POLL_UNLINKED_SHA256, POLL_HONEST_SHA256 = 8_642, 1
STATUS_UNLINKED_SHA256, STATUS_HONEST_SHA256 = 8_663, 23


@pytest.fixture(scope="module")
def freshness_costs():
    """Two RAs on a 1,000-serial replica under the default chain length:
    one polls the CA's period-1 value, the other an anchor-wide value that
    links to no chain; then a client checks a status carrying each."""
    config = RITMConfig(delta_seconds=10)
    cdn = CDNNetwork()
    authority = CertificationAuthority("Freshness CA", key_seed=b"freshness-cost")
    ca = RITMCertificationAuthority(authority, config, cdn)
    ca.bootstrap(now=100)
    ca.revoke(_serials(1, 1_000), now=110)
    clients = {}
    for case in ("honest", "unlinked"):
        client = attach_agent_to_cas(
            RevocationAgent(f"{case}-ra", config), [ca], cdn, GeoLocation(Region.EUROPE)
        )
        assert client.pull(now=111).serials_applied == 1_000
        clients[case] = client
    ca.refresh(now=120)  # the root's period-1 value at the per-Δ path
    results = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for case, client in clients.items():
            if case == "unlinked":
                cdn.publish(freshness_path(ca.name), UNLINKED_VALUE, 120)
            cdn.invalidate()
            with counting(monkeypatch, client, ca) as ledger:
                pull = client.pull(now=121)
            assert pull.errors == [] and pull.freshness_applied == 1
            results[f"poll-{case}"] = dict(ledger.counts, requests=pull.requests)
        client = clients["honest"]
        # between revoked serials 499 and 501: an absence proof with two neighbours
        honest = client.agent.build_status(ca.name, SerialNumber(500))
        unlinked = replace(honest, freshness=FreshnessStatement(UNLINKED_VALUE))
        root_cache = VerifiedRootCache()
        assert honest.is_acceptable(ca.public_key, 121, config.delta_seconds, root_cache)
        for case, status in (("honest", honest), ("unlinked", unlinked)):
            with counting(monkeypatch, client, ca) as ledger:
                accepted = status.is_acceptable(
                    ca.public_key, 121, config.delta_seconds, root_cache
                )
            results[f"status-{case}"] = dict(ledger.counts, accepted=accepted)
    for client in clients.values():
        client.agent.close()
    ca.close()
    write_json_result(
        "reject_cost_freshness", {"chain_length": CHAIN_LENGTH, "cases": results}
    )
    return results


def test_an_unlinked_per_delta_value_costs_a_chain_walk_and_one_head_get(freshness_costs):
    """The RA hashes the value ``chain_length + 1`` times looking for its
    anchor before it gives up and reads the head: 8,642 SHA-256 calls
    against 1 for the period-1 value, and one more GET, with no signature
    checked and no store touched."""
    assert CHAIN_LENGTH == 8_640
    honest, unlinked = freshness_costs["poll-honest"], freshness_costs["poll-unlinked"]
    assert honest["sha256"] == POLL_HONEST_SHA256
    assert (honest["requests"], honest["origin_requests"]) == (1, 1)
    assert unlinked["sha256"] == POLL_UNLINKED_SHA256 == CHAIN_LENGTH + 1 + POLL_HONEST_SHA256
    assert (unlinked["requests"], unlinked["origin_requests"]) == (2, 2)  # per-Δ, head
    for counts in (honest, unlinked):
        assert counts["verifications"] == counts["insert_batch"] == counts["remove_batch"] == 0


def test_a_status_carrying_an_unlinked_value_costs_a_chain_walk(freshness_costs):
    """A client checks the proof (22 hashes here) before the statement, so a
    status with an unlinked value costs that plus ``chain_length + 1`` hashes
    and is refused, against one more for the honest value: 376 times its
    honest twin.  Bounding the walk would change which clock-skewed
    statements are accepted, so it stays."""
    honest, unlinked = freshness_costs["status-honest"], freshness_costs["status-unlinked"]
    assert (honest["accepted"], unlinked["accepted"]) == (True, False)
    assert honest["sha256"] == STATUS_HONEST_SHA256
    assert unlinked["sha256"] == STATUS_UNLINKED_SHA256 == STATUS_HONEST_SHA256 + CHAIN_LENGTH
    assert honest["verifications"] == unlinked["verifications"] == 0
