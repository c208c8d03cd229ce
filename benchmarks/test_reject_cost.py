"""Reject costs in counts: what a bad batch object costs the RA that reads it.

A batch object carries nothing signed but the root the CA signed after the
batch, so an RA finds a tampered batch by applying it: ``update_many``
verifies the root's signature, merges the batch, recomputes the root and
rolls the batch back when it is not the signed one; the walk then resyncs
from the CA's sync endpoint.  This file prices each reject path against its
honest twin in exact counts, never in wall time, so no gate can flake:

* SHA-256 calls — every ``raw_sha256`` construction, whichever module makes
  it (leaf and node hashes, hash-chain links);
* chain-hash calls — ``hash_chain_link`` as the freshness walks make them
  (each one of the SHA-256 calls);
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
  verification before the resync;
* the honest batch at its path, but its per-Δ copy cut one byte short, as
  a broken edge would serve it: the object fails to decode, so the RA
  records one error and reads the head, whose walk GETs the honest batch —
  the honest batch's counts plus two GETs, and no sync request.

Beside them, the freshness walks, also in chain-hash calls, under the
default chain length of 8,640 and under 64, at the root's periods 1, m/2
and m − 1: an RA's poll of the CA's next value and of a value as wide as
the anchor that links to no chain, and a client's check of a status
carrying each (and of the honest one at clocks one and two periods behind
it).  Every walk is bounded by a clock, so an RA's counts do not depend on
the chain's length, and a client's depend only on its clock's period.

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
from repro.crypto import ed25519, hashchain
from repro.dictionary.freshness import REPLAY_WINDOW, FreshnessStatement
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
#: The SHA-256 calls of the honest batch read behind a per-Δ copy that fails
#: to decode: the head's statement is its root's anchor, so no more.
GARBLED_SHA256 = HONEST_SHA256
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

    FIELDS = (
        "sha256",
        "chain",
        "verifications",
        "insert_batch",
        "remove_batch",
        "origin_requests",
    )

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
        link = hashchain.hash_chain_link

        def chain_link(*args):
            ledger.add("chain")
            return link(*args)

        patch.setattr(hashchain, "hash_chain_link", chain_link)
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
    """Five RAs on one 10⁵-serial replica each; each reads the 65,535-serial
    batch once: honest, swapped, under a forged root, one serial short, and
    honest at its path behind a per-Δ copy that does not decode."""
    config = RITMConfig(delta_seconds=10, chain_length=64)
    cdn = CDNNetwork()
    authority = CertificationAuthority("Reject CA", key_seed=b"reject-cost")
    ca = RITMCertificationAuthority(authority, config, cdn)
    ca.bootstrap(now=100)
    for start in range(0, REPLICA_SERIALS, 50_000):
        ca.revoke(_serials(1 + 2 * start, 50_000), now=110)
    clients = {}
    for case in ("honest", "swapped", "forged-root", "wrong-size", "garbled-per-delta"):
        client = attach_agent_to_cas(
            RevocationAgent(f"{case}-ra", config), [ca], cdn, GeoLocation(Region.EUROPE)
        )
        assert client.pull(now=111).serials_applied == REPLICA_SERIALS
        clients[case] = client

    issuance = ca.revoke(_serials(2, BATCH_SERIALS), now=120)
    paths = [issuance_path(ca.name, issuance.first_number), freshness_path(ca.name)]
    honest = cdn.origin.fetch(paths[0]).content
    batch = decode_segment(honest)
    forgeries = {
        "honest": batch,
        # a serial revoked nowhere, so the merge goes through and only the
        # recomputed root can tell
        "swapped": replace(batch, serials=(SerialNumber(ABSENT),) + batch.serials[1:]),
        "forged-root": replace(
            batch, signed_root=replace(batch.signed_root, signature=bytes(64))
        ),
        "wrong-size": replace(
            batch, serials=batch.serials[1:], first_number=batch.first_number + 1
        ),
        "garbled-per-delta": batch,
    }
    results = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for case, client in clients.items():
            content = encode_segment(forgeries[case])
            cdn.publish(paths[0], content, 120)
            per_delta = content[:-1] if case == "garbled-per-delta" else content
            cdn.publish(paths[1], per_delta, 120)
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
                "heads_checked": pull.heads_checked,
                "errors": len(pull.errors),
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


def test_a_per_delta_object_that_fails_to_decode_costs_two_gets_and_no_sync(costs):
    """One recorded error, then the head, whose walk GETs the honest batch at
    its path: the honest batch's hashes, verification and merge, two GETs
    more than the honest pull, and no sync request.  An edge serving
    garbage costs one head GET per Δ and never reaches the sync endpoint."""
    honest, garbled = costs["honest"]["reject"], costs["garbled-per-delta"]
    reject = garbled["reject"]
    assert garbled["resync"] is None and garbled["resyncs"] == 0
    assert (garbled["errors"], garbled["batches_rejected"], garbled["heads_checked"]) == (1, 0, 1)
    assert reject["sha256"] == GARBLED_SHA256 == honest["sha256"]
    assert (reject["verifications"], reject["insert_batch"], reject["remove_batch"]) == (1, 1, 0)
    # the per-Δ object, the head, the batch at its path
    assert (garbled["requests"], reject["origin_requests"]) == (3, 3)


#: The value planted at the per-Δ path: as wide as the anchor, linked to no
#: chain (the cheaper case, a value of another width, is refused unhashed).
UNLINKED_VALUE = bytes(range(40, 60))
#: The chain lengths the freshness costs are priced under: the default
#: ``RITMConfig.chain_length`` (a day of 10 s periods) and a short chain.
#: Every walk is bounded by a clock, so both read the same counts.
CHAIN_LENGTHS = (RITMConfig().chain_length, 64)
#: Chain hashes of an RA's poll of the unlinked value, by the period its
#: root has reached, as built: the forward walk the clock allows (2 — the
#: elapsed Δ plus the one period of tolerance), the held statement hashed
#: back toward it (``REPLAY_WINDOW``, never past the anchor: 0 at period 1),
#: then the head's own statement, which links in 1 as an honest poll does.
POLL_UNLINKED_CHAIN = {"p=1": 3, "p=m/2": 5, "p=m-1": 5}


def _periods(chain_length: int):
    """The root's periods the costs are priced at, by label."""
    return {"p=1": 1, "p=m/2": chain_length // 2, "p=m-1": chain_length - 1}


def _freshness_costs(chain_length: int):
    """Two RAs on a 1,000-serial replica, polling in step through one
    root's chain: at each priced period one polls the CA's value, the
    other an anchor-wide value that links to no chain; then a client
    checks a status carrying each, and the honest one at clocks one and
    two periods behind its statement."""
    config = RITMConfig(delta_seconds=10, chain_length=chain_length)
    cdn = CDNNetwork()
    authority = CertificationAuthority("Freshness CA", key_seed=b"freshness-cost")
    ca = RITMCertificationAuthority(authority, config, cdn)
    ca.bootstrap(now=100)
    ca.revoke(_serials(1, 1_000), now=110)  # the root; period p begins at 110 + 10p
    clients = {}
    for case in ("honest", "unlinked"):
        client = attach_agent_to_cas(
            RevocationAgent(f"{case}-ra", config), [ca], cdn, GeoLocation(Region.EUROPE)
        )
        assert client.pull(now=111).serials_applied == 1_000
        clients[case] = client
    root_cache = VerifiedRootCache()
    results = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for label, period in _periods(chain_length).items():
            if period > 1:
                ca.refresh(now=110 + 10 * (period - 1))  # both RAs hold the Δ before
                for client in clients.values():
                    assert not client.pull(now=111 + 10 * (period - 1)).errors
            ca.refresh(now=110 + 10 * period)
            now = 111 + 10 * period
            row = results[label] = {"period": period}
            for case, client in clients.items():
                if case == "unlinked":
                    cdn.publish(freshness_path(ca.name), UNLINKED_VALUE, now - 1)
                cdn.invalidate()
                with counting(monkeypatch, client, ca) as ledger:
                    pull = client.pull(now=now)
                assert pull.errors == [] and pull.freshness_applied == 1
                row[f"poll-{case}"] = dict(
                    ledger.counts, requests=pull.requests, heads_checked=pull.heads_checked
                )
            client = clients["honest"]
            # between revoked serials 499 and 501: an absence proof with two neighbours
            honest = client.agent.build_status(ca.name, SerialNumber(500))
            unlinked = replace(honest, freshness=FreshnessStatement(UNLINKED_VALUE))
            checks = [("status-honest", honest, now), ("status-unlinked", unlinked, now)]
            if period >= 2:  # a clock before the root's own period reads period 0
                checks += [
                    ("status-one-ahead", honest, now - 10),
                    ("status-two-ahead", honest, now - 20),
                ]
            for case, status, clock in checks:
                # the root's verdict memoized first: only freshness and the proof are counted
                assert root_cache.verify_many([status.signed_root], ca.public_key) == [True]
                with counting(monkeypatch, client, ca) as ledger:
                    accepted = status.is_acceptable(
                        ca.public_key, clock, config.delta_seconds, root_cache
                    )
                row[case] = dict(
                    ledger.counts,
                    accepted=accepted,
                    clock_period=(clock - 110) // config.delta_seconds,
                )
    for client in clients.values():
        client.agent.close()
    ca.close()
    return results


@pytest.fixture(scope="module")
def freshness_costs():
    """:func:`_freshness_costs` under each of :data:`CHAIN_LENGTHS`."""
    results = {f"m={length}": _freshness_costs(length) for length in CHAIN_LENGTHS}
    write_json_result(
        "reject_cost_freshness",
        {"chain_lengths": list(CHAIN_LENGTHS), "replay_window": REPLAY_WINDOW, "cases": results},
    )
    return results


def _rows(freshness_costs):
    for chain in freshness_costs.values():
        yield from chain.items()


def test_an_honest_poll_costs_one_chain_hash_at_every_period(freshness_costs):
    """An RA that polled last Δ links the next value to the one it holds,
    not to the root's anchor: one chain hash and one GET at period 1, at
    m/2 and at m − 1, under either chain length."""
    for _, row in _rows(freshness_costs):
        honest = row["poll-honest"]
        assert honest["sha256"] == honest["chain"] == 1
        assert (honest["requests"], honest["origin_requests"], honest["heads_checked"]) == (1, 1, 0)


def test_an_unlinked_per_delta_value_costs_a_bounded_walk_and_one_head_get(freshness_costs):
    """The RA hashes the value only as far as its clock allows past the held
    statement, and the held statement back ``REPLAY_WINDOW`` periods: at
    most ``REPLAY_WINDOW + 2`` chain hashes before it reads the head (whose
    statement then links in 1), with no signature checked and no store
    touched — the same counts at m = 8,640 and at m = 64."""
    assert CHAIN_LENGTHS[0] == 8_640
    long_chain, short_chain = (
        {label: (row["poll-honest"], row["poll-unlinked"]) for label, row in chain.items()}
        for chain in freshness_costs.values()
    )
    assert long_chain == short_chain
    for label, row in _rows(freshness_costs):
        honest, unlinked = row["poll-honest"], row["poll-unlinked"]
        assert unlinked["sha256"] == unlinked["chain"] == POLL_UNLINKED_CHAIN[label]
        assert unlinked["chain"] - honest["chain"] <= REPLAY_WINDOW + 2
        assert (unlinked["requests"], unlinked["origin_requests"]) == (2, 2)  # per-Δ, head
        assert unlinked["heads_checked"] == 1
        for counts in (honest, unlinked):
            assert counts["verifications"] == counts["insert_batch"] == counts["remove_batch"] == 0


def test_a_status_carrying_an_unlinked_value_costs_at_most_p_plus_two_chain_hashes(
    freshness_costs,
):
    """A client hashes a statement at most p′ + ``TOLERANCE_PERIODS`` times
    toward the anchor (p′ its clock's period under the root), so a value
    that links nowhere costs no more chain hashes than p′ + 2 and is
    refused; the honest value of period p′ costs p′.  The proof's own
    hashes come first, the same for both, and no signature is checked
    (the root's verdict is memoized)."""
    for _, row in _rows(freshness_costs):
        honest, unlinked = row["status-honest"], row["status-unlinked"]
        period = row["period"]
        assert (honest["accepted"], unlinked["accepted"]) == (True, False)
        assert honest["clock_period"] == unlinked["clock_period"] == period
        assert honest["chain"] == period
        assert unlinked["chain"] <= period + 2
        assert honest["sha256"] - honest["chain"] == unlinked["sha256"] - unlinked["chain"]
        assert honest["verifications"] == unlinked["verifications"] == 0


def test_a_statement_two_periods_ahead_of_the_client_is_refused(freshness_costs):
    """The CA's clock may lead the client's by the one period of tolerance:
    the statement of period p is accepted at p′ = p − 1 and refused at
    p′ = p − 2, after at most p′ + 1 chain hashes."""
    for label, row in _rows(freshness_costs):
        if label == "p=1":
            continue  # no clock period precedes the root's
        one, two = row["status-one-ahead"], row["status-two-ahead"]
        assert (one["clock_period"], two["clock_period"]) == (row["period"] - 1, row["period"] - 2)
        assert (one["accepted"], two["accepted"]) == (True, False)
        assert two["chain"] <= two["clock_period"] + hashchain.TOLERANCE_PERIODS
