"""The RA's one replica feed: one coordinate, one catch-up walk.

A batch is one object addressed by its first serial number, so a replica's
position in its stream is its size and the walk reads the batch at
``size + 1`` next.  ``segment_streaming`` only decides whether the RA
archives the objects it applied for peers, so switching it on changes no
position, and a backlog costs one store transaction however it arrives
(docs/REPLICATION.md).  The path is unauthenticated: a batch that does not
carry the address it was fetched at is refused before the store, like any
other bad batch.
"""

import pytest

from repro.dictionary.authdict import ReplicaDictionary
from repro.pki import SerialNumber
from repro.ritm.agent import RevocationAgent
from repro.ritm.ca_service import issuance_path
from tests.ritm.conftest import build_stack

BATCHES = 5
PER_BATCH = 3
#: ``CDNNetwork.download`` charges this much per request on top of the body.
REQUEST_BYTES = 200


def revoke_batch(ca, number, now):
    """Publish batch ``number`` (1-based) of ``PER_BATCH`` fresh serials."""
    first = 1000 + (number - 1) * PER_BATCH
    return ca.revoke([SerialNumber(first + offset) for offset in range(PER_BATCH)], now=now)


def address(number):
    """The first serial number of batch ``number`` (1-based) of ``revoke_batch``."""
    return 1 + (number - 1) * PER_BATCH


def test_switching_on_the_archive_keeps_only_batches_past_the_position():
    _, ca, cdn, attach = build_stack()
    agent, client = attach("switching-ra")
    for number in range(1, BATCHES):
        revoke_batch(ca, number, now=110 + 10 * number)
        client.pull(now=115 + 10 * number)
    assert client.replication_cursor(ca.name) == (BATCHES - 1) * PER_BATCH
    assert client.feeds[ca.name].batches == {}

    client.segment_streaming = True
    revoke_batch(ca, BATCHES, now=200)
    result = client.pull(now=205)

    newest = cdn.origin.fetch(issuance_path(ca.name, address(BATCHES))).content
    assert result.issuances_applied == 1
    assert result.batch_bytes_downloaded == len(newest) + REQUEST_BYTES
    assert result.serials_applied == PER_BATCH
    assert not result.errors and result.resyncs == 0
    assert client.feeds[ca.name].batches == {address(BATCHES): newest}
    assert agent.replica_for(ca.name).root() == ca.dictionary.root()


def test_batch_n_is_one_object_encoded_once(monkeypatch):
    """The object at address ``n`` is the batch's issuance encoding alone,
    made once by the CA — the statement served after it is its root's
    anchor, so it is not sent again; ``n`` is the batch's first serial
    number, and nothing else is published for the batch."""
    from repro.ritm import replication
    from repro.ritm.messages import encode_issuance
    from repro.ritm.replication import decode_segment

    _, ca, cdn, _ = build_stack()
    encodings = []

    def spy(issuance):
        encodings.append(encode_issuance(issuance))
        return encodings[-1]

    monkeypatch.setattr(replication, "encode_issuance", spy)
    issued = []
    for number in range(1, BATCHES + 1):
        objects_before = len(cdn.origin._objects)
        issued.append(
            ca.revoke(
                [SerialNumber(1000 + 10 * number + k) for k in range(number)], now=110 + number
            )
        )
        assert len(cdn.origin._objects) - objects_before == 1  # head and per-Δ object exist

    assert len(encodings) == BATCHES  # one encoding per batch
    assert [issuance.first_number for issuance in issued] == [1, 2, 4, 7, 11]
    for issuance in issued:
        wire = encode_issuance(issuance)
        content = cdn.origin.fetch(issuance_path(ca.name, issuance.first_number)).content
        assert content == wire
        assert decode_segment(content) == issuance


def test_a_backlog_is_one_store_transaction(monkeypatch):
    _, ca, cdn, attach = build_stack()
    stepwise, stepwise_client = attach("stepwise-ra", streaming=True)
    backlog, backlog_client = attach("backlog-ra", streaming=True)
    for number in range(1, BATCHES + 1):
        revoke_batch(ca, number, now=110 + 10 * number)
        stepwise_client.pull(now=115 + 10 * number)

    calls = []
    update_many = ReplicaDictionary.update_many

    def counting(self, issuances):
        calls.append(len(issuances))
        return update_many(self, issuances)

    monkeypatch.setattr(ReplicaDictionary, "update_many", counting)
    result = backlog_client.pull(now=115 + 10 * BATCHES)

    assert calls == [BATCHES]
    assert result.issuances_applied == BATCHES
    assert result.serials_applied == BATCHES * PER_BATCH
    one, five = backlog.replica_for(ca.name), stepwise.replica_for(ca.name)
    assert one.root() == five.root()
    assert one.signed_root == five.signed_root
    assert one.latest_freshness == five.latest_freshness
    assert one.leaf_items() == five.leaf_items()
    archive = backlog_client.feeds[ca.name].batches
    assert sorted(archive) == [address(number) for number in range(1, BATCHES + 1)]
    assert archive == stepwise_client.feeds[ca.name].batches


def test_peer_archive_gap_is_exactly_one_cold_sync_fallback():
    _, ca, cdn, attach = build_stack()
    relay, relay_client = attach("relay-ra", streaming=True)
    victim, victim_client = attach("victim-ra")
    for number in range(1, BATCHES + 1):
        revoke_batch(ca, number, now=110 + 10 * number)
    relay_client.pull(now=200)
    del relay_client.feeds[ca.name].batches[address(3)]

    result = victim_client.sync_from_peer(relay_client, now=210)

    assert result.peer_syncs == 1
    assert result.batches_from_peer == 2
    assert result.cold_sync_fallbacks == 1
    assert result.resyncs == 1
    assert result.batches_rejected == 0
    # The resync filled the rest, and the replica's size is where it stands.
    assert victim_client.replication_cursor(ca.name) == BATCHES * PER_BATCH
    assert victim.replica_for(ca.name).root() == ca.dictionary.root()
    assert result.serials_applied == BATCHES * PER_BATCH


def count_store_calls(monkeypatch):
    """Every batch hand-over to a replica's store, by batch count."""
    calls = []
    apply_issuances = RevocationAgent.apply_issuances

    def counting(self, ca_name, issuances):
        calls.append(len(issuances))
        return apply_issuances(self, ca_name, issuances)

    monkeypatch.setattr(RevocationAgent, "apply_issuances", counting)
    return calls


@pytest.mark.parametrize("streaming", [False, True], ids=["plain", "archiving"])
def test_an_edge_serving_batch_k_at_batch_k_plus_1s_path_costs_one_resync(
    monkeypatch, streaming
):
    """The RA holds batch 1 and walks to batches 2 and 3; the CDN serves
    batch 1's object (honest, CA-signed) at batch 2's address.  It is an
    error and one resync, and no batch reaches the store."""
    _, ca, cdn, attach = build_stack()
    agent, client = attach("addressed-ra", streaming=streaming)
    revoke_batch(ca, 1, now=110)
    client.pull(now=115)
    for number in (2, 3):
        revoke_batch(ca, number, now=110 + 10 * number)
    ca.refresh(now=145)  # the per-Δ object is the statement: the walk GETs both
    batch_1 = cdn.origin.fetch(issuance_path(ca.name, 1)).content
    cdn.publish(issuance_path(ca.name, address(2)), batch_1, 145)
    calls = count_store_calls(monkeypatch)

    result = client.pull(now=146)

    assert len(result.errors) == 1
    assert f"at serial {address(2)}" in result.errors[0] and "at 1" in result.errors[0]
    assert result.resyncs == 1
    assert result.batches_rejected == 1
    assert calls == []
    assert agent.replica_for(ca.name).root() == ca.dictionary.root()


def test_a_peer_relaying_the_wrong_batch_costs_one_cold_sync_fallback(monkeypatch):
    """A peer's archive answers the request for batch 2's address with batch
    1's object (honest, CA-signed root): one error, one explicit fallback to the
    CA's sync protocol, and no batch reaches the store."""
    _, ca, _, attach = build_stack()
    relay, relay_client = attach("relay-ra", streaming=True)
    victim, victim_client = attach("victim-ra")
    revoke_batch(ca, 1, now=110)
    victim_client.pull(now=115)
    for number in (2, 3):
        revoke_batch(ca, number, now=110 + 10 * number)
    relay_client.pull(now=135)
    archive = relay_client.feeds[ca.name].batches
    archive[address(2)] = archive[1]
    calls = count_store_calls(monkeypatch)

    result = victim_client.sync_from_peer(relay_client, now=140)

    assert result.peer_syncs == 1
    assert len(result.errors) == 1
    assert result.batches_rejected == 1
    assert result.cold_sync_fallbacks == 1 and result.resyncs == 1
    assert result.batches_from_peer == 0
    assert calls == []
    assert victim.replica_for(ca.name).root() == ca.dictionary.root()


def test_an_empty_batch_at_the_right_address_costs_one_resync(monkeypatch):
    """A batch is never empty, so an edge serving a zero-serial batch object
    at the address the walk asked for — batch 1's root over no serials, whose
    first number is 4 — cannot hold the walk in place: one error, one
    resync, no store call."""
    from dataclasses import replace

    from repro.ritm.replication import decode_segment, encode_segment

    _, ca, cdn, attach = build_stack()
    agent, client = attach("emptied-ra")
    revoke_batch(ca, 1, now=110)
    client.pull(now=115)
    revoke_batch(ca, 2, now=120)
    ca.refresh(now=125)
    batch_1 = decode_segment(cdn.origin.fetch(issuance_path(ca.name, 1)).content)
    emptied = replace(batch_1, serials=(), first_number=address(2))
    cdn.publish(issuance_path(ca.name, address(2)), encode_segment(emptied), 125)
    calls = count_store_calls(monkeypatch)

    result = client.pull(now=126)

    # the per-Δ object (a statement of the root the RA has not seen), the
    # head, the emptied batch, the resync
    assert (result.requests, result.heads_checked) == (4, 1)
    assert len(result.errors) == 1 and "0 serial(s)" in result.errors[0]
    assert result.resyncs == 1
    assert calls == []
    assert agent.replica_for(ca.name).root() == ca.dictionary.root()


@pytest.mark.parametrize("where", ["batch path", "per-delta path"])
def test_the_retired_layout_is_refused_as_trailing_bytes(monkeypatch, where):
    """The object once published for a batch — its issuance, then its
    root's anchor — is no batch object: the anchor is trailing bytes.  At
    the batch path the walk rejects it (one resync, no store call); as the
    per-Δ object it is one error and the head, whose walk GETs the honest
    batch (no resync)."""
    from repro.ritm.ca_service import freshness_path
    from repro.ritm.messages import encode_issuance

    _, ca, cdn, attach = build_stack()
    agent, client = attach("retired-layout-ra")
    client.pull(now=101)
    issuance = revoke_batch(ca, 1, now=110)
    retired = encode_issuance(issuance) + issuance.signed_root.anchor
    if where == "batch path":
        ca.refresh(now=111)  # the per-Δ object is the statement: the walk GETs the batch
        cdn.publish(issuance_path(ca.name, 1), retired, 111)
    else:
        cdn.publish(freshness_path(ca.name), retired, 111)
    calls = count_store_calls(monkeypatch)

    result = client.pull(now=115)

    assert len(result.errors) == 1 and "trailing bytes" in result.errors[0]
    assert result.heads_checked == 1
    if where == "batch path":
        assert (result.batches_rejected, result.resyncs, calls) == (1, 1, [])
    else:
        assert (result.batches_rejected, result.resyncs, calls) == (0, 0, [1])
    replica = agent.replica_for(ca.name)
    assert replica.root() == ca.dictionary.root()
    assert replica.latest_freshness == ca.dictionary.latest_freshness
