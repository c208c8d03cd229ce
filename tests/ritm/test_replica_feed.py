"""The RA's one replica feed: one position, one catch-up walk.

``segment_streaming`` only chooses which object the walk fetches per missing
batch, so the position a replica reached through issuance objects is the
position a segment walk resumes from, and a backlog costs one store
transaction whichever object carries it (docs/REPLICATION.md).
"""


from repro.dictionary.authdict import ReplicaDictionary
from repro.pki import SerialNumber
from repro.ritm.replication import segment_path
from tests.ritm.conftest import build_stack

BATCHES = 5
PER_BATCH = 3
#: ``CDNNetwork.download`` charges this much per request on top of the body.
REQUEST_BYTES = 200


def revoke_batch(ca, number, now):
    """Publish batch ``number`` (1-based) of ``PER_BATCH`` fresh serials."""
    first = 1000 + (number - 1) * PER_BATCH
    ca.revoke([SerialNumber(first + offset) for offset in range(PER_BATCH)], now=now)


def test_switching_to_streaming_fetches_only_segments_past_the_position():
    _, ca, cdn, attach = build_stack()
    agent, client = attach("switching-ra")
    for number in range(1, BATCHES):
        revoke_batch(ca, number, now=110 + 10 * number)
        client.pull(now=115 + 10 * number)
    assert client.replication_cursor(ca.name) == BATCHES - 1

    client.segment_streaming = True
    revoke_batch(ca, BATCHES, now=200)
    result = client.pull(now=205)

    newest = cdn.origin.fetch(segment_path(ca.name, BATCHES)).content
    assert result.segments_applied == 1
    assert result.segment_bytes_downloaded == len(newest) + REQUEST_BYTES
    assert result.serials_applied == PER_BATCH
    assert not result.errors and result.resyncs == 0
    assert agent.replica_for(ca.name).root() == ca.dictionary.root()


def test_segment_n_embeds_issuance_object_n_encoded_once(monkeypatch):
    """A segment is the issuance object plus its number, freshness and
    signature: segment ``n`` carries the bytes at ``/issuance/<n>`` verbatim,
    and the CA encodes each batch once for both objects."""
    from repro.ritm import ca_service, replication
    from repro.ritm.ca_service import issuance_path
    from repro.ritm.messages import encode_issuance
    from repro.ritm.replication import SEGMENT_MAGIC, decode_segment

    _, ca, cdn, _ = build_stack()
    encodings = []

    def spy(issuance):
        encodings.append(encode_issuance(issuance))
        return encodings[-1]

    for module in (ca_service, replication):
        monkeypatch.setattr(module, "encode_issuance", spy)
    issued = [
        ca.revoke([SerialNumber(1000 + 10 * number + k) for k in range(number)], now=110 + number)
        for number in range(1, BATCHES + 1)
    ]

    assert len({id(wire) for wire in encodings}) == BATCHES  # one encoding per batch
    start = len(SEGMENT_MAGIC) + 8 + 4  # segment number, issuance length
    for number, issuance in enumerate(issued, 1):
        wire = encode_issuance(issuance)
        segment = cdn.origin.fetch(segment_path(ca.name, number)).content
        assert cdn.origin.fetch(issuance_path(ca.name, number)).content == wire
        assert segment[start - 4 : start] == len(wire).to_bytes(4, "big")
        assert segment[start : start + len(wire)] == wire
        assert decode_segment(segment).issuance == issuance


def test_segment_backlog_is_one_store_transaction(monkeypatch):
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
    assert result.segments_applied == BATCHES
    assert result.serials_applied == BATCHES * PER_BATCH
    one, five = backlog.replica_for(ca.name), stepwise.replica_for(ca.name)
    assert one.root() == five.root()
    assert one.signed_root == five.signed_root
    assert one.latest_freshness == five.latest_freshness
    assert one.leaf_items() == five.leaf_items()
    for number in range(1, BATCHES + 1):
        assert backlog_client.archived_segment(
            ca.name, number
        ) == stepwise_client.archived_segment(ca.name, number)


def test_peer_archive_gap_is_exactly_one_cold_sync_fallback():
    _, ca, cdn, attach = build_stack()
    relay, relay_client = attach("relay-ra", streaming=True)
    victim, victim_client = attach("victim-ra")
    for number in range(1, BATCHES + 1):
        revoke_batch(ca, number, now=110 + 10 * number)
    relay_client.pull(now=200)
    del relay_client.feeds[ca.name].segments[3]

    result = victim_client.sync_from_peer(relay_client, now=210)

    assert result.peer_syncs == 1
    assert result.segments_from_peer == 2
    assert result.cold_sync_fallbacks == 1
    assert result.resyncs == 1
    assert result.segments_rejected == 0
    # The peer's claim to more history vouches for nothing: the position
    # stays where the verified run ended, though the resync filled the rest.
    assert victim_client.replication_cursor(ca.name) == 2
    assert victim.replica_for(ca.name).root() == ca.dictionary.root()
    assert result.serials_applied == BATCHES * PER_BATCH
