"""Differential oracle for the batch-object replication stream.

An RA that archives the batch objects it applies, and an RA that learns
revocations *only* from another RA's archive, relayed peer-to-peer, must
end byte-identical to an RA fed by the ordinary pull path: same Merkle
roots, same signed roots, same freshness statements, same proofs for
present and absent serials.  Every store engine must agree, and an
archiving replica must survive a checkpoint/restore round trip and resume
from its size (docs/REPLICATION.md).  Whether an RA archives is the
client's ``segment_streaming`` attribute.
"""

import pytest

from repro.cdn.geography import Region
from repro.pki import SerialNumber
from repro.store import ENGINES
from tests.ritm.conftest import build_stack

PERIODS = 5
PER_PERIOD = 4


def drive(ca, steps, start=120):
    """Revoke PER_PERIOD serials per period, calling ``steps`` after each."""
    for period in range(PERIODS):
        now = start + period * 10
        serials = [
            SerialNumber(1000 + period * PER_PERIOD + offset)
            for offset in range(PER_PERIOD)
        ]
        ca.revoke(serials, now=now)
        for step in steps:
            step(now + 5)


def assert_replicas_identical(ca, reference, candidate):
    """Byte-level equality of state, plus proof equality for both verdicts."""
    ref = reference.replica_for(ca.name)
    cand = candidate.replica_for(ca.name)
    assert cand.root() == ref.root()
    assert cand.size == ref.size
    assert cand.signed_root == ref.signed_root
    assert cand.latest_freshness == ref.latest_freshness
    present = SerialNumber(1000)
    absent = SerialNumber(999_999)
    assert cand.prove(present) == ref.prove(present)
    assert cand.prove(absent) == ref.prove(absent)
    assert cand.prove(present).is_revoked
    assert not cand.prove(absent).is_revoked


@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestArchivedBatchesMatchThePullPath:
    def test_an_archiving_ra_reaches_pull_state(self, engine):
        config, ca, cdn, attach = build_stack(engine)
        puller, pull_client = attach("pull-ra")
        pull_client.pull(now=101)
        segmented, segment_client = attach(
            "segment-ra", Region.UNITED_STATES, streaming=True
        )

        drive(
            ca,
            steps=[
                lambda now: pull_client.pull(now=now),
                lambda now: segment_client.pull(now=now),
            ],
        )

        assert_replicas_identical(ca, puller, segmented)
        assert segment_client.replication_cursor(ca.name) == PERIODS * PER_PERIOD
        applied = sum(
            pull.issuances_applied for pull in segment_client.pull_history
        )
        assert applied == PERIODS == len(segment_client.feeds[ca.name].batches)
        for a in (puller, segmented):
            a.close()
        ca.close()

    def test_peer_relayed_batches_reach_pull_state(self, engine):
        config, ca, cdn, attach = build_stack(engine)
        puller, pull_client = attach("pull-ra")
        pull_client.pull(now=101)
        relay, relay_client = attach("relay-ra", Region.UNITED_STATES, streaming=True)
        restored, restored_client = attach("restored-ra", Region.UNITED_STATES)

        drive(
            ca,
            steps=[
                lambda now: pull_client.pull(now=now),
                lambda now: relay_client.pull(now=now),
            ],
        )
        result = restored_client.sync_from_peer(relay_client, now=500)

        assert_replicas_identical(ca, puller, restored)
        assert result.peer_syncs == 1
        assert result.batches_from_peer == PERIODS
        assert result.cold_sync_fallbacks == 0
        assert result.batch_bytes_downloaded > 0
        # peer relay never touched the CDN origin on the restored RA's behalf
        assert cdn.origin_bytes_by_source.get("restored-ra", 0) == 0
        assert restored_client.replication_cursor(ca.name) == PERIODS * PER_PERIOD
        for a in (puller, relay, restored):
            a.close()
        ca.close()

    def test_a_batch_sync_is_idempotent(self, engine):
        config, ca, cdn, attach = build_stack(engine)
        segmented, segment_client = attach("segment-ra", streaming=True)
        drive(ca, steps=[lambda now: segment_client.pull(now=now)])

        again = segment_client.pull(now=600)
        assert again.issuances_applied == 0
        assert again.serials_applied == 0
        assert segment_client.replication_cursor(ca.name) == PERIODS * PER_PERIOD

        # a follow-up peer sync against an equally-caught-up peer is a no-op
        peer, peer_client = attach("peer-ra", streaming=True)
        peer_client.pull(now=601)
        rerun = segment_client.sync_from_peer(peer_client, now=602)
        assert rerun.peer_syncs == 0
        assert rerun.serials_applied == 0
        for a in (segmented, peer):
            a.close()
        ca.close()


class TestStreamingPullMode:
    def test_streaming_pull_matches_plain_pull(self):
        """An archiving RA's pulls end byte-identical to a plain RA's."""
        config, ca, cdn, attach = build_stack("incremental")
        plain, plain_client = attach("plain-ra")
        streaming, streaming_client = attach(
            "streaming-ra", Region.JAPAN, streaming=True
        )
        plain_client.pull(now=101)
        streaming_client.pull(now=101)

        drive(
            ca,
            steps=[
                lambda now: plain_client.pull(now=now),
                lambda now: streaming_client.pull(now=now),
            ],
        )

        assert_replicas_identical(ca, plain, streaming)
        # the same batch objects, the same GETs
        for client in (plain_client, streaming_client):
            assert sum(p.issuances_applied for p in client.pull_history) == PERIODS
        assert [p.requests for p in plain_client.pull_history] == [
            p.requests for p in streaming_client.pull_history
        ]
        # One coordinate; what differs is what each RA can offer a peer: the
        # plain one archived no batch object.
        assert streaming_client.replication_cursor(ca.name) == PERIODS * PER_PERIOD
        assert plain_client.replication_cursor(ca.name) == PERIODS * PER_PERIOD
        for number in range(1, PERIODS * PER_PERIOD, PER_PERIOD):
            assert streaming_client.archived_batch(ca.name, number) is not None
            assert plain_client.archived_batch(ca.name, number) is None
        for a in (plain, streaming):
            a.close()
        ca.close()

    def test_an_archiving_cursor_survives_checkpoint_restore(self, tmp_path):
        config, ca, cdn, attach = build_stack("durable")
        segmented, segment_client = attach("segment-ra", streaming=True)
        drive(ca, steps=[lambda now: segment_client.pull(now=now)])
        assert segment_client.checkpoint(tmp_path) == 1

        fresh, fresh_client = attach("segment-ra", streaming=True)
        assert fresh_client.restore(tmp_path) == 1
        assert fresh_client.replication_cursor(ca.name) == PERIODS * PER_PERIOD
        # nothing new published, so the restored cursor makes syncs no-ops
        result = fresh_client.pull(now=700)
        assert result.issuances_applied == 0
        assert_replicas_identical(ca, segmented, fresh)
        for a in (segmented, fresh):
            a.close()
        ca.close()
