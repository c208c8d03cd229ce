"""Differential oracle for the WAL-segment replication stream.

An RA that learns revocations *only* from the CA's signed WAL segments —
whether fetched CA-direct from the CDN or relayed peer-to-peer by another
RA's archive — must end byte-identical to an RA fed by the ordinary pull
path: same Merkle roots, same signed roots, same freshness statements,
same proofs for present and absent serials.  Every store engine must agree,
and a segment-synced replica must survive a checkpoint/restore round trip
and resume from its size (docs/REPLICATION.md).  Which object the
catch-up walk fetches is the client's ``segment_streaming`` attribute.
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
class TestSegmentSyncMatchesPullPath:
    def test_ca_direct_segments_reach_pull_state(self, engine):
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
            pull.segments_applied for pull in segment_client.pull_history
        )
        assert applied == PERIODS
        for a in (puller, segmented):
            a.close()
        ca.close()

    def test_peer_relayed_segments_reach_pull_state(self, engine):
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
        assert result.segments_from_peer == PERIODS
        assert result.cold_sync_fallbacks == 0
        assert result.segment_bytes_downloaded > 0
        # peer relay never touched the CDN origin on the restored RA's behalf
        assert cdn.origin_bytes_by_source.get("restored-ra", 0) == 0
        assert restored_client.replication_cursor(ca.name) == PERIODS * PER_PERIOD
        for a in (puller, relay, restored):
            a.close()
        ca.close()

    def test_segment_sync_is_idempotent(self, engine):
        config, ca, cdn, attach = build_stack(engine)
        segmented, segment_client = attach("segment-ra", streaming=True)
        drive(ca, steps=[lambda now: segment_client.pull(now=now)])

        again = segment_client.pull(now=600)
        assert again.segments_applied == 0
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
        """segment_streaming=True pulls end byte-identical to legacy pulls."""
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
        # the streaming client learned its serials via segments, not batches
        assert (
            sum(p.segments_applied for p in streaming_client.pull_history)
            == PERIODS
        )
        # One coordinate, whichever object got the replica there; what differs
        # is what each RA can offer a peer: the plain one verified no segment.
        assert streaming_client.replication_cursor(ca.name) == PERIODS * PER_PERIOD
        assert plain_client.replication_cursor(ca.name) == PERIODS * PER_PERIOD
        for number in range(1, PERIODS * PER_PERIOD, PER_PERIOD):
            assert streaming_client.archived_segment(ca.name, number) is not None
            assert plain_client.archived_segment(ca.name, number) is None
        for a in (plain, streaming):
            a.close()
        ca.close()

    def test_segment_cursor_survives_checkpoint_restore(self, tmp_path):
        config, ca, cdn, attach = build_stack("durable")
        segmented, segment_client = attach("segment-ra", streaming=True)
        drive(ca, steps=[lambda now: segment_client.pull(now=now)])
        assert segment_client.checkpoint(tmp_path) == 1

        fresh, fresh_client = attach("segment-ra", streaming=True)
        assert fresh_client.restore(tmp_path) == 1
        assert fresh_client.replication_cursor(ca.name) == PERIODS * PER_PERIOD
        # nothing new published, so the restored cursor makes syncs no-ops
        result = fresh_client.pull(now=700)
        assert result.segments_applied == 0
        assert_replicas_identical(ca, segmented, fresh)
        for a in (segmented, fresh):
            a.close()
        ca.close()
