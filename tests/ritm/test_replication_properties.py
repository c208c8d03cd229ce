"""Property-based tests for the WAL-segment replication layer.

The replication stream faces an untrusted network and untrusted peers, so
its invariants must hold for *any* interleaving of loss, reordering,
duplication, tampering, crash points, and equivocating relays — not just
the staged sequences in the differential suite:

* the stream position is monotone, across adversarial syncs and
  crash/restore alike;
* a tampered or mis-signed segment never reaches the replica, whatever
  byte was flipped — the walk rejects it and recovers the honest batch
  through the CA's sync protocol, counted as a resync;
* anti-entropy either converges to the CA's dictionary or degrades to the
  CA sync protocol **explicitly** (``cold_sync_fallbacks``), never silently
  stalls or loops.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.cdn.geography import Region
from repro.crypto.signing import KeyPair
from repro.pki import SerialNumber
from repro.ritm.replication import (
    decode_segment,
    encode_segment,
    segment_path,
    segment_payload,
)
from repro.store import ENGINES
from tests.ritm.conftest import build_stack

ATTACKER = KeyPair.generate(b"replication-prop-attacker")

#: Small batch counts keep examples fast while still exercising multi-leaf
#: segments and multi-segment streams.
batch_sizes = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5)

#: What an adversarial peer may do to one relayed segment.
actions = st.sampled_from(["serve", "drop", "stale", "skip", "tamper"])

#: Invariants must hold under every store engine, so examples draw one.
engines = st.sampled_from(sorted(ENGINES))


def revoke_batches(ca, sizes, start=120, base=1000):
    """One revocation batch (= one WAL segment) per entry of ``sizes``."""
    serial = base
    for period, size in enumerate(sizes):
        ca.revoke(
            [SerialNumber(serial + offset) for offset in range(size)],
            now=start + period * 10,
        )
        serial += size


def flip_byte(raw: bytes, index: int) -> bytes:
    """``raw`` with the byte at ``index`` inverted."""
    return raw[:index] + bytes([raw[index] ^ 0xFF]) + raw[index + 1 :]


class AdversarialPeer:
    """A peer relay that mangles its archive per a segment-number plan."""

    def __init__(self, client, ca_name, plan):
        self._client = client
        self._ca = ca_name
        self._plan = plan
        self.location = client.location

    def replication_cursor(self, ca_name):
        return self._client.replication_cursor(ca_name)

    def archived_segment(self, ca_name, number):
        raw = self._client.archived_segment(ca_name, number)
        action = self._plan.get(number, "serve")
        if action == "drop":
            return None
        if action == "stale":
            return self._client.archived_segment(ca_name, 1)
        if action == "skip":
            return self._client.archived_segment(ca_name, number + 1)
        if action == "tamper" and raw is not None:
            return flip_byte(raw, len(raw) // 2)
        return raw


class EquivocatingPeer(AdversarialPeer):
    """A relay that re-signs segments under its own (wrong) key — over
    exactly the bytes the CA signs, so only the key is wrong."""

    def __init__(self, client, ca_name, forge_from):
        super().__init__(client, ca_name, plan={})
        self._forge_from = forge_from

    def archived_segment(self, ca_name, number):
        raw = self._client.archived_segment(ca_name, number)
        if raw is None or number < self._forge_from:
            return raw
        segment = decode_segment(raw)
        forged = replace(
            segment, signature=ATTACKER.sign(segment_payload(segment))
        )
        return encode_segment(forged)


@settings(max_examples=25, deadline=None)
@given(engine=engines, sizes=batch_sizes, data=st.data())
def test_adversarial_peer_converges_or_degrades_explicitly(engine, sizes, data):
    """For any loss/reorder/duplication/tamper plan: the cursor is monotone,
    the replica converges to the CA's dictionary, and any shortfall against
    the peer's claimed cursor is flagged as an explicit cold-sync fallback."""
    config, ca, cdn, attach = build_stack(engine)
    reference, reference_client = attach("reference-ra")
    relay, relay_client = attach("relay-ra", Region.UNITED_STATES, streaming=True)
    victim, victim_client = attach("victim-ra", Region.UNITED_STATES)

    revoke_batches(ca, sizes)
    reference_client.pull(now=400)
    relay_client.pull(now=400)
    total = len(sizes)
    plan = {
        number: data.draw(actions, label=f"segment {number}")
        for number in range(1, total + 1)
    }

    peer = AdversarialPeer(relay_client, ca.name, plan)
    result = victim_client.sync_from_peer(peer, now=410)

    cursor = victim_client.replication_cursor(ca.name)
    assert 0 <= cursor <= total
    if cursor < total:
        # never a silent stall: shortfall must be an explicit fallback
        assert result.cold_sync_fallbacks == 1
    else:
        assert result.cold_sync_fallbacks == 0
    # converged either way (peer relay or explicit CA cold sync)
    ref = reference.replica_for(ca.name)
    got = victim.replica_for(ca.name)
    assert got.size == ref.size
    assert got.root() == ref.root()
    for a in (reference, relay, victim):
        a.close()
    ca.close()


@settings(max_examples=25, deadline=None)
@given(engine=engines, sizes=batch_sizes, data=st.data())
def test_tampered_segment_never_reaches_replica(engine, sizes, data):
    """Whatever byte is flipped in a published segment, it is rejected and
    never archived; the same cycle recovers the honest batch through the
    sync protocol, explicitly."""
    config, ca, cdn, attach = build_stack(engine)
    segmented, segment_client = attach("segment-ra", streaming=True)
    revoke_batches(ca, sizes)
    segment_client.pull(now=400)

    # one more batch, tampered at the origin before the RA sees it
    ca.revoke([SerialNumber(999)], now=500)
    path = segment_path(ca.name, len(sizes) + 1)
    raw = cdn.origin.fetch(path).content
    index = data.draw(
        st.integers(min_value=0, max_value=len(raw) - 1), label="flip index"
    )
    cdn.origin.publish(path, flip_byte(raw, index), now=500)

    replica = segmented.replica_for(ca.name)
    result = segment_client.pull(now=510)
    assert result.segments_rejected == 1
    assert result.segments_applied == 0
    assert result.errors
    assert result.resyncs == 1
    assert segment_client.archived_segment(ca.name, len(sizes) + 1) is None
    assert replica.size == ca.dictionary.size
    assert replica.root() == ca.dictionary.root()
    assert replica.signed_root == ca.dictionary.signed_root
    assert segment_client.replication_cursor(ca.name) == len(sizes) + 1
    segmented.close()
    ca.close()


@settings(max_examples=20, deadline=None)
@given(engine=engines, before_crash=batch_sizes, after_crash=batch_sizes)
def test_mid_stream_crash_restore_keeps_cursor_monotone(
    engine, before_crash, after_crash, tmp_path_factory
):
    """Checkpoint mid-stream, lose the process, restore, keep syncing: the
    cursor resumes exactly where the checkpoint left it and the replica
    converges on the full stream."""
    tmp_path = tmp_path_factory.mktemp("segckpt")
    config, ca, cdn, attach = build_stack(engine)
    segmented, segment_client = attach("segment-ra", streaming=True)

    revoke_batches(ca, before_crash, start=120)
    segment_client.pull(now=300)
    checkpoint_cursor = segment_client.replication_cursor(ca.name)
    assert checkpoint_cursor == len(before_crash)
    assert segment_client.checkpoint(tmp_path) == 1

    revoke_batches(ca, after_crash, start=400, base=5000)
    segmented.close()

    restored, restored_client = attach("segment-ra", streaming=True)
    assert restored_client.restore(tmp_path) == 1
    assert restored_client.replication_cursor(ca.name) == checkpoint_cursor
    restored_client.pull(now=600)
    total = len(before_crash) + len(after_crash)
    assert restored_client.replication_cursor(ca.name) == total
    assert restored.replica_for(ca.name).size == sum(before_crash) + sum(
        after_crash
    )
    restored.close()
    ca.close()


@settings(max_examples=20, deadline=None)
@given(engine=engines, sizes=batch_sizes, data=st.data())
def test_equivocating_relay_is_rejected_and_fallback_is_explicit(engine, sizes, data):
    """A peer re-signing segments under its own key never gets a forged
    segment applied or archived; the victim degrades to an explicit CA cold
    sync and still converges."""
    config, ca, cdn, attach = build_stack(engine)
    reference, reference_client = attach("reference-ra")
    relay, relay_client = attach("relay-ra", Region.UNITED_STATES, streaming=True)
    victim, victim_client = attach("victim-ra", Region.UNITED_STATES)

    revoke_batches(ca, sizes)
    reference_client.pull(now=400)
    relay_client.pull(now=400)
    total = len(sizes)
    forge_from = data.draw(
        st.integers(min_value=1, max_value=total), label="forge from"
    )

    peer = EquivocatingPeer(relay_client, ca.name, forge_from)
    result = victim_client.sync_from_peer(peer, now=410)

    assert result.segments_rejected == 1
    assert result.cold_sync_fallbacks == 1
    cursor = victim_client.replication_cursor(ca.name)
    assert cursor == forge_from - 1
    # the forged segment was never archived for onward relay
    assert victim_client.archived_segment(ca.name, forge_from) is None
    ref = reference.replica_for(ca.name)
    got = victim.replica_for(ca.name)
    assert got.size == ref.size
    assert got.root() == ref.root()
    for a in (reference, relay, victim):
        a.close()
    ca.close()
