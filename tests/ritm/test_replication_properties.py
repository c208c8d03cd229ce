"""Property-based tests for the batch-object replication layer.

The replication stream faces an untrusted network and untrusted peers, so
its invariants must hold for *any* interleaving of loss, reordering,
duplication, tampering, crash points, and equivocating relays — not just
the staged sequences in the differential suite:

* a replica's size — its place in the stream, the address of the batch it
  reads next less one — is monotone, across adversarial syncs and
  crash/restore alike;
* a tampered batch object never changes the replica's verified state,
  whatever byte was flipped — the decoder, the address check or the root
  check in ``update_many`` rejects it, and the walk recovers the honest
  batch through the CA's sync protocol, counted as a resync;
* anti-entropy either converges to the CA's dictionary or degrades to the
  CA sync protocol **explicitly** (``cold_sync_fallbacks``), never silently
  stalls or loops.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.cdn.geography import Region
from repro.crypto.signing import KeyPair
from repro.pki import SerialNumber
from repro.ritm.ca_service import issuance_path
from repro.ritm.replication import decode_segment, encode_segment
from repro.store import ENGINES
from tests.ritm.conftest import build_stack

ATTACKER = KeyPair.generate(b"replication-prop-attacker")

#: Small batch counts keep examples fast while still exercising multi-leaf
#: batches and multi-batch streams.
batch_sizes = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5)

#: What an adversarial peer may do to one relayed batch object.
actions = st.sampled_from(["serve", "drop", "stale", "skip", "tamper"])

#: Invariants must hold under every store engine, so examples draw one.
engines = st.sampled_from(sorted(ENGINES))


def revoke_batches(ca, sizes, start=120, base=1000):
    """One revocation batch (= one batch object) per entry of ``sizes``;
    returns their addresses (first serial numbers)."""
    serial = base
    addresses = []
    for period, size in enumerate(sizes):
        issuance = ca.revoke(
            [SerialNumber(serial + offset) for offset in range(size)],
            now=start + period * 10,
        )
        addresses.append(issuance.first_number)
        serial += size
    return addresses


def flip_byte(raw: bytes, index: int) -> bytes:
    """``raw`` with the byte at ``index`` inverted."""
    return raw[:index] + bytes([raw[index] ^ 0xFF]) + raw[index + 1 :]


class AdversarialPeer:
    """A peer relay that mangles its archive per a plan keyed by address."""

    def __init__(self, client, ca_name, plan, addresses=()):
        self._client = client
        self._ca = ca_name
        self._plan = plan
        self._next = dict(zip(addresses, addresses[1:]))
        self.location = client.location

    def replication_cursor(self, ca_name):
        return self._client.replication_cursor(ca_name)

    def archived_batch(self, ca_name, number):
        raw = self._client.archived_batch(ca_name, number)
        action = self._plan.get(number, "serve")
        if action == "drop":
            return None
        if action == "stale":
            return self._client.archived_batch(ca_name, 1)
        if action == "skip":
            return self._client.archived_batch(ca_name, self._next.get(number, 0))
        if action == "tamper" and raw is not None:
            return flip_byte(raw, len(raw) // 2)
        return raw


class EquivocatingPeer(AdversarialPeer):
    """A relay that re-signs each batch's root under its own (wrong) key —
    over exactly the fields the CA signs, so only the key is wrong."""

    def __init__(self, client, ca_name, forge_from):
        super().__init__(client, ca_name, plan={})
        self._forge_from = forge_from  # an address

    def archived_batch(self, ca_name, number):
        raw = self._client.archived_batch(ca_name, number)
        if raw is None or number < self._forge_from:
            return raw
        batch = decode_segment(raw)
        root = batch.signed_root.sign(ATTACKER.private)
        return encode_segment(replace(batch, signed_root=root))


@settings(max_examples=25, deadline=None)
@given(engine=engines, sizes=batch_sizes, data=st.data())
def test_adversarial_peer_converges_or_degrades_explicitly(engine, sizes, data):
    """For any loss/reorder/duplication/tamper plan: the cursor is monotone,
    the replica converges to the CA's dictionary, and any batch the peer
    could not relay is flagged as an explicit cold-sync fallback."""
    config, ca, cdn, attach = build_stack(engine)
    reference, reference_client = attach("reference-ra")
    relay, relay_client = attach("relay-ra", Region.UNITED_STATES, streaming=True)
    victim, victim_client = attach("victim-ra", Region.UNITED_STATES)

    addresses = revoke_batches(ca, sizes)
    reference_client.pull(now=400)
    relay_client.pull(now=400)
    total = len(sizes)
    plan = {
        number: data.draw(actions, label=f"batch at {number}")
        for number in addresses
    }

    peer = AdversarialPeer(relay_client, ca.name, plan, addresses)
    result = victim_client.sync_from_peer(peer, now=410)

    assert victim_client.replication_cursor(ca.name) == sum(sizes)
    if result.batches_from_peer < total:
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
def test_tampered_batch_object_never_reaches_replica(engine, sizes, data):
    """Whatever byte is flipped in a published batch object, the batch is
    rejected and never archived, and the same cycle recovers the honest
    batch through the sync protocol, explicitly.  The object is the batch
    alone, so no flip leaves it applicable."""
    config, ca, cdn, attach = build_stack(engine)
    archiving, archive_client = attach("archive-ra", streaming=True)
    revoke_batches(ca, sizes)
    archive_client.pull(now=400)

    # one more batch, tampered at the origin before the RA sees it; the
    # refresh leaves the per-Δ object a bare statement, so the walk fetches
    # the batch object (test_dissemination.py::TestOneGetPerDelta tampers
    # the per-Δ copy)
    ca.revoke([SerialNumber(999)], now=500)
    ca.refresh(now=501)
    address = sum(sizes) + 1
    path = issuance_path(ca.name, address)
    raw = cdn.origin.fetch(path).content
    index = data.draw(
        st.integers(min_value=0, max_value=len(raw) - 1), label="flip index"
    )
    tampered = flip_byte(raw, index)
    cdn.origin.publish(path, tampered, now=501)

    replica = archiving.replica_for(ca.name)
    result = archive_client.pull(now=510)
    assert result.batches_rejected == 1
    assert result.issuances_applied == 0
    assert result.errors
    assert result.resyncs == 1
    assert archive_client.archived_batch(ca.name, address) is None
    assert replica.size == ca.dictionary.size
    assert replica.root() == ca.dictionary.root()
    assert replica.signed_root == ca.dictionary.signed_root
    assert archive_client.replication_cursor(ca.name) == address
    archiving.close()
    ca.close()


@settings(max_examples=20, deadline=None)
@given(engine=engines, before_crash=batch_sizes, after_crash=batch_sizes)
def test_mid_stream_crash_restore_keeps_cursor_monotone(
    engine, before_crash, after_crash, tmp_path_factory
):
    """Checkpoint mid-stream, lose the process, restore, keep syncing: the
    cursor resumes exactly where the checkpoint left it and the replica
    converges on the full stream."""
    tmp_path = tmp_path_factory.mktemp("batchckpt")
    config, ca, cdn, attach = build_stack(engine)
    archiving, archive_client = attach("archive-ra", streaming=True)

    revoke_batches(ca, before_crash, start=120)
    archive_client.pull(now=300)
    checkpoint_cursor = archive_client.replication_cursor(ca.name)
    assert checkpoint_cursor == sum(before_crash)
    assert archive_client.checkpoint(tmp_path) == 1

    revoke_batches(ca, after_crash, start=400, base=5000)
    archiving.close()

    restored, restored_client = attach("archive-ra", streaming=True)
    assert restored_client.restore(tmp_path) == 1
    assert restored_client.replication_cursor(ca.name) == checkpoint_cursor
    restored_client.pull(now=600)
    total = sum(before_crash) + sum(after_crash)
    assert restored_client.replication_cursor(ca.name) == total
    assert restored.replica_for(ca.name).size == total
    restored.close()
    ca.close()


@settings(max_examples=20, deadline=None)
@given(engine=engines, sizes=batch_sizes, data=st.data())
def test_equivocating_relay_is_rejected_and_fallback_is_explicit(engine, sizes, data):
    """A peer re-signing batch roots under its own key never gets a forged
    batch applied or archived: the walk's batches are one transaction, so
    the forgery rejects the whole run and the victim degrades to an
    explicit CA cold sync, and still converges."""
    config, ca, cdn, attach = build_stack(engine)
    reference, reference_client = attach("reference-ra")
    relay, relay_client = attach("relay-ra", Region.UNITED_STATES, streaming=True)
    victim, victim_client = attach("victim-ra", Region.UNITED_STATES)

    addresses = revoke_batches(ca, sizes)
    reference_client.pull(now=400)
    relay_client.pull(now=400)
    forged = data.draw(st.integers(min_value=0, max_value=len(sizes) - 1), label="forge from")
    forge_from = addresses[forged]

    peer = EquivocatingPeer(relay_client, ca.name, forge_from)
    result = victim_client.sync_from_peer(peer, now=410)

    assert result.batches_rejected == 1
    assert result.cold_sync_fallbacks == 1
    assert result.batches_from_peer == 0
    # no relayed batch was archived for onward relay: the resync carried them
    assert victim_client.feeds[ca.name].batches == {}
    ref = reference.replica_for(ca.name)
    got = victim.replica_for(ca.name)
    assert got.size == ref.size
    assert got.root() == ref.root()
    for a in (reference, relay, victim):
        a.close()
    ca.close()
