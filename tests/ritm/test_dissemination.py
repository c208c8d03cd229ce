"""Tests for the RA's Δ-periodic pull from the dissemination network."""

import pytest

from repro.cdn.geography import GeoLocation, Region
from repro.ritm.agent import RevocationAgent
from repro.ritm.dissemination import attach_agent_to_cas, total_pulls

from tests.ritm.conftest import EPOCH, build_stack, build_world, oversized_key_chain


class TestInitialSync:
    def test_initial_pull_installs_roots_for_every_ca(self, world):
        for ca in world.cas:
            replica = world.agent.replica_for(ca.name)
            assert replica is not None
            assert replica.signed_root is not None
            assert replica.size == 0

    def test_pull_records_history_and_bytes(self, world):
        result = world.pull(now=EPOCH + 20)
        assert result.bytes_downloaded > 0
        assert result.heads_checked == len(world.cas)
        assert result.errors == []
        assert total_pulls(world.dissemination.pull_history).bytes_downloaded > 0

    def test_pull_latency_is_subsecond(self, world):
        result = world.pull(now=EPOCH + 20)
        # The paper's Fig. 5 claim: dissemination completes within seconds.
        assert result.latency_seconds < 2.0


class TestOneErrorBoundary:
    """A malformed head object for CA *A* is recorded, never raised: CA *B*
    still applies its freshness in the same pull (the RA trusts nothing it
    relays, so nothing it relays may stop it)."""

    @pytest.mark.parametrize("damage", ["truncated", "invalid-utf8-name"])
    def test_bad_head_of_one_ca_does_not_abort_the_cycle(self, world, damage):
        from repro.ritm.ca_service import head_path

        broken, healthy = world.cas[0], world.cas[1:]
        for ca in world.cas:
            ca.refresh(now=EPOCH + 20)
        honest = world.cdn.origin.fetch(head_path(broken.name)).content
        bad = honest[: len(honest) // 2] if damage == "truncated" else (
            honest[:2] + b"\xff" + honest[3:]
        )
        world.cdn.publish(head_path(broken.name), bad, EPOCH + 20)
        stale = world.agent.replica_for(broken.name).latest_freshness

        result = world.pull(now=EPOCH + 21)

        assert len(result.errors) == 1 and result.errors[0].startswith(broken.name)
        assert result.heads_checked == len(world.cas)
        assert result.freshness_applied == len(healthy)
        for ca in healthy:
            replica = world.agent.replica_for(ca.name)
            assert replica.latest_freshness == ca.dictionary.latest_freshness
        assert world.agent.replica_for(broken.name).latest_freshness == stale
        # the next honest publication heals it
        broken.refresh(now=EPOCH + 30)
        assert world.pull(now=EPOCH + 31).errors == []

    @pytest.mark.parametrize("streaming", [False, True])
    def test_malformed_serial_in_one_cas_batch_object(self, world, streaming):
        """A CDN rewrites one serial of CA A's batch object into bytes that
        are no serial encoding — a zero-length serial in the issuance
        object, or in the issuance object a segment embeds (its length field
        and the frame CRC recomputed, the signature untouched).  That is a
        malformed message, not a crash: it is recorded, A recovers through
        the sync protocol, and B is pulled as if nothing happened."""
        import struct
        import zlib

        from repro.pki.serial import SerialNumber
        from repro.ritm.ca_service import issuance_path
        from repro.ritm.replication import SEGMENT_MAGIC, segment_path

        broken, healthy = world.cas[0], world.cas[1]
        broken.revoke([SerialNumber(0x0A0B0C), SerialNumber(0x0A0B0D)], now=EPOCH + 20)
        healthy.revoke([SerialNumber(0x0B0B0C)], now=EPOCH + 20)

        def blank_first_serial(issuance: bytes) -> bytes:
            first_serial = 2 + len(broken.name.encode("utf-8")) + 10
            return issuance[:first_serial] + b"\x00\x00" + issuance[first_serial + 2 + 3 :]

        if streaming:
            path = segment_path(broken.name, 1)
            honest = world.cdn.origin.fetch(path).content
            start = len(SEGMENT_MAGIC) + 8 + 4  # segment number, issuance length
            (length,) = struct.unpack_from(">I", honest, start - 4)
            issuance = blank_first_serial(honest[start : start + length])
            body = (
                honest[: start - 4]
                + struct.pack(">I", len(issuance))
                + issuance
                + honest[start + length : -4]
            )
            bad = body + struct.pack(">I", zlib.crc32(body))
        else:
            path = issuance_path(broken.name, 1)
            bad = blank_first_serial(world.cdn.origin.fetch(path).content)
        world.cdn.publish(path, bad, EPOCH + 20)

        fresh = RevocationAgent("fresh-ra", world.config)
        client = attach_agent_to_cas(
            fresh, world.cas, world.cdn, GeoLocation(Region.EUROPE)
        )
        client.segment_streaming = streaming
        result = client.pull(now=EPOCH + 25)

        assert len(result.errors) == 1
        assert result.errors[0].startswith(broken.name)
        assert "malformed serial" in result.errors[0]
        assert result.segments_rejected == (1 if streaming else 0)
        assert result.resyncs == 1
        for ca in (broken, healthy):
            replica = fresh.replica_for(ca.name)
            assert replica.size == ca.dictionary.size > 0
            assert replica.root() == ca.dictionary.root()
            assert replica.latest_freshness == ca.dictionary.latest_freshness

    def test_oversized_field_in_a_forged_key_chain_is_a_recorded_error(self):
        """A head whose signature fails sends the RA to the CA's key chain.
        A chain whose rotation link holds a value its signed payload cannot
        encode is a malformed object, like any other: the chain's error and
        the head's are recorded, no rotation is learned, the replica is
        untouched — the pull loop does not crash."""
        from dataclasses import replace

        from repro.ritm.ca_service import head_path, keys_path
        from repro.ritm.messages import decode_head, encode_head

        _, ca, cdn, attach = build_stack()
        agent, client = attach("forged-keys-ra")
        client.pull(now=101)
        replica = agent.replica_for(ca.name)
        root = replica.signed_root
        ca.refresh(now=110)
        head = decode_head(cdn.origin.fetch(head_path(ca.name)).content)
        restamped = replace(head.signed_root, timestamp=head.signed_root.timestamp + 1)
        cdn.publish(head_path(ca.name), encode_head(replace(head, signed_root=restamped)), 110)
        cdn.publish(keys_path(ca.name), oversized_key_chain(ca), 110)

        result = client.pull(now=111)

        chain_error, head_error = result.errors
        assert "malformed key announcement chain" in chain_error
        assert "failed verification" in head_error
        assert result.key_rotations_applied == 0
        assert replica.signed_root == root
        assert agent.keyring_for(ca.name).key_epoch == 0


class TestRevocationPropagation:
    def test_new_revocation_reaches_replica_on_next_pull(self, world):
        issuing = world.ca_by_name(world.corpus.chains[0].leaf.issuer)
        serial = world.corpus.chains[0].leaf.serial
        issuing.revoke([serial], now=EPOCH + 20)
        replica = world.agent.replica_for(issuing.name)
        assert not replica.contains(serial)
        result = world.pull(now=EPOCH + 25)
        assert result.issuances_applied == 1
        assert result.serials_applied == 1
        assert replica.contains(serial)
        assert replica.root() == issuing.dictionary.root()

    def test_multiple_batches_applied_in_order(self, world):
        issuing = world.ca_by_name(world.corpus.chains[0].leaf.issuer)
        serials = [chain.leaf.serial for chain in world.corpus.chains_by_ca[issuing.name]]
        issuing.revoke([serials[0]], now=EPOCH + 20)
        issuing.revoke([serials[1]], now=EPOCH + 30)
        world.pull(now=EPOCH + 35)
        replica = world.agent.replica_for(issuing.name)
        assert replica.size == 2
        assert replica.revocation_number(serials[0]) == 1
        assert replica.revocation_number(serials[1]) == 2

    def test_freshness_applied_every_pull(self, world):
        ca = world.cas[0]
        ca.refresh(now=EPOCH + 20)
        result = world.pull(now=EPOCH + 21)
        assert result.freshness_applied == len(world.cas)
        replica = world.agent.replica_for(ca.name)
        assert replica.latest_freshness is not None

    def test_periodic_pull_keeps_statuses_fresh(self, world):
        from repro.pki.serial import SerialNumber

        issuing = world.cas[0]
        now = EPOCH + 20
        for step in range(5):
            issuing.refresh(now=now)
            world.pull(now=now + 1)
            replica = world.agent.replica_for(issuing.name)
            status = replica.prove(SerialNumber(123))
            status.verify(issuing.public_key, now=int(now + 2), delta=world.config.delta_seconds)
            now += world.config.delta_seconds


class TestRecovery:
    def test_cold_agent_catches_up_via_issuance_objects(self, world):
        issuing = world.ca_by_name(world.corpus.chains[0].leaf.issuer)
        serials = [chain.leaf.serial for chain in world.corpus.chains_by_ca[issuing.name]]
        issuing.revoke([serials[0]], now=EPOCH + 20)
        issuing.revoke([serials[1]], now=EPOCH + 30)

        late_agent = RevocationAgent("late-ra", world.config)
        late_dissemination = attach_agent_to_cas(
            late_agent, world.cas, world.cdn, GeoLocation(Region.INDIA)
        )
        result = late_dissemination.pull(now=EPOCH + 40)
        assert result.serials_applied == 2
        assert late_agent.replica_for(issuing.name).size == 2

    def test_missing_batches_trigger_sync_fallback(self, world):
        issuing = world.ca_by_name(world.corpus.chains[0].leaf.issuer)
        serials = [chain.leaf.serial for chain in world.corpus.chains_by_ca[issuing.name]]
        issuing.revoke([serials[0]], now=EPOCH + 20)
        issuing.revoke([serials[1]], now=EPOCH + 30)
        # Simulate the CDN purging the first batch before a cold RA arrives.
        from repro.ritm.ca_service import issuance_path

        world.cdn.origin._objects.pop(issuance_path(issuing.name, 1))

        cold_agent = RevocationAgent("cold-ra", world.config)
        cold_dissemination = attach_agent_to_cas(
            cold_agent, world.cas, world.cdn, GeoLocation(Region.JAPAN)
        )
        result = cold_dissemination.pull(now=EPOCH + 40)
        assert result.resyncs >= 1
        assert cold_agent.replica_for(issuing.name).size == 2

    def test_desync_without_sync_server_reports_error(self, world):
        issuing = world.ca_by_name(world.corpus.chains[0].leaf.issuer)
        serial = world.corpus.chains[0].leaf.serial
        issuing.revoke([serial], now=EPOCH + 20)
        from repro.ritm.ca_service import issuance_path

        world.cdn.origin._objects.pop(issuance_path(issuing.name, 1))

        isolated_agent = RevocationAgent("isolated-ra", world.config)
        isolated_agent.register_ca(issuing.name, issuing.public_key)
        from repro.ritm.dissemination import RADisseminationClient

        client = RADisseminationClient(
            isolated_agent, world.cdn, GeoLocation(Region.EUROPE)
        )
        result = client.pull(now=EPOCH + 40)
        assert any("no sync server" in error for error in result.errors)


class TestTamperedObjectRecovery:
    """A malicious CDN/edge must cost one resync, never a bricked replica."""

    @staticmethod
    def _tamper(world, issuing, mutate):
        from dataclasses import replace

        from repro.ritm.ca_service import issuance_path
        from repro.ritm.messages import decode_issuance, encode_issuance

        path = issuance_path(issuing.name, issuing.issuance_count())
        stored = world.cdn.origin._objects[path]
        issuance = decode_issuance(stored.content)
        world.cdn.origin._objects[path] = replace(
            stored, content=encode_issuance(mutate(issuance))
        )

    def test_tampered_serials_roll_back_and_resync(self, world):
        from dataclasses import replace

        from repro.pki.serial import SerialNumber

        issuing = world.ca_by_name(world.corpus.chains[0].leaf.issuer)
        serial = world.corpus.chains[0].leaf.serial
        issuing.revoke([serial], now=EPOCH + 20)
        self._tamper(
            world, issuing, lambda iss: replace(iss, serials=(SerialNumber(0xEEEEEE),))
        )

        result = world.pull(now=EPOCH + 40)
        replica = world.agent.replica_for(issuing.name)
        assert result.resyncs >= 1
        assert any("root does not match" in error for error in result.errors)
        assert not replica.contains(SerialNumber(0xEEEEEE))
        assert replica.contains(serial)
        assert replica.root() == issuing.dictionary.root()

    @pytest.mark.parametrize("tampered", [False, True], ids=["clean", "forced-resync"])
    def test_bytes_downloaded_is_exactly_the_bytes_fetched_and_served(
        self, world, monkeypatch, tampered
    ):
        """One currency: every CDN fetch's wire bytes plus every sync
        response's codec length, nothing estimated."""
        from dataclasses import replace

        from repro.pki.serial import SerialNumber
        from repro.ritm.messages import encode_sync_response

        issuing = world.ca_by_name(world.corpus.chains[0].leaf.issuer)
        issuing.revoke([SerialNumber(n) for n in range(500, 540)], now=EPOCH + 20)
        if tampered:
            self._tamper(
                world, issuing, lambda iss: replace(iss, serials=iss.serials[:-1])
            )
        moved = []
        download = world.cdn.download

        def counted_download(*args, **kwargs):
            result = download(*args, **kwargs)
            moved.append(result.bytes_on_wire)
            return result

        monkeypatch.setattr(world.cdn, "download", counted_download)
        for ca in world.cas:
            serve = ca.sync_server.serve

            def counted_serve(request, serve=serve):
                response = serve(request)
                moved.append(len(encode_sync_response(response)))
                return response

            monkeypatch.setattr(ca.sync_server, "serve", counted_serve)

        result = world.pull(now=EPOCH + 40)
        assert result.resyncs == (1 if tampered else 0)
        assert result.serials_applied == 40
        assert result.bytes_downloaded == sum(moved)

    def test_segment_with_a_swapped_serial_never_reaches_the_store(self, world, monkeypatch):
        """A CDN swaps one serial of a segment for another valid serial and
        fixes the checksum.  The CA's signature covers every serial, so the
        walk rejects the segment before the replica's store is called: one
        rejected segment, one resync, and the resync's one ``insert_batch``
        is the only store mutation — no insert and rollback of the forgery."""
        from dataclasses import replace

        from repro.pki.serial import SerialNumber
        from repro.ritm import dissemination
        from repro.ritm.replication import decode_segment, encode_segment, segment_path

        issuing = world.ca_by_name(world.corpus.chains[0].leaf.issuer)
        honest = (SerialNumber(0x0A0B0C), SerialNumber(0x0A0B0D))
        issuing.revoke(list(honest), now=EPOCH + 20)
        path = segment_path(issuing.name, issuing.issuance_count())
        segment = decode_segment(world.cdn.origin.fetch(path).content)
        swapped = replace(segment.issuance, serials=(SerialNumber(0xEEEEEE),) + honest[1:])
        world.cdn.publish(path, encode_segment(replace(segment, issuance=swapped)), EPOCH + 20)

        calls = []
        store = world.agent.replica_for(issuing.name)._tree
        for method in ("insert_batch", "remove_batch"):

            def logged(*args, _method=method, _original=getattr(store, method)):
                calls.append(_method)
                return _original(*args)

            monkeypatch.setattr(store, method, logged)
        resynchronize = dissemination.resynchronize

        def logged_resync(*args):
            calls.append("resync")
            return resynchronize(*args)

        monkeypatch.setattr(dissemination, "resynchronize", logged_resync)
        world.dissemination.segment_streaming = True
        result = world.pull(now=EPOCH + 25)

        assert result.segments_rejected == 1
        assert result.resyncs == 1
        assert calls == ["resync", "insert_batch"]
        assert any("not signed by an acceptable CA key" in error for error in result.errors)
        replica = world.agent.replica_for(issuing.name)
        assert all(replica.contains(serial) for serial in honest)
        assert not replica.contains(SerialNumber(0xEEEEEE))
        assert replica.root() == issuing.dictionary.root()

    def test_forged_signature_recorded_and_resynced_without_aborting_pull(self, world):
        from dataclasses import replace

        issuing = world.ca_by_name(world.corpus.chains[0].leaf.issuer)
        serial = world.corpus.chains[0].leaf.serial
        issuing.revoke([serial], now=EPOCH + 20)
        self._tamper(
            world,
            issuing,
            lambda iss: replace(
                iss, signed_root=replace(iss.signed_root, signature=b"\x00" * 64)
            ),
        )

        result = world.pull(now=EPOCH + 40)
        replica = world.agent.replica_for(issuing.name)
        # The forged batch is reported, the replica recovers via sync, and
        # every other CA's head was still checked in the same cycle.
        assert any("signature" in error for error in result.errors)
        assert result.heads_checked == len(world.cas)
        assert result.resyncs >= 1
        assert replica.contains(serial)
        assert replica.root() == issuing.dictionary.root()

    def test_transient_tamper_without_sync_server_self_heals(self, world):
        """A batch that failed to apply must be refetched once the CDN heals."""
        from dataclasses import replace

        from repro.pki.serial import SerialNumber
        from repro.ritm.ca_service import issuance_path
        from repro.ritm.dissemination import RADisseminationClient

        issuing = world.ca_by_name(world.corpus.chains[0].leaf.issuer)
        serial = world.corpus.chains[0].leaf.serial

        lonely_agent = RevocationAgent("lonely-ra", world.config)
        lonely_agent.register_ca(issuing.name, issuing.public_key)
        client = RADisseminationClient(
            lonely_agent, world.cdn, GeoLocation(Region.EUROPE)
        )
        client.pull(now=EPOCH + 10)  # bootstrap the signed root

        issuing.revoke([serial], now=EPOCH + 20)
        path = issuance_path(issuing.name, issuing.issuance_count())
        honest_object = world.cdn.origin._objects[path]
        self._tamper(
            world, issuing, lambda iss: replace(iss, serials=(SerialNumber(0xEEEEEE),))
        )

        bad_pull = client.pull(now=EPOCH + 40)
        replica = lonely_agent.replica_for(issuing.name)
        assert any("root does not match" in error for error in bad_pull.errors)
        assert replica.size == 0  # rolled back, nothing bogus retained

        # CDN heals: the same batch object is honest again.
        world.cdn.origin._objects[path] = honest_object
        good_pull = client.pull(now=EPOCH + 50)
        assert good_pull.errors == []
        assert good_pull.serials_applied == 1
        assert replica.contains(serial)
        assert replica.root() == issuing.dictionary.root()
