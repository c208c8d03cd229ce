"""Tests for the RA's Δ-periodic pull from the dissemination network."""

import pytest

from repro.cdn.geography import GeoLocation, Region
from repro.cdn.network import REQUEST_OVERHEAD_BYTES
from repro.ritm.agent import RevocationAgent
from repro.ritm.dissemination import attach_agent_to_cas, total_pulls

from tests.conftest import revocation_number
from tests.ritm.conftest import (
    EPOCH,
    build_stack,
    oversized_key_chain,
    tamper_batch,
)


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
        # An idle poll reads one freshness object per CA and no head.
        assert result.heads_checked == 0
        assert result.requests == len(world.cas)
        assert result.errors == []
        assert total_pulls(world.dissemination.pull_history).bytes_downloaded > 0

    def test_pull_latency_is_subsecond(self, world):
        result = world.pull(now=EPOCH + 20)
        # The paper's Fig. 5 claim: dissemination completes within seconds.
        assert result.latency_seconds < 2.0


class TestOneErrorBoundary:
    """A malformed polled object for CA *A* is recorded, never raised: CA *B*
    still applies its freshness in the same pull (the RA trusts nothing it
    relays, so nothing it relays may stop it)."""

    @pytest.mark.parametrize(
        "polled, damage",
        [
            ("freshness", "empty"),
            ("head", "truncated"),
            ("head", "invalid-utf8-name"),
        ],
    )
    def test_bad_polled_object_of_one_ca_does_not_abort_the_cycle(self, world, polled, damage):
        """``freshness``: the every-Δ object is empty, which no value is, so
        the RA records it and reads that CA's head, whose statement it takes.
        ``head``: every CA's hash chain has run out, so every statement
        links to no root the RA holds and the RA reads each head — one of
        them damaged."""
        from repro.ritm.ca_service import freshness_path, head_path

        broken, healthy = world.cas[0], world.cas[1:]
        # The world's roots are signed at EPOCH + 5 with 64-link chains.
        now = EPOCH + 20 if polled == "freshness" else EPOCH + 5 + 64 * 10
        for ca in world.cas:
            ca.refresh(now=now)
        path = (freshness_path if polled == "freshness" else head_path)(broken.name)
        honest = world.cdn.origin.fetch(path).content
        bad = {
            "empty": b"",
            "truncated": honest[: len(honest) // 2],
            "invalid-utf8-name": honest[:2] + b"\xff" + honest[3:],
        }[damage]
        world.cdn.publish(path, bad, now)
        stale = world.agent.replica_for(broken.name).latest_freshness

        result = world.pull(now=now + 1)

        assert len(result.errors) == 1 and result.errors[0].startswith(broken.name)
        assert result.heads_checked == (1 if polled == "freshness" else len(world.cas))
        assert result.resyncs == 0
        for ca in healthy:
            replica = world.agent.replica_for(ca.name)
            assert replica.latest_freshness == ca.dictionary.latest_freshness
        broken_replica = world.agent.replica_for(broken.name)
        if polled == "freshness":
            assert result.freshness_applied == len(world.cas)
            assert broken_replica.latest_freshness == broken.dictionary.latest_freshness
        else:
            assert result.freshness_applied == len(healthy)
            assert broken_replica.latest_freshness == stale
        # the next honest publication heals it
        broken.refresh(now=now + 10)
        assert world.pull(now=now + 11).errors == []

    def test_a_per_delta_object_past_32_bytes_that_is_no_batch_costs_one_head_get(self, world):
        """Longer than any value, so read as a batch object: one that fails
        to decode is one recorded error and sends the RA to the head, whose
        statement it takes — no rejected batch, no resync — and the other
        CA is pulled as if nothing happened."""
        from repro.ritm.ca_service import freshness_path

        broken, healthy = world.cas[0], world.cas[1:]
        for ca in world.cas:
            ca.refresh(now=EPOCH + 20)
        path = freshness_path(broken.name)
        world.cdn.publish(path, world.cdn.origin.fetch(path).content + bytes(13), EPOCH + 20)

        result = world.pull(now=EPOCH + 21)

        assert len(result.errors) == 1 and result.errors[0].startswith(broken.name)
        assert (result.batches_rejected, result.resyncs, result.heads_checked) == (0, 0, 1)
        assert result.requests == len(world.cas) + 1
        assert result.freshness_applied == len(world.cas)
        replica = world.agent.replica_for(broken.name)
        assert replica.latest_freshness == broken.dictionary.latest_freshness

    @pytest.mark.parametrize("streaming", [False, True])
    def test_malformed_serial_in_one_cas_batch_object(self, world, streaming):
        """A CDN rewrites one serial of CA A's batch object into bytes that
        are no serial encoding: a zero-length serial.  That is a malformed
        message, not a crash: it is recorded, A recovers through the sync
        protocol, and B is pulled as if nothing happened, whether or not
        the RA archives batches."""
        from repro.pki.serial import SerialNumber
        from repro.ritm.ca_service import issuance_path
        from repro.ritm.messages import encode_signed_root

        broken, healthy = world.cas[0], world.cas[1]
        issuance = broken.revoke([SerialNumber(0x0A0B0C), SerialNumber(0x0A0B0D)], now=EPOCH + 20)
        healthy.revoke([SerialNumber(0x0B0B0C)], now=EPOCH + 20)

        path = issuance_path(broken.name, 1)
        honest = world.cdn.origin.fetch(path).content
        first_serial = len(encode_signed_root(issuance.signed_root)) + 4  # after the count
        assert honest[first_serial] == 3
        bad = honest[:first_serial] + b"\x00" + honest[first_serial + 1 + 3 :]
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
        assert result.batches_rejected == 1
        assert result.resyncs == 1
        for ca in (broken, healthy):
            replica = fresh.replica_for(ca.name)
            assert replica.size == ca.dictionary.size > 0
            assert replica.root() == ca.dictionary.root()
            assert replica.latest_freshness == ca.dictionary.latest_freshness

    def test_oversized_field_in_a_forged_key_chain_is_a_recorded_error(self):
        """A freshness statement that links to no held root sends the RA to
        the head; a head whose signature fails sends it to the CA's key chain.
        A chain whose rotation link holds a value its signed payload cannot
        encode is a malformed object, like any other: the chain's error and
        the head's are recorded, no rotation is learned, the replica is
        untouched — the pull loop does not crash."""
        from dataclasses import replace

        from repro.dictionary.freshness import FreshnessStatement
        from repro.ritm.ca_service import freshness_path, head_path, keys_path
        from repro.ritm.messages import decode_head, encode_freshness, encode_head

        _, ca, cdn, attach = build_stack()
        agent, client = attach("forged-keys-ra")
        client.pull(now=101)
        replica = agent.replica_for(ca.name)
        root = replica.signed_root
        ca.refresh(now=110)
        head = decode_head(cdn.origin.fetch(head_path(ca.name)).content)
        restamped = replace(head.signed_root, timestamp=head.signed_root.timestamp + 1)
        cdn.publish(head_path(ca.name), encode_head(replace(head, signed_root=restamped)), 110)
        unlinked = FreshnessStatement(bytes(20))
        cdn.publish(freshness_path(ca.name), encode_freshness(unlinked), 110)
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
        assert revocation_number(replica, serials[0]) == 1
        assert revocation_number(replica, serials[1]) == 2

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
    def _tamper(world, issuance, mutate):
        """Tamper the batch ``issuance`` wherever an RA reads it."""
        return tamper_batch(world.cdn, issuance.ca_name, issuance.first_number, mutate)

    def test_tampered_serials_roll_back_and_resync(self, world):
        from dataclasses import replace

        from repro.pki.serial import SerialNumber

        issuing = world.ca_by_name(world.corpus.chains[0].leaf.issuer)
        serial = world.corpus.chains[0].leaf.serial
        issuance = issuing.revoke([serial], now=EPOCH + 20)
        self._tamper(
            world, issuance, lambda iss: replace(iss, serials=(SerialNumber(0xEEEEEE),))
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
        issuance = issuing.revoke([SerialNumber(n) for n in range(500, 540)], now=EPOCH + 20)
        if tampered:
            # one serial short, so its first number is one more: the walk
            # finds it at the wrong address
            self._tamper(
                world,
                issuance,
                lambda iss: replace(
                    iss, serials=iss.serials[:-1], first_number=iss.first_number + 1
                ),
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

    def test_a_swapped_serial_costs_one_insert_one_rollback_and_one_resync(
        self, world, monkeypatch
    ):
        """A CDN swaps one serial of a batch object for another valid serial.
        The object carries nothing signed but its root, so the replica
        stages the batch, finds the recomputed root is not the signed one
        and rolls it back, then the walk resyncs: one ``insert_batch``, one
        ``remove_batch``, one resync and its one ``insert_batch`` — the
        bounded cost of docs/THREATS.md, never a wrong state."""
        from dataclasses import replace

        from repro.pki.serial import SerialNumber
        from repro.ritm import dissemination

        issuing = world.ca_by_name(world.corpus.chains[0].leaf.issuer)
        honest = (SerialNumber(0x0A0B0C), SerialNumber(0x0A0B0D))
        issuance = issuing.revoke(list(honest), now=EPOCH + 20)
        self._tamper(  # the per-Δ object too
            world,
            issuance,
            lambda iss: replace(iss, serials=(SerialNumber(0xEEEEEE),) + honest[1:]),
        )

        calls = []
        store = world.agent.replica_for(issuing.name)._tree
        for method in ("insert_batch", "remove_batch"):

            def logged(*args, _method=method, _original=getattr(store, method)):
                calls.append(_method)
                return _original(*args)

            monkeypatch.setattr(store, method, logged)
        apply_sync_response = dissemination.apply_sync_response

        def logged_resync(*args):
            calls.append("resync")
            return apply_sync_response(*args)

        monkeypatch.setattr(dissemination, "apply_sync_response", logged_resync)
        result = world.pull(now=EPOCH + 25)

        assert result.batches_rejected == 1
        assert result.resyncs == 1
        assert calls == ["insert_batch", "remove_batch", "resync", "insert_batch"]
        assert any("root does not match" in error for error in result.errors)
        replica = world.agent.replica_for(issuing.name)
        assert all(replica.contains(serial) for serial in honest)
        assert not replica.contains(SerialNumber(0xEEEEEE))
        assert replica.root() == issuing.dictionary.root()

    def test_forged_signature_recorded_and_resynced_without_aborting_pull(self, world):
        from dataclasses import replace

        issuing = world.ca_by_name(world.corpus.chains[0].leaf.issuer)
        serial = world.corpus.chains[0].leaf.serial
        issuance = issuing.revoke([serial], now=EPOCH + 20)
        self._tamper(
            world,
            issuance,
            lambda iss: replace(
                iss, signed_root=replace(iss.signed_root, signature=b"\x00" * 64)
            ),
        )

        result = world.pull(now=EPOCH + 40)
        replica = world.agent.replica_for(issuing.name)
        # The forged batch is reported, the replica recovers via sync, and
        # every CA's freshness statement was still applied in the same cycle.
        assert any("signature" in error for error in result.errors)
        assert result.heads_checked == 0
        assert result.freshness_applied == len(world.cas)
        assert result.resyncs >= 1
        assert replica.contains(serial)
        assert replica.root() == issuing.dictionary.root()

    def test_transient_tamper_without_sync_server_self_heals(self, world):
        """A batch that failed to apply must be refetched once the CDN heals."""
        from dataclasses import replace

        from repro.pki.serial import SerialNumber
        from repro.ritm.dissemination import RADisseminationClient

        issuing = world.ca_by_name(world.corpus.chains[0].leaf.issuer)
        serial = world.corpus.chains[0].leaf.serial

        lonely_agent = RevocationAgent("lonely-ra", world.config)
        lonely_agent.register_ca(issuing.name, issuing.public_key)
        client = RADisseminationClient(
            lonely_agent, world.cdn, GeoLocation(Region.EUROPE)
        )
        client.pull(now=EPOCH + 10)  # bootstrap the signed root

        issuance = issuing.revoke([serial], now=EPOCH + 20)
        honest_objects = self._tamper(
            world, issuance, lambda iss: replace(iss, serials=(SerialNumber(0xEEEEEE),))
        )

        bad_pull = client.pull(now=EPOCH + 40)
        replica = lonely_agent.replica_for(issuing.name)
        assert any("root does not match" in error for error in bad_pull.errors)
        assert replica.size == 0  # rolled back, nothing bogus retained

        # CDN heals: the same batch objects are honest again.
        world.cdn.origin._objects.update(honest_objects)
        good_pull = client.pull(now=EPOCH + 50)
        assert good_pull.errors == []
        assert good_pull.serials_applied == 1
        assert replica.contains(serial)
        assert replica.root() == issuing.dictionary.root()


class TestFreshnessFirstPoll:
    """Exact counts of the every-Δ poll: the per-Δ object, then the batch
    objects before the one it carries when it reports new revocations, and
    the head only when the statement links to no root the replica holds."""

    def _synced(self, streaming=False):
        _, ca, cdn, attach = build_stack()
        agent, client = attach("poll-ra", streaming=streaming)
        bootstrap = client.pull(now=101)
        return ca, cdn, agent, client, bootstrap

    def test_a_bootstrap_fetches_the_head(self):
        ca, _, agent, _, bootstrap = self._synced()
        assert (bootstrap.requests, bootstrap.heads_checked) == (1, 1)
        assert bootstrap.freshness_applied == 1 and not bootstrap.errors
        assert agent.replica_for(ca.name).signed_root == ca.dictionary.signed_root

    def test_an_idle_pull_is_one_freshness_get_and_no_head(self):
        from repro.ritm.messages import encode_freshness

        ca, _, agent, client, _ = self._synced()
        ca.refresh(now=110)
        result = client.pull(now=111)
        statement = ca.dictionary.latest_freshness
        assert (result.requests, result.heads_checked) == (1, 0)
        wire = len(encode_freshness(statement)) + REQUEST_OVERHEAD_BYTES
        assert wire == 20 + REQUEST_OVERHEAD_BYTES
        assert result.bytes_downloaded == wire
        assert result.freshness_applied == 1
        assert result.root_signatures_verified == 0
        assert agent.replica_for(ca.name).latest_freshness == statement

    @pytest.mark.parametrize("streaming", [False, True], ids=["plain", "archiving"])
    def test_an_active_pull_is_the_per_delta_object_plus_the_batches_before_it(
        self, streaming
    ):
        """k batches since the last pull: the per-Δ object carries the last
        one, so the walk fetches k − 1 and the pull is k GETs."""
        from repro.pki.serial import SerialNumber
        from repro.ritm.ca_service import freshness_path, issuance_path

        ca, cdn, agent, client, _ = self._synced(streaming)
        k = 3
        for batch in range(k):
            ca.revoke([SerialNumber(500 + batch)], now=110 + batch)
        result = client.pull(now=115)
        objects = [freshness_path(ca.name)] + [
            issuance_path(ca.name, number) for number in range(1, k)
        ]
        sizes = [
            len(cdn.origin.fetch(path).content) + REQUEST_OVERHEAD_BYTES for path in objects
        ]
        assert (result.requests, result.heads_checked) == (k, 0)
        assert result.bytes_downloaded == sum(sizes)
        assert (result.issuances_applied, result.serials_applied) == (k, k)
        assert result.resyncs == 0 and not result.errors
        replica = agent.replica_for(ca.name)
        assert replica.signed_root == ca.dictionary.signed_root
        assert replica.latest_freshness == ca.dictionary.latest_freshness

    @staticmethod
    def _logged_gets(cdn, monkeypatch):
        """Every path the CDN serves from now on, in order."""
        fetched = []
        download = cdn.download

        def logged(path, *args, **kwargs):
            fetched.append(path)
            return download(path, *args, **kwargs)

        monkeypatch.setattr(cdn, "download", logged)
        return fetched

    @pytest.mark.parametrize("serials", [1, 3])
    def test_a_per_delta_batch_walks_straight_away_with_no_head(self, monkeypatch, serials):
        """The walk's goal is where the per-Δ batch ends, ``first_number
        + len(serials) - 1``: the one GET brings the replica to the CA's
        root, with no head read and nothing fetched past the batch."""
        from repro.pki.serial import SerialNumber
        from repro.ritm.ca_service import freshness_path

        ca, cdn, agent, client, _ = self._synced()
        ca.revoke([SerialNumber(700)], now=105)
        client.pull(now=106)
        issuance = ca.revoke([SerialNumber(800 + n) for n in range(serials)], now=110)
        fetched = self._logged_gets(cdn, monkeypatch)
        result = client.pull(now=111)
        assert fetched == [freshness_path(ca.name)]
        assert (result.requests, result.heads_checked, result.resyncs) == (1, 0, 0)
        assert (result.issuances_applied, result.serials_applied) == (1, serials)
        replica = agent.replica_for(ca.name)
        assert replica.size == issuance.first_number + serials - 1 == 1 + serials
        assert replica.signed_root == ca.dictionary.signed_root
        assert replica.latest_freshness == ca.dictionary.latest_freshness

    @pytest.mark.parametrize("streaming", [False, True], ids=["plain", "archiving"])
    def test_an_idle_statement_after_a_missed_batch_reads_the_head_then_walks(
        self, monkeypatch, streaming
    ):
        """The RA missed the batch Δ; a period later the per-Δ object is a
        bare statement of the root signed after the batch, which links to no
        anchor the replica holds.  So the RA reads the head — one GET — and
        walks from there to the CA's root."""
        from repro.pki.serial import SerialNumber
        from repro.ritm.ca_service import freshness_path, head_path, issuance_path

        ca, cdn, agent, client, _ = self._synced(streaming)
        issuance = ca.revoke([SerialNumber(600), SerialNumber(601)], now=110)
        ca.refresh(now=121)  # the next period: the batch's object is replaced
        fetched = self._logged_gets(cdn, monkeypatch)
        result = client.pull(now=122)
        assert fetched == [
            freshness_path(ca.name),
            head_path(ca.name),
            issuance_path(ca.name, issuance.first_number),
        ]
        assert (result.requests, result.heads_checked) == (3, 1)
        assert (result.issuances_applied, result.serials_applied) == (1, 2)
        assert result.resyncs == 0 and not result.errors
        replica = agent.replica_for(ca.name)
        assert replica.signed_root == ca.dictionary.signed_root
        assert replica.latest_freshness == ca.dictionary.latest_freshness

    def test_another_cas_statement_at_this_cas_path_costs_one_head_get(
        self, world, monkeypatch
    ):
        """A statement names no CA: CA B's, served at CA A's per-Δ path,
        links to no anchor A's replica holds.  The RA reads A's head, which
        leaves A's replica as A's CA left it: one head GET, no store call,
        no error, and no verdict drawn from B's chain."""
        from repro.ritm.ca_service import freshness_path, head_path

        from tests.ritm.test_replica_feed import count_store_calls

        a, b = world.cas[0], world.cas[1]
        now = EPOCH + 20
        for ca in world.cas:
            ca.refresh(now=now)
        foreign = world.cdn.origin.fetch(freshness_path(b.name)).content
        world.cdn.publish(freshness_path(a.name), foreign, now)
        held = world.agent.replica_for(a.name).signed_root
        calls = count_store_calls(monkeypatch)
        fetched = self._logged_gets(world.cdn, monkeypatch)

        result = world.pull(now=now + 1)

        assert [path for path in fetched if "/head" in path] == [head_path(a.name)]
        assert (result.requests, result.heads_checked) == (len(world.cas) + 1, 1)
        assert calls == [] and not result.errors and result.replays_rejected == 0
        replica = world.agent.replica_for(a.name)
        assert replica.signed_root == held == a.dictionary.signed_root
        assert replica.latest_freshness == a.dictionary.latest_freshness
        assert result.freshness_applied == len(world.cas)

    def test_an_exhausted_hash_chain_fetches_the_head_once(self):
        ca, _, agent, client, _ = self._synced()
        exhausted = 100 + ca.config.chain_length * ca.config.delta_seconds
        ca.refresh(now=exhausted)  # the same content, re-signed on a new chain
        resigned = client.pull(now=exhausted + 1)
        assert (resigned.requests, resigned.heads_checked) == (2, 1)
        assert resigned.root_signatures_verified == 1 and not resigned.errors
        assert agent.replica_for(ca.name).signed_root == ca.dictionary.signed_root
        ca.refresh(now=exhausted + 10)
        idle = client.pull(now=exhausted + 11)
        assert (idle.requests, idle.heads_checked) == (1, 0) and not idle.errors

    def test_a_previous_epoch_head_at_the_same_size_is_a_counted_replay(self):
        """A head and statement captured before the CA's chain ran out, replayed
        after it re-signed the same content: the statement links to no held
        root, and the head's root is as large as the held one but signed
        earlier, so it is refused as a replay and nothing moves."""
        from repro.pki.serial import SerialNumber
        from repro.ritm.ca_service import freshness_path, head_path
        from repro.scenarios.faults import replay_captured_head

        ca, cdn, agent, client, _ = self._synced()
        ca.revoke([SerialNumber(700)], now=110)
        ca.refresh(now=120)
        client.pull(now=121)
        captured = [cdn.origin.fetch(path(ca.name)).content for path in (head_path, freshness_path)]
        exhausted = 110 + ca.config.chain_length * ca.config.delta_seconds
        ca.refresh(now=exhausted)  # the same content, re-signed on a new chain
        assert not client.pull(now=exhausted + 1).errors
        replica = agent.replica_for(ca.name)
        held = (replica.signed_root, replica.size, replica.latest_freshness)
        assert held[0].timestamp == exhausted and held[1] == 1

        replay_captured_head(ca.name, cdn, *captured, now=exhausted + 5)
        result = client.pull(now=exhausted + 6)
        assert (result.heads_checked, result.replays_rejected) == (1, 1)
        assert len(result.errors) == 1 and "signed at 110" in result.errors[0]
        assert (replica.signed_root, replica.size, replica.latest_freshness) == held

    def test_a_head_over_fewer_revocations_is_a_counted_replay(self):
        """The head and statement from before a revocation, replayed after the
        RA applied it: the head's root covers fewer revocations than the held
        one, so it is refused before any catch-up and nothing moves."""
        from repro.pki.serial import SerialNumber
        from repro.ritm.ca_service import freshness_path, head_path
        from repro.scenarios.faults import replay_captured_head

        ca, cdn, agent, client, _ = self._synced()
        captured = [cdn.origin.fetch(path(ca.name)).content for path in (head_path, freshness_path)]
        ca.revoke([SerialNumber(710)], now=110)
        assert client.pull(now=111).serials_applied == 1
        replica = agent.replica_for(ca.name)
        held = (replica.signed_root, replica.size, replica.latest_freshness)

        replay_captured_head(ca.name, cdn, *captured, now=115)
        result = client.pull(now=116)
        assert (result.heads_checked, result.replays_rejected) == (1, 1)
        assert (result.serials_applied, result.resyncs) == (0, 0)
        assert len(result.errors) == 1 and "over 0 revocations" in result.errors[0]
        assert (replica.signed_root, replica.size, replica.latest_freshness) == held

    def test_a_head_equal_to_the_held_root_leaves_it_alone(self):
        """A statement from the CA's previous chain, replayed beside the
        current head: it links to no held root, so the RA reads the head,
        whose root is the one it holds.  The root is neither replaced nor
        re-verified, and the head's own statement is applied."""
        from repro.ritm.ca_service import freshness_path

        ca, cdn, agent, client, _ = self._synced()
        ca.refresh(now=110)
        old_chain = cdn.origin.fetch(freshness_path(ca.name)).content
        exhausted = 100 + ca.config.chain_length * ca.config.delta_seconds
        ca.refresh(now=exhausted)  # the same content, re-signed on a new chain
        assert not client.pull(now=exhausted + 1).errors
        replica = agent.replica_for(ca.name)
        held = replica.signed_root
        assert held == ca.dictionary.signed_root

        cdn.publish(freshness_path(ca.name), old_chain, exhausted + 5)
        result = client.pull(now=exhausted + 6)
        assert (result.heads_checked, result.replays_rejected) == (1, 0)
        assert result.root_signatures_verified == 0 and not result.errors
        assert result.freshness_applied == 1
        assert replica.signed_root is held
        assert replica.latest_freshness == ca.dictionary.latest_freshness

    def test_a_rotation_is_learned_without_a_resync(self):
        ca, _, agent, client, _ = self._synced()
        ca.rotate_keys(now=110)
        ca.refresh(now=110)  # publishes the re-signed head and its freshness
        rotated = client.pull(now=111)
        # freshness (links to no held root), head (unverifiable), key chain
        assert (rotated.requests, rotated.heads_checked) == (3, 1)
        assert rotated.key_rotations_applied == 1
        assert rotated.resyncs == 0 and not rotated.errors
        assert agent.replica_for(ca.name).signed_root == ca.dictionary.signed_root
        ca.refresh(now=120)
        assert client.pull(now=121).heads_checked == 0

    @pytest.mark.parametrize("streaming", [False, True], ids=["plain", "archiving"])
    def test_a_revocation_after_a_rotation_is_learned_in_the_walk(self, streaming):
        """The per-Δ object carries a new batch, so the RA walks it without a
        head; the batch's root is signed under the key rotated in since the
        last pull, and the walk learns it."""
        from repro.pki.serial import SerialNumber

        ca, _, agent, client, _ = self._synced(streaming)
        ca.rotate_keys(now=110)
        ca.revoke([SerialNumber(600)], now=111)
        result = client.pull(now=112)
        # the per-Δ object (the batch's object), the key chain
        assert (result.requests, result.heads_checked) == (2, 0)
        assert result.key_rotations_applied == 1
        assert (result.issuances_applied, result.serials_applied) == (1, 1)
        assert result.resyncs == 0 and not result.errors
        replica = agent.replica_for(ca.name)
        assert replica.signed_root == ca.dictionary.signed_root
        assert replica.latest_freshness == ca.dictionary.latest_freshness

    def test_a_resync_after_a_rotation_learns_the_key(self):
        from repro.pki.serial import SerialNumber
        from repro.ritm.ca_service import issuance_path

        ca, cdn, agent, client, _ = self._synced()
        ca.rotate_keys(now=110)
        ca.revoke([SerialNumber(601)], now=111)
        ca.revoke([SerialNumber(602)], now=112)  # the per-Δ object carries batch 2
        del cdn.origin._objects[issuance_path(ca.name, 1)]
        result = client.pull(now=112)
        assert (result.resyncs, result.key_rotations_applied) == (1, 1)
        assert not result.errors
        assert agent.replica_for(ca.name).signed_root == ca.dictionary.signed_root

    @pytest.mark.parametrize("served", ["statement", "batch object"])
    def test_a_stale_statement_is_ignored_within_the_window_and_reads_the_head_beyond(
        self, served
    ):
        """A statement re-served ``behind`` periods late is benign CDN
        staleness up to :data:`REPLAY_WINDOW` periods: the replica finds it
        by hashing the statement it holds that many times at most.  Further
        behind it links to nothing the replica holds, so the RA reads the
        head, which is current, and nothing moves backwards: no replay is
        counted.  So is batch 1's object re-served ``behind`` periods after
        its root: the statement it carries is that root's anchor, period 0."""
        from repro.pki.serial import SerialNumber
        from repro.ritm.ca_service import freshness_path
        from repro.dictionary.freshness import REPLAY_WINDOW

        ca, cdn, agent, client, _ = self._synced()
        ca.revoke([SerialNumber(700)], now=110)  # period p begins at 110 + 10p
        published = {0: cdn.origin.fetch(freshness_path(ca.name)).content}  # batch 1's object
        assert client.pull(now=111).issuances_applied == 1
        replica = agent.replica_for(ca.name)
        for behind in (REPLAY_WINDOW, REPLAY_WINDOW + 1):
            held_period = 5 if served == "statement" else behind
            for period in range(len(published), held_period + 1):
                ca.refresh(now=110 + 10 * period)
                published[period] = cdn.origin.fetch(freshness_path(ca.name)).content
                client.pull(now=111 + 10 * period)
            held = replica.latest_freshness
            now = 112 + 10 * held_period + behind
            cdn.publish(freshness_path(ca.name), published[held_period - behind], now)
            result = client.pull(now=now + 1)
            assert replica.latest_freshness == held
            assert result.replays_rejected == 0 and not result.errors
            if behind <= REPLAY_WINDOW:
                assert (result.requests, result.heads_checked) == (1, 0)
                assert (result.stale_statements_ignored, result.freshness_applied) == (1, 0)
            else:
                assert (result.requests, result.heads_checked) == (2, 1)
                assert (result.stale_statements_ignored, result.freshness_applied) == (0, 1)

    @pytest.mark.parametrize("lead", [1, 2])
    def test_a_ca_clock_ahead_of_the_ra_is_followed(self, lead):
        """The CA's clock leads the RA's by ``lead`` periods.  One period is
        within the poll's tolerance: the per-Δ statement links.  Two are
        not: the statement is further ahead than the poll hashes, so the RA
        reads the head, whose statement links over the whole chain and is
        applied.  An honest CA is never refused for its clock."""
        ca, _, agent, client, _ = self._synced()
        replica = agent.replica_for(ca.name)
        for period in range(1, 5):
            ca.refresh(now=100 + 10 * (period + lead))
            result = client.pull(now=101 + 10 * period)
            assert replica.latest_freshness == ca.dictionary.latest_freshness
            assert result.freshness_applied == 1 and not result.errors
            assert (result.requests, result.heads_checked) == ((1, 0) if lead == 1 else (2, 1))

    def test_an_ra_whose_delta_is_longer_than_the_cas_is_followed(self):
        """The RA takes Δ = 20 s for a CA that releases a statement every
        10 s, so its clock reads half the CA's periods.  Once the CA's
        statement is further ahead than the poll hashes, the RA reads the
        head and applies its statement: the mismatch costs a GET, never the
        freshness."""
        from dataclasses import replace

        config, ca, cdn, _ = build_stack()
        agent = RevocationAgent("slow-ra", replace(config, delta_seconds=20))
        client = attach_agent_to_cas(agent, [ca], cdn, GeoLocation(Region.EUROPE))
        client.pull(now=101)
        replica = agent.replica_for(ca.name)
        heads = []
        for period in range(1, 5):
            ca.refresh(now=100 + 10 * period)
            result = client.pull(now=101 + 10 * period)
            assert replica.latest_freshness == ca.dictionary.latest_freshness
            assert result.freshness_applied == 1 and not result.errors
            heads.append(result.heads_checked)
        assert heads == [0, 0, 1, 1]


class TestUplinkAccounting:
    def test_every_get_of_the_cycle_is_one_request_on_the_link(self):
        """Two CAs, one of them revoking: the cycle's GETs are the two per-Δ
        objects (a statement, and the revoking CA's batch), and the link
        carries one request for each."""
        from repro.cdn.network import CDNNetwork
        from repro.net.link import Link
        from repro.pki.ca import CertificationAuthority
        from repro.pki.serial import SerialNumber
        from repro.ritm.ca_service import RITMCertificationAuthority
        from repro.ritm.config import RITMConfig
        from repro.ritm.dissemination import REQUEST_BYTES

        config = RITMConfig(delta_seconds=10, chain_length=64)
        cdn = CDNNetwork()
        cas = []
        for name in ("Uplink CA A", "Uplink CA B"):
            authority = CertificationAuthority(name, key_seed=name.encode())
            ca = RITMCertificationAuthority(authority, config, cdn)
            ca.bootstrap(now=100)
            cas.append(ca)
        clients = []
        for name in ("linked-ra", "unlinked-ra"):
            client = attach_agent_to_cas(
                RevocationAgent(name, config), cas, cdn, GeoLocation(Region.EUROPE)
            )
            client.pull(now=101)
            clients.append(client)
        cas[0].revoke([SerialNumber(42)], now=110)
        cas[1].refresh(now=110)
        # A slow link, so that every request byte shows in the latency.
        link = Link(latency_seconds=0.01, bandwidth_bytes_per_second=1_000.0)
        linked = clients[0].pull(now=111, link=link)
        unlinked = clients[1].pull(now=111)

        assert linked.requests == unlinked.requests == 2
        assert linked.bytes_downloaded == unlinked.bytes_downloaded
        assert linked.latency_seconds - unlinked.latency_seconds == pytest.approx(
            link.round_trip_time(
                request_bytes=REQUEST_BYTES * 2, response_bytes=linked.bytes_downloaded
            )
        )


class TestOneGetPerDelta:
    """The paper's one message per CA per Δ: the per-Δ object is the batch's
    object in a Δ with a batch and the bare statement otherwise, so an RA
    that was current pulls each dictionary with one GET whichever the Δ —
    the one request per poll per dictionary that ``simulate_costs`` bills
    (``requests_per_poll`` in ``repro.analysis.cost``)."""

    @pytest.mark.parametrize("streaming", [False, True], ids=["plain", "archiving"])
    def test_a_current_ra_pays_one_get_per_delta_idle_or_active(self, streaming):
        from repro.pki.serial import SerialNumber
        from repro.ritm.ca_service import freshness_path

        _, ca, cdn, attach = build_stack()
        agent, client = attach("current-ra", streaming=streaming)
        client.pull(now=101)
        replica = agent.replica_for(ca.name)
        active = {1, 2, 4, 7}
        for period in range(1, 9):
            now = 100 + 10 * period
            if period in active:
                ca.revoke([SerialNumber(700 + period), SerialNumber(800 + period)], now=now)
            else:
                ca.refresh(now=now)
            per_delta = cdn.origin.fetch(freshness_path(ca.name)).content
            result = client.pull(now=now + 1)
            assert (result.requests, result.heads_checked) == (1, 0)
            assert result.bytes_downloaded == len(per_delta) + REQUEST_OVERHEAD_BYTES
            assert result.serials_applied == (2 if period in active else 0)
            assert result.issuances_applied == (1 if period in active else 0)
            assert result.resyncs == 0 and not result.errors
            assert replica.signed_root == ca.dictionary.signed_root
            assert replica.latest_freshness == ca.dictionary.latest_freshness
        # what an archiving RA read through the per-Δ object it can relay
        archived = [1, 3, 5, 7] if streaming else []  # two serials each
        assert sorted(client.feeds[ca.name].batches) == archived

    @pytest.mark.parametrize("streaming", [False, True], ids=["plain", "archiving"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_an_ra_that_missed_k_batches_pays_k_gets(self, streaming, k):
        """k batches in k Δs without a pull, the last in this Δ: the per-Δ
        object carries batch k and the walk fetches the k − 1 before it."""
        from repro.pki.serial import SerialNumber

        _, ca, _, attach = build_stack()
        agent, client = attach("lagging-ra", streaming=streaming)
        client.pull(now=101)
        for batch in range(1, k + 1):
            ca.revoke([SerialNumber(900 + batch)], now=100 + 10 * batch)
        result = client.pull(now=101 + 10 * k)
        assert (result.requests, result.heads_checked) == (k, 0)
        assert (result.issuances_applied, result.serials_applied) == (k, k)
        assert result.resyncs == 0 and not result.errors
        assert client.replication_cursor(ca.name) == k
        assert agent.replica_for(ca.name).signed_root == ca.dictionary.signed_root


#: Counters of a pull that do not depend on which object carried a batch.
OUTCOME = (
    "heads_checked",
    "freshness_applied",
    "issuances_applied",
    "serials_applied",
    "resyncs",
    "stale_statements_ignored",
    "replays_rejected",
    "key_rotations_applied",
    "batches_rejected",
)


def _truncated(batch: bytes) -> bytes:
    """A batch object cut short in its serials: longer than any value, so
    still read as a batch object, and no batch object."""
    return batch[: len(batch) - 25]


def _swapped_serial(batch: bytes) -> bytes:
    """A batch object whose first serial is swapped, its root left as it was."""
    from dataclasses import replace

    from repro.pki.serial import SerialNumber
    from repro.ritm.replication import decode_segment, encode_segment

    issuance = decode_segment(batch)
    return encode_segment(
        replace(issuance, serials=(SerialNumber(0xEEEEEE),) + issuance.serials[1:])
    )


class TestAPerDeltaBatchEndsAsTheWalksObject:
    """Each abnormal per-Δ batch object that decodes ends exactly as the
    same object fetched by the walk ends (one that does not decode sends
    the RA to the head instead): two identical stacks, one RA reading the batch
    through the per-Δ object, the other through its walk's GET of the same
    bytes at the batch's path, after a refresh in the same hash-chain period
    has made the per-Δ object the bare statement again.  That statement links to no root the walk's RA
    holds, so it reads the head first, then walks.  Every other outcome
    counter, the error count and the replica state agree; only the GETs
    differ."""

    @staticmethod
    def _pull_both(streaming, stage):
        """``stage(ca, cdn, via_walk)`` runs on each of two synced stacks,
        then each RA pulls at 135; returns (result, replica, ca, client)
        for the per-Δ stack, then the walk's."""
        outcomes = []
        for via_walk in (False, True):
            _, ca, cdn, attach = build_stack()
            agent, client = attach("differential-ra", streaming=streaming)
            client.pull(now=101)
            stage(ca, cdn, via_walk)
            outcomes.append((client.pull(now=135), agent.replica_for(ca.name), ca, client))
        return outcomes

    @staticmethod
    def _assert_same_end(outcomes, counters=OUTCOME, heads=(0, 1)):
        """``heads`` heads checked by the per-Δ RA and the walk's; equal
        other ``counters`` and error counts; each replica on its own CA's
        state (each stack's CA seeds its own hash chain)."""
        (per_delta, *_), (walk, *_) = outcomes
        assert (per_delta.heads_checked, walk.heads_checked) == heads
        counters = [name for name in counters if name != "heads_checked"]
        assert {name: getattr(per_delta, name) for name in counters} == {
            name: getattr(walk, name) for name in counters
        }
        assert len(per_delta.errors) == len(walk.errors)
        for _, replica, ca, _ in outcomes:
            assert replica.root() == ca.dictionary.root()
            assert replica.signed_root == ca.dictionary.signed_root
            assert replica.latest_freshness == ca.dictionary.latest_freshness
        return per_delta, walk

    @staticmethod
    def _damage_batch(damage):
        """A stage: revoke at 130 and damage the batch where the RA reads it."""
        from repro.pki.serial import SerialNumber
        from repro.ritm.ca_service import freshness_path, issuance_path

        def stage(ca, cdn, via_walk):
            issuance = ca.revoke([SerialNumber(0x0A0B0C), SerialNumber(0x0A0B0D)], now=130)
            path = issuance_path(ca.name, issuance.first_number)
            damaged = damage(cdn.origin.fetch(path).content)
            if not via_walk:
                cdn.publish(freshness_path(ca.name), damaged, 130)
                return
            ca.refresh(now=131)  # the same period: the walk fetches the batch
            cdn.publish(path, damaged, 131)

        return stage

    @pytest.mark.parametrize("streaming", [False, True], ids=["plain", "archiving"])
    def test_a_per_delta_batch_object_that_fails_to_decode(self, streaming):
        """The one case that does not end as the walk's: a per-Δ object that
        fails to decode is one recorded error and sends the RA to the head,
        whose walk GETs the honest batch at its path — no rejected batch,
        no resync.  The walk's RA GETs the damaged bytes there itself: one
        rejected batch and one resync.  Both end on the CA's state."""
        outcomes = self._pull_both(streaming, self._damage_batch(_truncated))
        counters = ("heads_checked", "freshness_applied", "key_rotations_applied")
        per_delta, walk = self._assert_same_end(outcomes, counters, heads=(1, 1))
        assert (per_delta.resyncs, per_delta.batches_rejected) == (0, 0)
        assert (per_delta.issuances_applied, per_delta.serials_applied) == (1, 2)
        assert (walk.resyncs, walk.batches_rejected, walk.issuances_applied) == (1, 1, 0)
        # the per-Δ object, the head, the batch; the walk's adds the resync
        assert (per_delta.requests, walk.requests) == (3, 4)
        assert len(per_delta.errors) == 1 and "truncated" in per_delta.errors[0]
        assert per_delta.errors == walk.errors

    @pytest.mark.parametrize("streaming", [False, True], ids=["plain", "archiving"])
    def test_a_per_delta_batch_with_a_swapped_serial(self, streaming):
        """The batch is applied as a GET of it would be, and rolled back on
        the root mismatch: one rejected batch and one resync either way."""
        from repro.pki.serial import SerialNumber

        outcomes = self._pull_both(streaming, self._damage_batch(_swapped_serial))
        per_delta, walk = self._assert_same_end(outcomes)
        assert per_delta.resyncs == 1 and per_delta.issuances_applied == 0
        assert per_delta.errors == walk.errors
        assert per_delta.batches_rejected == 1
        assert "root does not match" in per_delta.errors[-1]
        assert not outcomes[0][1].contains(SerialNumber(0xEEEEEE))

    @pytest.mark.parametrize("streaming", [False, True], ids=["plain", "archiving"])
    def test_a_replayed_older_per_delta_batch_object(self, streaming):
        """Batches 1 and 2 are applied; then the CDN serves batch 1's object
        again.  The walk-era analog is the statement published with batch 1
        served again: either links to no root the replica holds, so both
        RAs read the head, and neither replica moves."""
        from repro.pki.serial import SerialNumber
        from repro.ritm.ca_service import freshness_path, issuance_path
        from repro.dictionary.freshness import FreshnessStatement
        from repro.ritm.messages import encode_freshness
        from repro.ritm.replication import decode_segment

        outcomes = []
        for via_walk in (False, True):
            _, ca, cdn, attach = build_stack()
            agent, client = attach("replayed-ra", streaming=streaming)
            client.pull(now=101)
            for number, now in ((1, 110), (2, 120)):
                ca.revoke([SerialNumber(0x0A0B00 + number)], now=now)
                assert client.pull(now=now + 1).errors == []
            old = cdn.origin.fetch(issuance_path(ca.name, 1)).content
            if via_walk:
                old = encode_freshness(FreshnessStatement(decode_segment(old).signed_root.anchor))
            cdn.publish(freshness_path(ca.name), old, 130)
            outcomes.append((client.pull(now=135), agent.replica_for(ca.name), ca, client))
        per_delta, walk = self._assert_same_end(outcomes, heads=(1, 1))
        assert per_delta.issuances_applied == 0
        assert per_delta.errors == walk.errors
        _, _, ca, client = outcomes[0]
        assert client.replication_cursor(ca.name) == 2

    @pytest.mark.parametrize("streaming", [False, True], ids=["plain", "archiving"])
    def test_a_rotation_then_a_revocation_before_the_next_poll(self, streaming):
        from repro.pki.serial import SerialNumber

        def stage(ca, cdn, via_walk):
            ca.rotate_keys(now=120)
            ca.revoke([SerialNumber(0x0A0B0C)], now=130)
            if via_walk:
                ca.refresh(now=131)

        outcomes = self._pull_both(streaming, stage)
        per_delta, walk = self._assert_same_end(outcomes)
        assert per_delta.key_rotations_applied == 1 and per_delta.issuances_applied == 1
        assert per_delta.resyncs == 0 and not per_delta.errors and not walk.errors
        # the per-Δ object and the key chain; the walk's RA also GETs the
        # head (whose root, under the new key, costs it the key chain) and
        # the batch
        assert (per_delta.requests, walk.requests) == (2, 4)
