"""Adversarial scenarios from the paper's security analysis (§V).

Each test instantiates one of the attacks the paper discusses and checks that
the defence RITM claims actually holds in this implementation:

* MITM dropping or delaying status messages → connection interrupted;
* MITM tampering with statuses → detected as invalid;
* compromised RA / CDN forging dictionary content → proofs don't verify;
* compromised RA suppressing a revocation → client still learns the truth
  (or at worst the connection dies), never accepts a forged "good" status;
* misbehaving CA equivocating about its dictionary → cryptographic evidence;
* downgrade attempts (bypassing the RA) → detected through deployment-model
  defences.
"""

import pytest

from repro.net.clock import SimulatedClock
from repro.net.node import DroppingMiddlebox, TamperingMiddlebox
from repro.ritm.client import RejectionReason
from repro.tls.records import ContentType, parse_records, serialize_records

from tests.ritm.conftest import EPOCH, build_world


@pytest.fixture()
def world():
    return build_world()


def deploy(world, chain=None, extra_middleboxes=None, clock=None):
    from repro.ritm.deployment import build_close_to_client_deployment

    return build_close_to_client_deployment(
        server_chain=chain if chain is not None else world.corpus.chains[0],
        trust_store=world.trust_store,
        ca_public_keys=world.ca_public_keys(),
        config=world.config,
        agent=world.agent,
        clock=clock if clock is not None else SimulatedClock(EPOCH + 20),
        extra_middleboxes=extra_middleboxes,
    )


def strip_status_records(payload: bytes) -> bytes:
    records = [record for record in parse_records(payload) if not record.is_ritm_status()]
    return serialize_records(records)


class TestBlockingAndTampering:
    def test_adversary_stripping_status_causes_rejection_not_acceptance(self, world):
        """Dropping the status from the handshake must never yield an accepted
        connection (fail-closed, §V 'MITM and Blocking Attack')."""
        stripper = TamperingMiddlebox(
            should_tamper=lambda packet: any(
                record.is_ritm_status() for record in parse_records(packet.payload)
            )
            if packet.payload[:1] in (b"\x16", b"\x17", b"\x64")
            else False,
            tamper=strip_status_records,
            name="status-stripper",
        )
        # The stripper sits between the RA (gateway) and the client.
        deployment = deploy(world, extra_middleboxes=[stripper])
        # Place the stripper *before* the RA on the server side? The builder
        # appends extra boxes after the RA (towards the server), so on the
        # return path packets hit the stripper first, then the RA re-adds the
        # status... to truly strip, run the packets once more manually.
        accepted = deployment.run_handshake()
        if accepted:
            # The RA healed the stripped status (multiple-RA behaviour); now
            # strip after the RA by delivering a tampered packet directly.
            packet = deployment.server.send_application_data(
                deployment.flow, b"x", deployment.engine.clock.now()
            )
            tampered = packet.with_payload(strip_status_records(packet.payload))
            deployment.client.handle_packet(tampered, deployment.engine.clock.now())
            horizon = deployment.engine.clock.now() + 3 * world.config.delta_seconds
            assert not deployment.client.enforce_freshness(horizon)
        else:
            assert deployment.client.rejection in (
                RejectionReason.MISSING_STATUS,
                RejectionReason.INVALID_STATUS,
            )

    def test_delaying_statuses_interrupts_connection(self, world):
        """An adversary that blocks every status after establishment cannot keep
        the connection alive past 2Δ (§V 'Race Condition' / blocking)."""
        deployment = deploy(world)
        assert deployment.run_handshake()
        dropper = DroppingMiddlebox(lambda packet: True, name="blackhole")
        deployment.engine.path.middleboxes.append(dropper)
        horizon = deployment.engine.clock.now() + 3 * world.config.delta_seconds
        assert not deployment.client.enforce_freshness(horizon)
        assert deployment.client.rejection == RejectionReason.STATUS_TIMEOUT

    def test_bitflip_in_status_detected(self, world):
        def flip_status_byte(payload: bytes) -> bytes:
            records = parse_records(payload)
            rebuilt = []
            for record in records:
                if record.is_ritm_status():
                    body = bytearray(record.payload)
                    # Corrupt a byte in the middle of the proof/root material.
                    body[len(body) // 2] ^= 0xFF
                    from repro.tls.records import TLSRecord

                    record = TLSRecord(ContentType.RITM_STATUS, bytes(body))
                rebuilt.append(record)
            return serialize_records(rebuilt)

        deployment = deploy(world)
        hello = deployment.client.client_hello_packet(deployment.flow, EPOCH + 20)
        # Run the exchange manually so we can corrupt the server's reply after
        # the RA processed it.
        agent = world.agent
        server = deployment.server
        client = deployment.client
        packet = agent.process_packet(hello, EPOCH + 20)[0]
        replies = server.handle_packet(packet, EPOCH + 20)
        reply = agent.process_packet(replies[0], EPOCH + 21)[0]
        corrupted = reply.with_payload(flip_status_byte(reply.payload))
        client.handle_packet(corrupted, EPOCH + 21)
        assert not client.is_connection_usable
        assert client.rejection in (
            RejectionReason.INVALID_STATUS,
            RejectionReason.STALE_STATUS,
        )

    def test_status_for_wrong_serial_is_rejected(self, world):
        """A compromised RA replaying a valid proof about a *different* serial
        must not satisfy the client's policy."""
        chain = world.corpus.chains[0]
        other_chain = world.corpus.chains[1]
        issuing = world.ca_by_name(chain.leaf.issuer)
        replica = world.agent.replica_for(issuing.name)

        from repro.ritm.messages import encode_status_bundle
        from repro.tls.records import TLSRecord

        wrong_status = replica.prove(other_chain.leaf.serial)

        deployment = deploy(world, chain)
        client = deployment.client
        server = deployment.server
        hello = client.client_hello_packet(deployment.flow, EPOCH + 20)
        replies = server.handle_packet(hello, EPOCH + 20)
        # The "compromised RA" attaches a status about an unrelated serial.
        forged_payload = replies[0].payload + TLSRecord(
            ContentType.RITM_STATUS, encode_status_bundle([wrong_status])
        ).to_bytes()
        client.handle_packet(replies[0].with_payload(forged_payload), EPOCH + 21)
        assert not client.is_connection_usable
        assert client.rejection == RejectionReason.INVALID_STATUS


class TestCompromisedInfrastructure:
    def test_compromised_ra_cannot_forge_clean_status_for_revoked_cert(self, world):
        """An RA that tampers with its replica cannot produce a verifying
        absence proof for a revoked serial (§V 'RA and Dissemination Network
        Compromise')."""
        chain = world.corpus.chains[0]
        issuing = world.ca_by_name(chain.leaf.issuer)
        issuing.revoke([chain.leaf.serial], now=EPOCH + 10)
        world.pull(now=EPOCH + 11)

        replica = world.agent.replica_for(issuing.name)
        # The compromised RA builds an absence proof from a *forged* tree that
        # omits the revocation, but it only has the genuine signed root.
        from repro.dictionary.proofs import RevocationStatus
        from repro.store import NaiveMerkleStore

        forged_tree = NaiveMerkleStore()
        forged_proof = forged_tree.prove_absence(chain.leaf.serial.to_bytes())
        forged_status = RevocationStatus(
            proof=forged_proof,
            signed_root=replica.signed_root,
            freshness=replica.latest_freshness,
        )
        assert forged_status.serial == chain.leaf.serial
        assert not forged_status.is_acceptable(
            issuing.public_key, now=EPOCH + 12, delta=world.config.delta_seconds
        )

    def test_compromised_cdn_cannot_inject_unsigned_content(self, world):
        """Tampered dissemination objects are rejected by replica verification."""
        issuing = world.cas[0]
        from repro.dictionary.authdict import RevocationIssuance
        from repro.pki.serial import SerialNumber
        from dataclasses import replace

        genuine_root = issuing.dictionary.signed_root
        forged_issuance = RevocationIssuance(
            ca_name=issuing.name,
            serials=(SerialNumber(0xBEEF),),
            first_number=1,
            signed_root=replace(genuine_root, size=1, root=b"\x13" * 20),
        )
        from repro.errors import SignatureError

        with pytest.raises(SignatureError):
            world.agent.replica_for(issuing.name).update(forged_issuance)

    def test_old_freshness_statement_cannot_be_replayed_forever(self, world):
        """Suppressing updates only works for 2Δ: an old statement goes stale."""
        chain = world.corpus.chains[0]
        deployment = deploy(world, chain)
        assert deployment.run_handshake()
        # The adversary suppresses all dictionary updates; the client's next
        # status (whenever it comes) reuses the old freshness statement.
        stale_now = deployment.engine.clock.now() + 5 * world.config.delta_seconds
        deployment.engine.clock.advance_to(stale_now)
        deployment.deliver_from_server(b"stale tick")
        assert not deployment.client.is_connection_usable
        assert deployment.client.rejection in (
            RejectionReason.STALE_STATUS,
            RejectionReason.STATUS_TIMEOUT,
        )


class TestMisbehavingCA:
    def test_equivocating_ca_produces_provable_evidence(self, world):
        """Showing different dictionaries to different parties is detectable by
        comparing signed roots of the same size (§V 'Misbehaving CA')."""
        from dataclasses import replace

        ca = world.cas[0]
        honest_root = ca.dictionary.signed_root
        evil_root = replace(honest_root, root=b"\x99" * 20).sign(ca.authority._keys.private)

        report = world.agent.consistency.observe_root(evil_root)
        assert report is not None
        assert report.is_valid_evidence(ca.public_key)

    def test_gossip_between_client_and_ra_catches_split_view(self, world):
        from dataclasses import replace
        from repro.ritm.consistency import ConsistencyChecker, GossipExchange

        ca = world.cas[0]
        honest_root = ca.dictionary.signed_root
        evil_root = replace(honest_root, root=b"\x99" * 20).sign(ca.authority._keys.private)

        client_view = ConsistencyChecker("client")
        client_view.observe_root(evil_root)  # the client was shown the fake view
        reports = GossipExchange().exchange(client_view, world.agent.consistency)
        assert reports
        assert reports[0].is_valid_evidence(ca.public_key)


class TestDowngrade:
    def test_tunnelled_traffic_detected_when_client_expects_protection(self, world):
        """Close-to-client model: the operator told the client RITM is in force,
        so a path with no RA (tunnelled around it) is rejected."""
        from repro.ritm.deployment import build_unprotected_path

        deployment = build_unprotected_path(
            server_chain=world.corpus.chains[0],
            trust_store=world.trust_store,
            ca_public_keys=world.ca_public_keys(),
            config=world.config,
            clock=SimulatedClock(EPOCH + 20),
        )
        assert not deployment.run_handshake()
        assert deployment.client.rejection == RejectionReason.MISSING_STATUS

    def test_terminator_confirmation_cannot_be_forged_outside_tls(self, world):
        """In the close-to-server model the confirmation rides inside the
        TLS-protected ServerHello; without it, and without a status, the
        client refuses."""
        deployment = deploy(world, chain=world.corpus.chains[1])
        # Plain server (no terminator) and an RA that knows nothing about the
        # CA: the client gets neither a status nor a confirmation.
        world.agent.replicas.clear()
        assert not deployment.run_handshake()
        assert deployment.client.rejection == RejectionReason.MISSING_STATUS
