"""Retained wire bytes and the RA's chain cache never outlive what they encode.

A frozen value object keeps its encoding in its instance ``__dict__``.  These
tests pin what that must not change: a copy with different fields encodes
from *its* fields, equality and hashing ignore the retained bytes, the bytes
are dropped with the proof cache entry that holds them — and the DPI engine's
parsed-chain LRU, like the one a client's ``ChainValidationCache`` keeps and
the status memo beside a client's ``VerifiedRootCache``, stores structure
only, bounded, keyed by the exact bytes.
"""

import dataclasses

import pytest

from repro.crypto.signing import KeyPair
from repro.dictionary.authdict import CADictionary
from repro.errors import CertificateError, TLSError
from repro.net.packet import Direction, Packet
from repro.perf import VerifiedRootCache
from repro.pki.certificate import Certificate, CertificateChain
from repro.pki.serial import SerialNumber
from repro.ritm import client as client_module
from repro.ritm.client import RejectionReason, RITMClient
from repro.ritm.dpi import CHAIN_CACHE_CAPACITY, DPIEngine
from repro.ritm.messages import (
    DictionaryHead,
    decode_head,
    decode_status_bundle,
    encode_freshness,
    encode_head,
    encode_proof,
    encode_signed_root,
    encode_status_bundle,
)
from repro.store import create_store
from repro.tls.connection import (
    ChainValidationCache,
    ClientConnectionConfig,
    TLSClientConnection,
)
from repro.tls.messages import CertificateMessage, ServerHello, ServerHelloDone
from repro.tls.records import ContentType, TLSRecord, parse_records

from tests.ritm.conftest import EPOCH, flip_bit
from tests.ritm.test_agent import FLOW
from tests.ritm.test_wire_canonical import rebuilt

KEYS = KeyPair.generate(b"wire-memo")
OTHER_KEYS = KeyPair.generate(b"wire-memo-other")


@pytest.fixture(scope="module")
def dictionary():
    master = CADictionary("Memo-CA", KEYS, delta=10, chain_length=8)
    master.insert([SerialNumber(10 * n) for n in range(1, 30)], now=1000)
    return master


def retains_bytes(value) -> bool:
    return "_wire" in vars(value)


class TestCertificateMemo:
    def test_encoders_retain_and_parsers_seed(self, small_corpus):
        chain = small_corpus.chains[0]
        data = chain.to_bytes()
        assert chain.to_bytes() is data
        parsed = CertificateChain.from_bytes(data)
        assert retains_bytes(parsed) and parsed.to_bytes() == data
        for certificate, original in zip(parsed, chain):
            assert retains_bytes(certificate)
            assert certificate.to_bytes() == original.to_bytes()
            assert certificate.tbs_bytes() == rebuilt(original).tbs_bytes()
            assert certificate.to_bytes().startswith(certificate.tbs_bytes())

    def test_a_parser_given_a_mutable_buffer_retains_an_immutable_copy(self, small_corpus):
        buffer = bytearray(small_corpus.chains[0].leaf.to_bytes())
        parsed = Certificate.from_bytes(buffer)
        expected = bytes(buffer)
        buffer[0] ^= 0xFF
        assert type(parsed.to_bytes()) is bytes and parsed.to_bytes() == expected

    @pytest.mark.parametrize(
        "changes",
        [
            {"serial": SerialNumber(0xABCDEF)},
            {"subject": "evil.example"},
            {"issuer": "Other-CA"},
            {"not_after": 1},
            {"is_ca": True},
            {"signature": b"\x00" * 64},
            {"public_key": OTHER_KEYS.public},
        ],
        ids=lambda changes: next(iter(changes)),
    )
    def test_a_replaced_copy_encodes_from_its_own_fields(self, small_corpus, changes):
        original = Certificate.from_bytes(small_corpus.chains[0].leaf.to_bytes())
        assert retains_bytes(original)
        tampered = dataclasses.replace(original, **changes)
        assert not retains_bytes(tampered)
        assert tampered.to_bytes() != original.to_bytes()
        assert Certificate.from_bytes(tampered.to_bytes()) == tampered
        if "signature" not in changes:
            assert tampered.tbs_bytes() != original.tbs_bytes()
            assert not tampered.verify_signature(small_corpus.authorities[0].public_key)

    def test_with_signature_signs_and_encodes_the_new_fields(self, small_corpus):
        leaf = small_corpus.chains[0].leaf
        leaf.to_bytes()
        moved = dataclasses.replace(leaf, subject="moved.example")
        resigned = moved.with_signature(OTHER_KEYS.private)
        assert resigned.verify_signature(OTHER_KEYS.public)
        assert resigned.tbs_bytes() == moved.tbs_bytes() != leaf.tbs_bytes()
        assert resigned.to_bytes() == rebuilt(resigned).to_bytes()
        assert moved.signature == leaf.signature  # the unsigned copy is untouched

    def test_a_chain_with_a_swapped_leaf_encodes_the_swap(self, small_corpus):
        chain = CertificateChain.from_bytes(small_corpus.chains[0].to_bytes())
        forged_leaf = dataclasses.replace(chain.leaf, serial=SerialNumber(0x123456))
        forged = CertificateChain((forged_leaf,) + chain.certificates[1:])
        assert forged.to_bytes() != chain.to_bytes()
        assert CertificateChain.from_bytes(forged.to_bytes()).leaf.serial == forged_leaf.serial

    def test_equality_hash_and_repr_ignore_retained_bytes(self, small_corpus):
        chain = small_corpus.chains[0]
        fresh = rebuilt(chain)
        parsed = CertificateChain.from_bytes(chain.to_bytes())
        assert not retains_bytes(fresh) and retains_bytes(parsed)
        assert fresh == parsed and hash(fresh) == hash(parsed)
        assert repr(fresh) == repr(parsed) and "_wire" not in repr(parsed)
        assert "_wire" not in {field.name for field in dataclasses.fields(parsed.leaf)}


class TestDictionaryObjectMemo:
    def test_encoders_retain_their_result(self, dictionary):
        status = dictionary.prove(SerialNumber(15))
        for encode, value in (
            (encode_signed_root, status.signed_root),
            (encode_freshness, status.freshness),
            (encode_proof, status.proof),
        ):
            first = encode(value)
            assert encode(value) is first
            assert first == encode(rebuilt(value))

    def test_replaced_copies_encode_from_their_own_fields(self, dictionary):
        status = dictionary.prove(SerialNumber(15))
        root, freshness, proof = status.signed_root, status.freshness, status.proof
        honest = (encode_signed_root(root), encode_freshness(freshness), encode_proof(proof))

        forged_root = dataclasses.replace(root, size=root.size + 1)
        assert encode_signed_root(forged_root) != honest[0]
        resigned_root = forged_root.sign(OTHER_KEYS.private)
        assert encode_signed_root(resigned_root) != encode_signed_root(forged_root)
        assert encode_freshness(dataclasses.replace(freshness, value=b"\x01" * 20)) != honest[1]
        forged_proof = dataclasses.replace(proof, key=b"\x00\x00\x10")
        assert encode_proof(forged_proof) != honest[2]
        # An absence proof carries its neighbours' leaves and siblings, not
        # their encodings, and retains no bytes on them.
        assert not retains_bytes(proof.left) and not retains_bytes(proof.right)
        assert encode_proof(proof.left)[1:] not in encode_proof(proof)

        forged_status = dataclasses.replace(status, proof=forged_proof, signed_root=forged_root)
        (decoded,) = decode_status_bundle(encode_status_bundle([forged_status]))
        assert decoded == forged_status != status

    def test_equality_and_hash_ignore_retained_bytes(self, dictionary):
        root = dictionary.signed_root
        encode_signed_root(root)
        fresh = rebuilt(root)
        assert retains_bytes(root) and not retains_bytes(fresh)
        assert root == fresh and hash(root) == hash(fresh) and repr(root) == repr(fresh)

    def test_a_forged_head_carries_the_forged_root(self, dictionary):
        """The shape of ``scenarios.faults.forge_head_with_retired_key``."""
        honest = DictionaryHead(dictionary.signed_root, dictionary.latest_freshness)
        encode_head(honest)
        forged_root = dataclasses.replace(
            honest.signed_root, timestamp=honest.signed_root.timestamp + 1
        ).sign(OTHER_KEYS.private)
        forged = decode_head(encode_head(dataclasses.replace(honest, signed_root=forged_root)))
        assert forged.signed_root == forged_root
        assert forged.signed_root.verify(OTHER_KEYS.public)
        assert not forged.signed_root.verify(KEYS.public)


class TestProofCacheDropsEncodings:
    def _hot_proof(self, world):
        chain = world.corpus.chains[0]
        leaf = chain.leaf
        first = world.agent.build_status(leaf.issuer, leaf.serial)
        encode_status_bundle([first])
        again = world.agent.build_status(leaf.issuer, leaf.serial)
        assert again.proof is first.proof and retains_bytes(again.proof)
        return leaf, first.proof

    def test_clear_drops_the_encoded_bytes_with_the_proof(self, world):
        leaf, proof = self._hot_proof(world)
        world.agent.proof_cache.clear()
        rebuilt_status = world.agent.build_status(leaf.issuer, leaf.serial)
        assert rebuilt_status.proof is not proof and rebuilt_status.proof == proof
        assert not retains_bytes(rebuilt_status.proof)

    def test_invalidate_dictionary_drops_them_too(self, world):
        leaf, proof = self._hot_proof(world)
        assert world.agent.proof_cache.invalidate_dictionary(leaf.issuer) >= 1
        assert not retains_bytes(world.agent.build_status(leaf.issuer, leaf.serial).proof)

    def test_a_revocation_is_never_answered_with_retained_bytes(self, world):
        leaf, proof = self._hot_proof(world)
        world.ca_by_name(leaf.issuer).revoke([leaf.serial], now=EPOCH + 8)
        world.pull(now=EPOCH + 9)
        status = world.agent.build_status(leaf.issuer, leaf.serial)
        assert status.is_revoked and status.proof is not proof
        (decoded,) = decode_status_bundle(encode_status_bundle([status]))
        assert decoded.is_revoked and decoded.signed_root == status.signed_root


class TestEncodedStatusMemo:
    """The RA encodes a status once per signed root: the proof-cache entry
    keeps its fields up to the freshness statement, and every later attach
    appends the live statement.  Whatever happened in between, the record it
    attaches is the one a fresh encoding of the statuses it would build gives
    — never a stale freshness statement, never a stale signed root."""

    @pytest.fixture()
    def encodes(self, monkeypatch):
        """Every status the RA encodes whole (``encode_status`` calls)."""
        from repro.ritm import agent as agent_module

        seen = []
        encode = agent_module.encode_status

        def counting(status):
            seen.append(status)
            return encode(status)

        monkeypatch.setattr(agent_module, "encode_status", counting)
        return seen

    @staticmethod
    def attach(world, now, chain=None):
        """One full handshake's server flight through the RA: the status
        record's payload, checked against a fresh encoding and the replicas."""
        from tests.ritm.test_agent import client_hello_packet, server_flight_packet

        chain = chain if chain is not None else world.corpus.chains[0]
        world.agent.process_packet(client_hello_packet(), now=now)
        (out,) = world.agent.process_packet(server_flight_packet(chain), now=now)
        (record,) = [r for r in parse_records(out.payload) if r.is_ritm_status()]
        state = world.agent.connections.lookup(FLOW)
        statuses = world.agent._build_statuses(state, now)
        assert record.payload == encode_status_bundle(statuses)
        for status in decode_status_bundle(record.payload):
            replica = world.agent.replicas[status.ca_name]
            assert status.signed_root == replica.signed_root
            assert status.freshness == replica.latest_freshness
        return record.payload

    def leaf_ca_and_replica(self, world):
        leaf = world.corpus.chains[0].leaf
        return world.ca_by_name(leaf.issuer), world.agent.replica_for(leaf.issuer)

    def test_a_repeat_visit_is_not_encoded_again(self, world, encodes):
        first = self.attach(world, EPOCH + 10)
        assert self.attach(world, EPOCH + 11) == first
        assert len(encodes) == 1

    def test_a_freshness_advance_appends_only_the_live_statement(self, world, encodes):
        ca, replica = self.leaf_ca_and_replica(world)
        before, statement = self.attach(world, EPOCH + 10), replica.latest_freshness
        ca.refresh(now=EPOCH + 15)
        world.pull(now=EPOCH + 16)
        assert replica.latest_freshness != statement
        after = self.attach(world, EPOCH + 16)
        head = len(before) - len(encode_freshness(statement))
        assert after[:head] == before[:head] and after != before
        assert after.endswith(encode_freshness(replica.latest_freshness))
        assert len(encodes) == 1

    def test_a_new_batch_is_a_new_entry(self, world, encodes):
        ca, replica = self.leaf_ca_and_replica(world)
        self.attach(world, EPOCH + 10)
        ca.revoke([SerialNumber(0xC0FFEE)], now=EPOCH + 12)
        world.pull(now=EPOCH + 13)
        self.attach(world, EPOCH + 13)
        assert len(encodes) == 2

    def test_a_root_resigned_over_the_same_content_is_encoded_again(self, world, encodes):
        """Hash-chain exhaustion re-signs the same root hash: the proof cache
        stays warm across it, the encoded bytes do not."""
        ca, replica = self.leaf_ca_and_replica(world)
        self.attach(world, EPOCH + 10)
        old = replica.signed_root
        exhausted = old.timestamp + old.chain_length * world.config.delta_seconds
        ca.refresh(now=exhausted)
        world.pull(now=exhausted + 1)
        new = replica.signed_root
        assert new.root == old.root and new.signature != old.signature
        hits = world.agent.proof_cache.stats.hits
        self.attach(world, exhausted + 2)
        assert world.agent.proof_cache.stats.hits > hits  # the proof was reused
        assert len(encodes) == 2 and encodes[-1].signed_root == new

    def test_a_key_rotation_is_encoded_again(self, encodes):
        from repro.ritm.config import RITMConfig
        from tests.ritm.conftest import build_world

        config = RITMConfig(delta_seconds=10, chain_length=64, key_rotation_periods=2)
        world = build_world(config)
        ca, replica = self.leaf_ca_and_replica(world)
        self.attach(world, EPOCH + 10)
        old = replica.signed_root
        ca.refresh(now=EPOCH + 11)
        ca.refresh(now=EPOCH + 12)  # every second refresh is a rotation
        pulled = world.pull(now=EPOCH + 13)
        assert pulled.key_rotations_applied == 1
        new = replica.signed_root
        assert new.root == old.root and new.signature != old.signature
        self.attach(world, EPOCH + 13)
        assert len(encodes) == 2 and encodes[-1].signed_root == new

    def test_full_chain_proving(self, encodes):
        from repro.ritm.config import RITMConfig
        from tests.ritm.conftest import build_world

        chained = build_world(RITMConfig(delta_seconds=10, chain_length=64, prove_full_chain=True))
        first = self.attach(chained, EPOCH + 10)
        assert first[0] >= 2  # the bundle's status count
        assert self.attach(chained, EPOCH + 11) == first
        encoded = len(encodes)
        for ca in chained.cas:
            ca.refresh(now=EPOCH + 15)
        chained.pull(now=EPOCH + 16)
        assert self.attach(chained, EPOCH + 16) != first
        assert len(encodes) == encoded == first[0]

    def test_a_cleared_proof_cache_encodes_again(self, world, encodes):
        first = self.attach(world, EPOCH + 10)
        world.agent.proof_cache.clear()
        assert self.attach(world, EPOCH + 11) == first
        assert len(encodes) == 2


def server_flight(chain) -> bytes:
    messages = (ServerHello(random=b"\x11" * 32), CertificateMessage(chain), ServerHelloDone())
    return TLSRecord(ContentType.HANDSHAKE, b"".join(m.to_bytes() for m in messages)).to_bytes()


def verdict(result):
    return (
        result.is_tls,
        result.parse_error,
        result.server_session_id,
        result.certificate_chain,
        result.finished_seen,
    )


def distinct_chain(chain, index: int) -> CertificateChain:
    leaf = dataclasses.replace(chain.leaf, serial=SerialNumber(index + 1))
    return CertificateChain((leaf,) + chain.certificates[1:])


class TestDPIChainCache:
    def test_hit_and_miss_return_equal_chains(self, small_corpus):
        dpi = DPIEngine()
        payload = server_flight(small_corpus.chains[0])
        first, second = dpi.inspect(payload), dpi.inspect(payload)
        assert (dpi.chain_cache.stats.misses, dpi.chain_cache.stats.hits) == (1, 1)
        assert first.certificate_chain == second.certificate_chain == small_corpus.chains[0]
        assert verdict(first) == verdict(second) == verdict(DPIEngine().inspect(payload))
        assert dpi.stats.certificates_parsed == 2  # every message seen is counted

    def test_a_warm_engine_gives_every_bit_flip_a_fresh_engines_verdict(self, small_corpus):
        """PR 14's sweep of one server flight, through one engine that has
        already cached the unflipped chain (and every parseable flip of it)."""
        chain = small_corpus.chains[0]
        payload = server_flight(chain)
        body = CertificateMessage(chain).to_bytes()[4:]
        body_at = payload.index(body)
        warm = DPIEngine()
        assert warm.inspect(payload).certificate_chain == chain
        body_flips = 0
        for bit in range(8 * len(payload)):
            mutated = flip_bit(payload, bit)
            hits, misses = warm.chain_cache.stats.hits, warm.chain_cache.stats.misses
            result = warm.inspect(mutated)
            assert verdict(result) == verdict(DPIEngine().inspect(mutated)), bit
            if body_at <= bit // 8 < body_at + len(body):
                body_flips += 1
                # Never answered from the unflipped chain's entry; either a
                # miss, or the walk never reached the Certificate message.
                assert warm.chain_cache.stats.hits == hits
                assert warm.chain_cache.stats.misses <= misses + 1
                if result.parse_error is None and result.is_tls:
                    assert warm.chain_cache.stats.misses == misses + 1
                    assert result.certificate_chain != chain
        assert body_flips == 8 * len(body)
        # ...and the unflipped flight is still answered, by lookup.
        hits = warm.chain_cache.stats.hits
        assert warm.inspect(payload).certificate_chain == chain
        assert warm.chain_cache.stats.hits == hits + 1

    def test_failed_parses_are_not_stored(self, small_corpus):
        dpi = DPIEngine()
        payload = server_flight(small_corpus.chains[0])
        subject_at = payload.index(small_corpus.chains[0].leaf.subject.encode("utf-8"))
        broken = payload[:subject_at] + b"\xff" + payload[subject_at + 1 :]
        for _ in range(3):
            assert dpi.inspect(broken).parse_error is not None
        assert len(dpi.chain_cache) == 0
        assert dpi.chain_cache.stats.misses == 3 and dpi.stats.parse_errors == 3

    def test_the_257th_distinct_chain_evicts_the_least_recent(self, small_corpus):
        dpi = DPIEngine()
        payloads = [
            server_flight(distinct_chain(small_corpus.chains[0], index))
            for index in range(CHAIN_CACHE_CAPACITY + 1)
        ]
        for payload in payloads[:CHAIN_CACHE_CAPACITY]:
            dpi.inspect(payload)
        dpi.inspect(payloads[0])  # the first is now the most recent, the second the least
        assert len(dpi.chain_cache) == CHAIN_CACHE_CAPACITY
        assert dpi.chain_cache.stats.evictions == 0
        dpi.inspect(payloads[-1])
        assert len(dpi.chain_cache) == CHAIN_CACHE_CAPACITY
        assert dpi.chain_cache.stats.evictions == 1
        misses = dpi.chain_cache.stats.misses
        dpi.inspect(payloads[0])
        assert dpi.chain_cache.stats.misses == misses
        dpi.inspect(payloads[1])
        assert dpi.chain_cache.stats.misses == misses + 1

    def test_what_is_cached_is_structure_not_a_verdict(self, world):
        """A chain the RA has parsed before is still proved per handshake: a
        revocation between two sightings changes the attached status."""
        from tests.ritm.test_agent import client_hello_packet, server_flight_packet, statuses_in

        chain = world.corpus.chains[0]
        world.agent.process_packet(client_hello_packet(), now=EPOCH + 10)
        out = world.agent.process_packet(server_flight_packet(chain), now=EPOCH + 11)
        assert not statuses_in(out[0])[0].is_revoked
        world.ca_by_name(chain.leaf.issuer).revoke([chain.leaf.serial], now=EPOCH + 12)
        world.pull(now=EPOCH + 13)
        world.agent.process_packet(client_hello_packet(), now=EPOCH + 14)
        out = world.agent.process_packet(server_flight_packet(chain), now=EPOCH + 15)
        assert world.agent.dpi.chain_cache.stats.hits >= 1
        assert statuses_in(out[0])[0].is_revoked


class TestClientChainMemo:
    """The client answers a ``Certificate`` body it has parsed before by
    lookup in its ``ChainValidationCache`` — and still validates every time."""

    @pytest.fixture()
    def parses(self, monkeypatch):
        """Every ``CertificateChain.from_bytes`` call, as the body it was given."""
        seen = []
        parse = CertificateChain.from_bytes.__func__

        def counting(cls, data):
            seen.append(bytes(data))
            return parse(cls, data)

        monkeypatch.setattr(CertificateChain, "from_bytes", classmethod(counting))
        return seen

    @staticmethod
    def handshake(corpus, cache, payload) -> TLSClientConnection:
        """A fresh connection fed one server flight, validating through ``cache``."""
        name = corpus.chains[0].leaf.subject
        client = TLSClientConnection(
            ClientConnectionConfig(server_name=name, validation_cache=cache), corpus.trust_store
        )
        client.client_hello()
        (record,) = parse_records(payload)
        client.process_record(record, EPOCH + 10)
        return client

    def test_a_repeated_body_is_parsed_once_and_validated_every_time(self, small_corpus, parses):
        cache = ChainValidationCache()
        payload = server_flight(small_corpus.chains[0])
        chains = [self.handshake(small_corpus, cache, payload).server_chain for _ in range(3)]
        assert len(parses) == 1
        assert chains[0] == chains[1] == chains[2] == small_corpus.chains[0]
        assert chains[0].to_bytes() == small_corpus.chains[0].to_bytes()
        # The memo is not a verdict and is not counted as one.
        assert (cache.stats.misses, cache.stats.hits, len(cache)) == (1, 2, 1)

    def test_a_body_one_bit_different_is_parsed_again(self, small_corpus, parses):
        cache = ChainValidationCache()
        chain = small_corpus.chains[0]
        payload = server_flight(chain)
        assert self.handshake(small_corpus, cache, payload).server_chain == chain
        at = payload.index(chain.leaf.signature)
        with pytest.raises(CertificateError, match="standard validation failed"):
            self.handshake(small_corpus, cache, flip_bit(payload, 8 * at))
        assert len(parses) == 2 and parses[0] != parses[1]
        assert len(cache) == 1  # the forged chain left no verdict behind
        assert self.handshake(small_corpus, cache, payload).server_chain == chain
        assert len(parses) == 2

    def test_a_failed_parse_is_never_stored(self, small_corpus, parses):
        cache = ChainValidationCache()
        payload = server_flight(small_corpus.chains[0])
        subject_at = payload.index(small_corpus.chains[0].leaf.subject.encode("utf-8"))
        broken = payload[:subject_at] + b"\xff" + payload[subject_at + 1 :]
        for attempt in range(1, 4):
            with pytest.raises(TLSError, match="malformed Certificate message"):
                self.handshake(small_corpus, cache, broken)
            assert len(parses) == attempt
        assert cache.stats.lookups == 0

    def test_maxsize_zero_parses_every_time(self, small_corpus, parses):
        payload = server_flight(small_corpus.chains[0])
        for cache in (ChainValidationCache(maxsize=0), None):  # None: the private disabled one
            del parses[:]
            for _ in range(3):
                client = self.handshake(small_corpus, cache, payload)
                assert client.server_chain == small_corpus.chains[0]
            assert len(parses) == 3
            assert len(client.config.validation_cache) == 0

    def test_the_bound_is_the_caches_own(self, small_corpus, parses):
        cache = ChainValidationCache(maxsize=2)
        payloads = [server_flight(distinct_chain(small_corpus.chains[0], n)) for n in range(3)]
        for payload in payloads + payloads[:1]:
            with pytest.raises(CertificateError):  # re-serialled leaves do not verify
                self.handshake(small_corpus, cache, payload)
        assert len(parses) == 4  # the first was evicted by the third


def status_handshake(world, root_cache, payload, now, chains, ca_public_keys=None):
    """A fresh RITM client fed the server flight plus one status record whose
    payload is ``payload``, checking statuses through ``root_cache``."""
    chain = world.corpus.chains[0]
    client = RITMClient(
        ip_address=FLOW.src_ip,
        server_name=chain.leaf.subject,
        trust_store=world.trust_store,
        ca_public_keys=ca_public_keys or world.ca_public_keys(),
        config=world.config,
        root_cache=root_cache,
        validation_cache=chains,
    )
    client.client_hello_packet(FLOW, now=now)
    record = TLSRecord(ContentType.RITM_STATUS, payload)
    packet = Packet(
        flow=FLOW.reversed(),
        payload=server_flight(chain) + record.to_bytes(),
        direction=Direction.SERVER_TO_CLIENT,
    )
    client.handle_packet(packet, now=now)
    return client


def client_verdict(client):
    return (
        client.rejection,
        client.rejection_detail,
        client.connection_accepted,
        dataclasses.astuple(client.stats),
    )


class TestClientStatusMemo:
    """A client answers a status record whose exact bytes passed the signature
    and Merkle checks before from its root cache's status memo — skipping the
    decode and the Merkle check, and nothing else."""

    NOW = EPOCH + 11

    @pytest.fixture()
    def chains(self):
        return ChainValidationCache()

    @staticmethod
    def honest_record(world) -> bytes:
        leaf = world.corpus.chains[0].leaf
        return encode_status_bundle([world.agent.build_status(leaf.issuer, leaf.serial)])

    @pytest.fixture()
    def decodes(self, monkeypatch):
        """Every status record the client decodes."""
        seen = []

        def counting(data):
            seen.append(data)
            return decode_status_bundle(data)

        monkeypatch.setattr(client_module, "decode_status_bundle", counting)
        return seen

    def test_a_repeat_is_answered_by_lookup(self, world, chains, decodes):
        cache = VerifiedRootCache()
        payload = self.honest_record(world)
        clients = [status_handshake(world, cache, payload, self.NOW, chains) for _ in range(3)]
        assert len(decodes) == 1
        assert (cache.statuses.stats.misses, cache.statuses.stats.hits) == (1, 2)
        for client in clients:
            assert client.rejection is None and client.stats.statuses_valid == 1
        assert clients[0].last_status == clients[2].last_status
        # The memo is not a verdict and is not counted as one: one root
        # lookup per status, as without it.
        assert (cache.stats.misses, cache.stats.hits) == (1, 2)

    def test_every_bit_flip_gets_a_fresh_clients_verdict_and_never_a_hit(self, world, chains):
        payload = self.honest_record(world)
        warm = VerifiedRootCache(maxsize=16 * len(payload))  # no flip evicts the honest entry
        assert status_handshake(world, warm, payload, self.NOW, chains).rejection is None
        memo = warm.statuses.stats
        for bit in range(8 * len(payload)):
            mutated = flip_bit(payload, bit)
            hits, misses = memo.hits, memo.misses
            through_warm = status_handshake(world, warm, mutated, self.NOW, chains)
            fresh = status_handshake(world, None, mutated, self.NOW, chains)
            assert client_verdict(through_warm) == client_verdict(fresh), bit
            assert (memo.hits, memo.misses) == (hits, misses + 1), bit
        hits = memo.hits
        assert status_handshake(world, warm, payload, self.NOW, chains).rejection is None
        assert memo.hits == hits + 1

    def test_the_same_bytes_past_two_delta_are_stale_on_a_hit(self, world, chains):
        cache = VerifiedRootCache()
        payload = self.honest_record(world)
        assert status_handshake(world, cache, payload, self.NOW, chains).rejection is None
        late = self.NOW + 3 * world.config.delta_seconds
        client = status_handshake(world, cache, payload, late, chains)
        assert cache.statuses.stats.hits == 1
        assert client.rejection is RejectionReason.STALE_STATUS
        assert client_verdict(client) == client_verdict(
            status_handshake(world, None, payload, late, chains)
        )

    def test_a_revoked_status_rejects_on_a_hit(self, world, chains):
        leaf = world.corpus.chains[0].leaf
        world.ca_by_name(leaf.issuer).revoke([leaf.serial], now=EPOCH + 8)
        world.pull(now=EPOCH + 9)
        payload = self.honest_record(world)
        cache = VerifiedRootCache()
        for lookups in (1, 2):
            client = status_handshake(world, cache, payload, self.NOW, chains)
            assert client.rejection is RejectionReason.CERTIFICATE_REVOKED
            assert cache.statuses.stats.lookups == lookups
        assert cache.statuses.stats.hits == 1

    def test_a_client_with_another_key_for_the_ca_rejects_on_a_hit(self, world, chains):
        cache = VerifiedRootCache()
        payload = self.honest_record(world)
        assert status_handshake(world, cache, payload, self.NOW, chains).rejection is None
        keys = {**world.ca_public_keys(), world.corpus.chains[0].leaf.issuer: OTHER_KEYS.public}
        client = status_handshake(world, cache, payload, self.NOW, chains, keys)
        assert cache.statuses.stats.hits == 1  # the structure is shared...
        assert client.rejection is RejectionReason.INVALID_STATUS  # ...the verdict is not
        assert "failed verification" in client.rejection_detail

    def test_a_failed_check_is_never_stored(self, world, chains, decodes):
        cache = VerifiedRootCache()
        status = world.agent.build_status(
            world.corpus.chains[0].leaf.issuer, world.corpus.chains[0].leaf.serial
        )
        # An absence proof of the right serial from a tree the root does not
        # commit to: the Merkle check fails.
        forged_tree = create_store("incremental")
        forged_tree.insert(SerialNumber(status.serial.value + 1).to_bytes(), b"\x00\x00\x00\x01")
        lying = dataclasses.replace(
            status, proof=forged_tree.prove_absence(status.serial.to_bytes())
        )
        for payload in (encode_status_bundle([lying]), b"\x01\x00"):
            for _ in range(2):
                client = status_handshake(world, cache, payload, self.NOW, chains)
                assert client.rejection is RejectionReason.INVALID_STATUS
        assert len(decodes) == 4 and len(cache.statuses) == 0

    def test_maxsize_zero_decodes_every_time(self, world, chains, decodes):
        payload = self.honest_record(world)
        for cache in (VerifiedRootCache(maxsize=0), None):  # None: the client's own, per client
            del decodes[:]
            for _ in range(3):
                client = status_handshake(world, cache, payload, self.NOW, chains)
                assert client.rejection is None
            assert len(decodes) == 3
            assert len(client.root_cache.statuses) == (0 if cache is not None else 1)


class TestMalformedSerialInAStatusRecord:
    """ROADMAP item 2-i: a zero-length or 21-byte serial — the proof's key,
    which is the status's one serial field — inside a ``RITM_STATUS`` record
    is a malformed message, not a ``ValueError``."""

    @staticmethod
    def bundle_with_serial_field(status, serial_field: bytes) -> bytes:
        data = encode_status_bundle([status])
        serial_at = 1 + 2 + 1  # count, status frame, proof tag
        old = status.serial.to_bytes()
        assert data[serial_at : serial_at + 2 + len(old)] == len(old).to_bytes(2, "big") + old
        body = (
            data[3:serial_at]
            + len(serial_field).to_bytes(2, "big")
            + serial_field
            + data[serial_at + 2 + len(old) :]
        )
        return b"\x01" + len(body).to_bytes(2, "big") + body

    @pytest.mark.parametrize("serial_field", [b"", b"\x01" * 21], ids=["empty", "21-bytes"])
    def test_the_codec_raises_its_own_error(self, dictionary, serial_field):
        status = dictionary.prove(SerialNumber(15))
        assert decode_status_bundle(self.bundle_with_serial_field(status, status.serial.to_bytes()))
        with pytest.raises(TLSError, match="malformed serial"):
            decode_status_bundle(self.bundle_with_serial_field(status, serial_field))

    @pytest.mark.parametrize("serial_field", [b"", b"\x01" * 21], ids=["empty", "21-bytes"])
    def test_the_client_rejects_the_connection(self, world, serial_field):
        from repro.net.packet import Direction, Packet
        from repro.ritm.client import RejectionReason, RITMClient
        from tests.ritm.test_agent import FLOW

        chain = world.corpus.chains[0]
        client = RITMClient(
            ip_address=FLOW.src_ip,
            server_name=chain.leaf.subject,
            trust_store=world.trust_store,
            ca_public_keys=world.ca_public_keys(),
            config=world.config,
        )
        client.client_hello_packet(FLOW, now=EPOCH + 10)
        status = world.agent.build_status(chain.leaf.issuer, chain.leaf.serial)
        record = TLSRecord(
            ContentType.RITM_STATUS, self.bundle_with_serial_field(status, serial_field)
        )
        packet = Packet(
            flow=FLOW.reversed(),
            payload=server_flight(chain) + record.to_bytes(),
            direction=Direction.SERVER_TO_CLIENT,
        )
        assert client.handle_packet(packet, now=EPOCH + 11) == []
        assert client.rejection is RejectionReason.INVALID_STATUS
        assert client.stats.statuses_invalid == 1

    @pytest.mark.parametrize("serial_field", [b"", b"\x01" * 21], ids=["empty", "21-bytes"])
    def test_a_downstream_ra_forwards_the_packet_and_counts_it(self, world, serial_field):
        from repro.net.packet import Packet
        from tests.ritm.test_agent import client_hello_packet, server_flight_packet, statuses_in

        chain = world.corpus.chains[0]
        status = world.agent.build_status(chain.leaf.issuer, chain.leaf.serial)
        crafted = TLSRecord(
            ContentType.RITM_STATUS, self.bundle_with_serial_field(status, serial_field)
        )
        flight = server_flight_packet(chain)
        upstream = Packet(
            flow=flight.flow,
            payload=flight.payload + crafted.to_bytes(),
            direction=flight.direction,
        )
        world.agent.process_packet(client_hello_packet(), now=EPOCH + 10)
        out = world.agent.process_packet(upstream, now=EPOCH + 11)
        assert len(out) == 1
        # The undecodable record is dropped and the RA's own status rides instead.
        assert [s.serial for s in statuses_in(out[0])] == [chain.leaf.serial]
        assert world.agent.stats.statuses_replaced == 1
