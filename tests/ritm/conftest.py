"""Shared fixtures for the RITM core tests: a small but complete deployment."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import pytest

from repro.cdn.geography import GeoLocation, Region
from repro.cdn.network import CDNNetwork
from repro.pki.ca import CertificationAuthority, TrustStore
from repro.ritm.agent import RevocationAgent
from repro.ritm.ca_service import RITMCertificationAuthority
from repro.ritm.config import RITMConfig
from repro.ritm.dissemination import RADisseminationClient, attach_agent_to_cas
from repro.ritm.messages import KeyAnnouncement, encode_key_announcements
from repro.workloads.certificates import CertificateCorpus, generate_corpus

#: Simulation epoch: certificates in the corpus are issued at 1_400_000_000.
EPOCH = 1_400_000_000


def flip_bit(data: bytes, bit: int) -> bytes:
    """``data`` with one bit inverted (bit 0 = least significant bit of byte 0)."""
    flipped = bytearray(data)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


def oversized_key_chain(ca) -> bytes:
    """A key-announcement chain for ``ca``: its genesis key at epoch 0, then
    a forged rotation link whose ``activated_at`` does not fit the u64 its
    signed payload packs."""
    genesis = KeyAnnouncement(
        ca_name=ca.name,
        key_epoch=0,
        public_key_bytes=ca.keyring.genesis.key_bytes,
        activated_at=0,
        overlap_seconds=0,
    )
    forged = KeyAnnouncement(
        ca_name=ca.name,
        key_epoch=1,
        public_key_bytes=bytes(32),
        activated_at=2**64,
        overlap_seconds=0,
        signature=bytes(64),
    )
    return encode_key_announcements((genesis, forged))


def build_stack(engine="incremental", ca_name="Stack CA"):
    """A bootstrapped CA + CDN plus a factory for attached agents."""
    config = RITMConfig(delta_seconds=10, chain_length=64, store_engine=engine)
    authority = CertificationAuthority(ca_name, key_seed=ca_name.encode())
    cdn = CDNNetwork()
    ca = RITMCertificationAuthority(authority, config, cdn)
    ca.bootstrap(now=100)

    def attach(name, region=Region.EUROPE, streaming=False):
        agent = RevocationAgent(name, config)
        client = attach_agent_to_cas(agent, [ca], cdn, GeoLocation(region))
        client.segment_streaming = streaming
        return agent, client

    return config, ca, cdn, attach


@dataclass
class RITMWorld:
    """Everything a test needs: CAs, CDN, an RA kept in sync, and TLS chains."""

    config: RITMConfig
    corpus: CertificateCorpus
    cdn: CDNNetwork
    cas: List[RITMCertificationAuthority]
    agent: RevocationAgent
    dissemination: RADisseminationClient

    @property
    def trust_store(self) -> TrustStore:
        return self.corpus.trust_store

    def ca_public_keys(self) -> Dict[str, object]:
        return {ca.name: ca.public_key for ca in self.cas}

    def ca_by_name(self, name: str) -> RITMCertificationAuthority:
        for ca in self.cas:
            if ca.name == name:
                return ca
        raise KeyError(name)

    def pull(self, now: float):
        return self.dissemination.pull(now)


def build_world(config: RITMConfig | None = None, now: float = EPOCH + 5) -> RITMWorld:
    config = config if config is not None else RITMConfig(delta_seconds=10, chain_length=64)
    corpus = generate_corpus(ca_count=2, domains_per_ca=2, use_intermediates=True, now=EPOCH)
    cdn = CDNNetwork()
    cas = []
    for authority in corpus.authorities:
        ca = RITMCertificationAuthority(authority, config, cdn)
        ca.bootstrap(now=now)
        cas.append(ca)
    agent = RevocationAgent("test-ra", config)
    dissemination = attach_agent_to_cas(agent, cas, cdn, GeoLocation(Region.EUROPE))
    dissemination.pull(now=now + 1)
    return RITMWorld(
        config=config,
        corpus=corpus,
        cdn=cdn,
        cas=cas,
        agent=agent,
        dissemination=dissemination,
    )


@pytest.fixture()
def world() -> RITMWorld:
    return build_world()
