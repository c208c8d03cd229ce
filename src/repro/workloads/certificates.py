"""Synthetic certificate corpora.

Examples, integration tests, and the Table III timing harness need realistic
populations of CAs, server certificates, and chains.  This module builds them
deterministically: a configurable number of root/intermediate CAs, a set of
server certificates distributed across CAs, and helpers to pick victims for
revocation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.crypto.signing import KeyPair
from repro.pki.ca import CertificationAuthority, TrustStore
from repro.pki.certificate import CertificateChain


@dataclass
class CertificateCorpus:
    """A world of CAs and the server chains they issued."""

    authorities: List[CertificationAuthority]
    trust_store: TrustStore
    chains: List[CertificateChain]
    chains_by_ca: Dict[str, List[CertificateChain]] = field(default_factory=dict)

    def ca_public_keys(self) -> Dict[str, object]:
        """Issuer name -> Ed25519 public key for every modelled CA."""
        return {authority.name: authority.public_key for authority in self.authorities}

    def chain_for_domain(self, domain: str) -> Optional[CertificateChain]:
        """The chain whose leaf certifies ``domain``, if one was generated."""
        for chain in self.chains:
            if chain.leaf.subject == domain:
                return chain
        return None

    def authority_by_name(self, name: str) -> Optional[CertificationAuthority]:
        """Look up one of the corpus CAs by its issuer name."""
        for authority in self.authorities:
            if authority.name == name:
                return authority
        return None


def generate_corpus(
    ca_count: int = 3,
    domains_per_ca: int = 5,
    use_intermediates: bool = True,
    now: int = 1_400_000_000,
    seed: int = 11,
) -> CertificateCorpus:
    """Build ``ca_count`` CAs, each issuing ``domains_per_ca`` server chains.

    When ``use_intermediates`` is set, each root signs one intermediate CA and
    server certificates are issued by the intermediate, giving the 3-element
    chains the paper calls the most common case (§VII-D).
    """
    rng = random.Random(seed)
    authorities: List[CertificationAuthority] = []
    issuing: List[CertificationAuthority] = []
    trust_store = TrustStore()

    for index in range(ca_count):
        root = CertificationAuthority(f"Root-CA-{index}", key_seed=f"root-{index}-{seed}".encode())
        trust_store.add(root)
        authorities.append(root)
        if use_intermediates:
            intermediate = CertificationAuthority(
                f"Issuing-CA-{index}",
                key_seed=f"intermediate-{index}-{seed}".encode(),
                parent=root,
            )
            authorities.append(intermediate)
            issuing.append(intermediate)
        else:
            issuing.append(root)

    chains: List[CertificateChain] = []
    chains_by_ca: Dict[str, List[CertificateChain]] = {}
    tlds = ["com", "org", "net", "io", "ch"]
    for ca_index, authority in enumerate(issuing):
        for domain_index in range(domains_per_ca):
            domain = f"site{ca_index}-{domain_index}.{rng.choice(tlds)}"
            keys = KeyPair.generate(f"{domain}-{seed}".encode())
            chain = authority.issue_chain_for(domain, keys.public, now=now)
            chains.append(chain)
            chains_by_ca.setdefault(authority.name, []).append(chain)

    return CertificateCorpus(
        authorities=authorities,
        trust_store=trust_store,
        chains=chains,
        chains_by_ca=chains_by_ca,
    )
