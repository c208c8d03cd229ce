"""Cryptographic substrate: hashing, hash chains, Merkle trees, Ed25519.

Everything RITM signs or proves rests on this package.  The public surface is
re-exported here so the rest of the library imports from ``repro.crypto``
rather than from individual modules.
"""

from repro.crypto.hashchain import HashChain, chain_apply, statement_age, verify_freshness
from repro.crypto.hashing import (
    DEFAULT_DIGEST_SIZE,
    FULL_DIGEST_SIZE,
    hash_chain_link,
    hash_data,
    hash_leaf,
    hash_node,
    sha256,
)
from repro.crypto.merkle import (
    AbsenceProof,
    AuditStep,
    MembershipProof,
    PresenceProof,
    empty_root,
    encode_leaf,
)
from repro.crypto.signing import (
    PUBLIC_KEY_SIZE,
    SIGNATURE_SIZE,
    KeyPair,
    PrivateKey,
    PublicKey,
    verify_batch,
)

__all__ = [
    "DEFAULT_DIGEST_SIZE",
    "FULL_DIGEST_SIZE",
    "hash_data",
    "hash_leaf",
    "hash_node",
    "hash_chain_link",
    "sha256",
    "HashChain",
    "chain_apply",
    "verify_freshness",
    "statement_age",
    "PresenceProof",
    "AbsenceProof",
    "AuditStep",
    "MembershipProof",
    "empty_root",
    "encode_leaf",
    "KeyPair",
    "PrivateKey",
    "PublicKey",
    "SIGNATURE_SIZE",
    "PUBLIC_KEY_SIZE",
    "verify_batch",
]
