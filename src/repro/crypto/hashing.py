"""Hash primitives used throughout RITM.

The paper (§VI) uses SHA-256 truncated to its first 20 bytes for every hash
in the system: hash-chain links, Merkle-tree nodes, and leaf digests.  This
module centralises that choice so the truncation length can be varied for the
ablation benches (20-byte vs. full 32-byte output).

Domain separation
-----------------
Merkle leaves and interior nodes are hashed with distinct one-byte prefixes
(``0x00`` for leaves, ``0x01`` for interior nodes) so that a leaf digest can
never be confused with an interior digest — the standard defence against
second-preimage tree-grafting attacks (RFC 6962 uses the same trick).
Hash-chain links use prefix ``0x02``.
"""

from __future__ import annotations

#: The interpreter's builtin SHA-256 constructor, which skips ``hashlib``'s
#: OpenSSL dispatch (~20 % per short message).  The store engines' level
#: loops and the helpers below all hash through this one name; no other
#: module imports the private builtin.
try:  # CPython >= 3.12
    from _sha2 import sha256 as raw_sha256
except ImportError:
    try:  # CPython <= 3.11
        from _sha256 import sha256 as raw_sha256
    except ImportError:  # pragma: no cover - no builtin module on this platform
        from hashlib import sha256 as raw_sha256

#: Number of bytes kept from the SHA-256 output (paper §VI: "we truncated its
#: output to the first 20 bytes").
DEFAULT_DIGEST_SIZE = 20

#: Full SHA-256 output size, used by the ablation benchmarks.
FULL_DIGEST_SIZE = 32

#: Domain-separation prefixes (public so the store engines can inline the
#: hashing loop without re-declaring them; the values are pinned by the proof
#: format and must never change).
LEAF_PREFIX = b"\x00"
NODE_PREFIX = b"\x01"
CHAIN_PREFIX = b"\x02"


def sha256(data: bytes) -> bytes:
    """Return the full 32-byte SHA-256 digest of ``data``."""
    return raw_sha256(data).digest()


def hash_leaf(data: bytes, digest_size: int = DEFAULT_DIGEST_SIZE) -> bytes:
    """Hash a Merkle-tree leaf with leaf domain separation."""
    if not 1 <= digest_size <= FULL_DIGEST_SIZE:
        raise _bad_digest_size(digest_size)
    return raw_sha256(LEAF_PREFIX + data).digest()[:digest_size]


def hash_node(left: bytes, right: bytes, digest_size: int = DEFAULT_DIGEST_SIZE) -> bytes:
    """Hash two child digests into an interior Merkle node."""
    if not 1 <= digest_size <= FULL_DIGEST_SIZE:
        raise _bad_digest_size(digest_size)
    return raw_sha256(NODE_PREFIX + left + right).digest()[:digest_size]


def hash_chain_link(value: bytes, digest_size: int = DEFAULT_DIGEST_SIZE) -> bytes:
    """Apply one hash-chain step (the ``H`` in ``H^m(v)``)."""
    if not 1 <= digest_size <= FULL_DIGEST_SIZE:
        raise _bad_digest_size(digest_size)
    return raw_sha256(CHAIN_PREFIX + value).digest()[:digest_size]


def _bad_digest_size(digest_size: int) -> ValueError:
    return ValueError(
        f"digest_size must be between 1 and {FULL_DIGEST_SIZE}, got {digest_size}"
    )
