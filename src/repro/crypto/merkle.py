"""Sorted-Merkle-tree proof objects: presence and absence proofs.

This is the proof format underlying RITM's authenticated dictionaries (paper
§II, §III).  Leaves are ``(key, value)`` pairs kept in lexicographic order of
their keys; in RITM the key is a certificate serial number and the value is
the revocation's sequence number within the CA's dictionary.

The *construction* of trees and proofs lives behind the pluggable store
engines of :mod:`repro.store` (``NaiveMerkleStore``, ``IncrementalMerkleStore``,
...); this module defines what verifiers see: the leaf encoding, the audit
path shape, and the proof dataclasses.  An audit path is its sibling digests
alone, leaf first, as in RFC 6962 §2.1.1: how many there are and which side
each sits on follow from the leaf's index and the tree's size
(:func:`expected_sides`), so no path stores or sends them.

Because the leaves are sorted, the tree can prove two kinds of statements
about a queried key:

* *presence*: the key is in the tree — an ordinary audit path from the leaf
  to the root;
* *absence*: the key is not in the tree — audit paths for the two adjacent
  leaves that would surround the key, showing they sit at consecutive leaf
  positions and that the queried key falls strictly between them (with the
  obvious one-sided variants when the key would sort before the first or
  after the last leaf, and a trivial variant for the empty tree).

Proof sizes are logarithmic in the number of leaves, which is what gives RITM
its 500–900-byte revocation statuses even for the largest CRL in the paper's
dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.crypto.hashing import DEFAULT_DIGEST_SIZE, NODE_PREFIX, hash_leaf, raw_sha256


#: Sentinel digest for the empty tree: the hash of an empty leaf namespace.
def empty_root(digest_size: int = DEFAULT_DIGEST_SIZE) -> bytes:
    """Root digest of a tree with no leaves."""
    return hash_leaf(b"", digest_size)


def encode_leaf(key: bytes, value: bytes) -> bytes:
    """Length-prefixed leaf encoding (prevents key/value boundary ambiguity)."""
    return len(key).to_bytes(2, "big") + key + value


@dataclass(frozen=True)
class PresenceProof:
    """Proof that ``(key, value)`` is the leaf at ``leaf_index`` of the tree.

    ``path`` is the audit path's sibling digests, leaf first; the side of
    each is :func:`expected_sides` of ``(leaf_index, tree_size)``.
    """

    key: bytes
    value: bytes
    leaf_index: int
    tree_size: int
    path: Tuple[bytes, ...]

    def verify(self, expected_root: bytes, digest_size: int = DEFAULT_DIGEST_SIZE) -> bool:
        """Recompute the root from the leaf and its path; compare it with
        ``expected_root``.

        The path must hold exactly one sibling per side :func:`expected_sides`
        gives the claimed position, and it is hashed on those sides.  This
        binds ``leaf_index`` to the root, which the absence proof's adjacency
        check depends on.
        """
        if self.leaf_index < 0 or self.leaf_index >= self.tree_size:
            return False
        sides = expected_sides(self.leaf_index, self.tree_size)
        if len(self.path) != len(sides):
            return False
        # ``hash_leaf`` range-checks ``digest_size`` for the whole walk.
        digest = hash_leaf(encode_leaf(self.key, self.value), digest_size)
        for sibling, sibling_is_left in zip(self.path, sides):
            pair = sibling + digest if sibling_is_left else digest + sibling
            digest = raw_sha256(NODE_PREFIX + pair).digest()[:digest_size]
        return digest == expected_root


def expected_sides(leaf_index: int, tree_size: int) -> List[bool]:
    """Sibling sides an honest audit path has at this position and size.

    The one place a side exists: a path's length and the side of each of its
    siblings follow from ``(leaf_index, tree_size)`` alone, so paths hold
    digests only, :meth:`PresenceProof.verify` hashes them on these sides
    and refuses any other count, and the proof codec
    (:mod:`repro.ritm.messages`) sends neither.  ``leaf_index`` must lie in
    ``[0, tree_size)``.

    At ``level`` the node is ``leaf_index >> level`` and the last node of the
    level is ``last >> level``: a sibling exists unless the node is that last
    node with an even index (promoted without a hash), and it is on the left
    exactly when the node's index is odd.
    """
    last = tree_size - 1
    return [
        leaf_index >> level & 1 == 1
        for level in range(last.bit_length())
        if leaf_index >> level ^ 1 <= last >> level
    ]


@dataclass(frozen=True)
class AbsenceProof:
    """Proof that ``key`` is not present in the tree.

    ``left`` is the presence proof of the greatest leaf smaller than ``key``
    (``None`` if the key would sort before every leaf) and ``right`` the
    smallest leaf greater than ``key`` (``None`` if it would sort after every
    leaf).  For an empty tree both are ``None`` and ``tree_size`` is zero.
    """

    key: bytes
    tree_size: int
    left: Optional[PresenceProof] = None
    right: Optional[PresenceProof] = None

    def verify(self, expected_root: bytes, digest_size: int = DEFAULT_DIGEST_SIZE) -> bool:
        """Check adjacency, ordering, and both audit paths against the root."""
        if self.tree_size == 0:
            return self.left is None and self.right is None and (
                expected_root == empty_root(digest_size)
            )
        if self.left is None and self.right is None:
            return False
        if self.left is not None:
            if not self.left.verify(expected_root, digest_size):
                return False
            if not self.left.key < self.key:
                return False
            if self.left.tree_size != self.tree_size:
                return False
        if self.right is not None:
            if not self.right.verify(expected_root, digest_size):
                return False
            if not self.key < self.right.key:
                return False
            if self.right.tree_size != self.tree_size:
                return False
        if self.left is not None and self.right is not None:
            # The two leaves must be adjacent: nothing can hide between them.
            if self.right.leaf_index != self.left.leaf_index + 1:
                return False
        elif self.left is None:
            # Key sorts before every leaf: the right neighbour must be leaf 0.
            if self.right.leaf_index != 0:
                return False
        else:
            # Key sorts after every leaf: the left neighbour must be the last leaf.
            if self.left.leaf_index != self.tree_size - 1:
                return False
        return True


MembershipProof = Union[PresenceProof, AbsenceProof]


__all__ = [
    "PresenceProof",
    "AbsenceProof",
    "MembershipProof",
    "empty_root",
    "encode_leaf",
    "expected_sides",
]
