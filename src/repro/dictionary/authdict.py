"""Authenticated dictionaries: CA-side master copy and RA-side replicas.

This module implements the interface of the paper's Fig. 2:

* ``insert``  — executed by a CA revoking one or more serials; appends the
  serials (with consecutive revocation numbers), rebuilds the tree, starts a
  fresh hash chain, and returns the signed root (Eq. 1);
* ``update``  — executed by an RA on a revocation-issuance message; applies
  the same serials to its replica and accepts the change only if the
  recomputed root, size, and signature all match;
* ``refresh`` — executed by a CA at least every Δ when no revocation was
  issued; releases the next freshness statement, or signs a new root when the
  hash chain is exhausted;
* ``prove``   — executed by an RA (or CA) for a queried serial; returns the
  revocation status of Eq. 3.

Revocation numbers start at 1 and increase by one per revocation, enforcing
the append-only, totally-ordered history that makes equivocation detectable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.crypto.hashchain import HashChain
from repro.crypto.hashing import DEFAULT_DIGEST_SIZE
from repro.crypto.signing import KeyPair, PublicKey
from repro.store import create_store
from repro.dictionary.freshness import FreshnessStatement, periods_elapsed
from repro.dictionary.proofs import RevocationStatus
from repro.dictionary.signed_root import SignedRoot
from repro.errors import (
    DesynchronizedError,
    DictionaryError,
    ProofError,
    ReplayError,
    SignatureError,
)
from repro.perf.root_cache import VerifiedRootCache
from repro.pki.serial import SerialNumber

#: Default hash-chain length: enough freshness statements for one day of
#: 10-second periods before a new signed root is required.
DEFAULT_CHAIN_LENGTH = 8640


def _number_to_value(number: int) -> bytes:
    """Leaf value encoding of the revocation sequence number."""
    return number.to_bytes(4, "big")


def _value_to_number(value: bytes) -> int:
    return int.from_bytes(value, "big")


@dataclass(frozen=True)
class RevocationIssuance:
    """The message a CA hands to the dissemination network when it revokes.

    Contains the newly revoked serials (in revocation order) and the new
    signed root covering the dictionary with those serials appended.
    """

    ca_name: str
    serials: Tuple[SerialNumber, ...]
    first_number: int
    signed_root: SignedRoot

    def numbered_serials(self) -> List[Tuple[int, SerialNumber]]:
        return [
            (self.first_number + offset, serial)
            for offset, serial in enumerate(self.serials)
        ]


class _DictionaryCore:
    """State shared by the CA master dictionary and RA replicas.

    ``engine`` selects the :mod:`repro.store` backend per dictionary; the
    default (``None``) resolves to :data:`repro.store.DEFAULT_ENGINE`.
    """

    def __init__(
        self,
        ca_name: str,
        digest_size: int = DEFAULT_DIGEST_SIZE,
        engine: Optional[str] = None,
    ) -> None:
        self.ca_name = ca_name
        self._digest_size = digest_size
        #: The store is the only per-entry structure a dictionary owns: the
        #: leaf value *is* the revocation number.
        self._tree = create_store(engine, digest_size=digest_size)

    @property
    def store_engine(self) -> str:
        """Registry name of the store engine backing this dictionary."""
        return self._tree.engine_name

    def close(self) -> None:
        """Release the backing store's persistent resources (if any).

        Part of the explicit lifecycle the durable engine introduced: every
        layer that owns dictionaries (:class:`~repro.ritm.agent.RevocationAgent`,
        :class:`~repro.ritm.ca_service.RITMCertificationAuthority`, the
        scenario runner) closes them when done.  Safe to call twice.
        """
        self._tree.close()

    def leaf_items(self) -> List[Tuple[bytes, bytes]]:
        """The exact ``(key, value)`` leaf set, for snapshots/checkpoints."""
        return list(self._tree.items())

    def __len__(self) -> int:
        return len(self._tree)

    @property
    def size(self) -> int:
        return len(self._tree)

    def root(self) -> bytes:
        return self._tree.root()

    def contains(self, serial: SerialNumber) -> bool:
        return serial.to_bytes() in self._tree

    def revocation_number(self, serial: SerialNumber) -> Optional[int]:
        value = self._tree.get(serial.to_bytes())
        return None if value is None else _value_to_number(value)

    def _append(self, serials: Sequence[SerialNumber], first_number: int) -> None:
        """Append serials with consecutive numbers in one store transaction."""
        if first_number != self.size + 1:
            raise DesynchronizedError(
                f"dictionary for {self.ca_name!r} has {self.size} revocations but the "
                f"message numbers its first serial {first_number}"
            )
        try:
            # The store rejects a repeat (within the batch or against itself)
            # before it mutates or logs anything.
            self._tree.insert_batch(
                (serial.to_bytes(), _number_to_value(number))
                for number, serial in enumerate(serials, first_number)
            )
        except ProofError as exc:
            raise DictionaryError(
                f"a serial is already revoked in {self.ca_name!r}'s dictionary: {exc}"
            ) from None

    def prove_membership(self, serial: SerialNumber):
        return self._tree.prove(serial.to_bytes())

    def storage_size_bytes(self) -> int:
        """Approximate persistent storage: serial + revocation number per entry.

        This mirrors the paper's §VII-D storage estimate, which counts only
        the revocation entries (the tree itself can be rebuilt from them).
        """
        per_entry = 0
        for key in self._tree.keys():
            per_entry += len(key) + 4
        return per_entry

    def memory_size_bytes(self) -> int:
        """Approximate working-set size with the hash tree materialised."""
        entries = self.storage_size_bytes()
        # A binary tree over n leaves has ~2n digests of digest_size bytes.
        return entries + 2 * self.size * self._digest_size


class CADictionary(_DictionaryCore):
    """The master authenticated dictionary owned and signed by one CA."""

    def __init__(
        self,
        ca_name: str,
        keys: KeyPair,
        delta: int,
        chain_length: int = DEFAULT_CHAIN_LENGTH,
        digest_size: int = DEFAULT_DIGEST_SIZE,
        engine: Optional[str] = None,
    ) -> None:
        super().__init__(ca_name, digest_size, engine=engine)
        if delta <= 0:
            raise DictionaryError("delta must be a positive number of seconds")
        if chain_length < 1:
            raise DictionaryError("hash-chain length must be at least 1")
        self._keys = keys
        self.delta = delta
        self.chain_length = chain_length
        self._chain: Optional[HashChain] = None
        self._signed_root: Optional[SignedRoot] = None
        self._latest_freshness: Optional[FreshnessStatement] = None

    @property
    def public_key(self) -> PublicKey:
        return self._keys.public

    @property
    def signed_root(self) -> Optional[SignedRoot]:
        return self._signed_root

    @property
    def latest_freshness(self) -> Optional[FreshnessStatement]:
        return self._latest_freshness

    # -- Fig. 2: insert ------------------------------------------------------

    def insert(self, serials: Iterable[SerialNumber], now: int) -> RevocationIssuance:
        """Revoke ``serials`` (batch) and return the dissemination message."""
        serial_list = list(serials)
        if not serial_list:
            raise DictionaryError("insert requires at least one serial")
        first_number = self.size + 1
        self._append(serial_list, first_number)
        signed_root = self._sign_new_root(now)
        return RevocationIssuance(
            ca_name=self.ca_name,
            serials=tuple(serial_list),
            first_number=first_number,
            signed_root=signed_root,
        )

    # -- Fig. 2: refresh -----------------------------------------------------

    def refresh(self, now: int):
        """Return the periodic dissemination payload when nothing was revoked.

        Returns a :class:`FreshnessStatement` while the hash chain has unused
        links, or a fresh :class:`SignedRoot` once the chain is exhausted
        (Fig. 2, refresh step 3).
        """
        if self._signed_root is None or self._chain is None:
            # Never signed anything yet: bootstrap with a root over the
            # (possibly empty) dictionary.
            return self._sign_new_root(now)
        period = periods_elapsed(self._signed_root.timestamp, now, self.delta)
        if period >= self.chain_length:
            return self._sign_new_root(now)
        statement = FreshnessStatement(
            ca_name=self.ca_name,
            value=self._chain.statement(period),
            dictionary_size=self.size,
        )
        self._latest_freshness = statement
        return statement

    def rotate_keys(self, keys: KeyPair, now: int) -> SignedRoot:
        """Swap the signing key pair and re-sign the current content under it.

        Used by CA key rotation: the dictionary content is unchanged, but a
        fresh root (with a fresh hash chain) is signed by the incoming key so
        replicas can verify it without the outgoing key once its overlap
        window closes.  Replicas install a same-content root only when it
        is strictly newer than the one they hold, so the re-signed root is
        stamped at least a second past the root it supersedes — a
        revocation batch and a rotation may be cut in the same instant.
        """
        self._keys = keys
        if self._signed_root is not None:
            now = max(now, self._signed_root.timestamp + 1)
        return self._sign_new_root(now)

    # -- Fig. 2: prove -------------------------------------------------------

    def prove(self, serial: SerialNumber, now: Optional[int] = None) -> RevocationStatus:
        """Build the revocation status for ``serial`` from the master copy."""
        if self._signed_root is None:
            raise DictionaryError(
                f"{self.ca_name!r} has not signed a root yet; call refresh() or insert() first"
            )
        return RevocationStatus(
            ca_name=self.ca_name,
            serial=serial,
            proof=self.prove_membership(serial),
            signed_root=self._signed_root,
            freshness=self._current_freshness(),
        )

    # -- internals ------------------------------------------------------------

    def _sign_new_root(self, now: int) -> SignedRoot:
        self._chain = HashChain(length=self.chain_length, digest_size=self._digest_size)
        unsigned = SignedRoot(
            ca_name=self.ca_name,
            root=self.root(),
            size=self.size,
            anchor=self._chain.anchor,
            timestamp=now,
            chain_length=self.chain_length,
        )
        self._signed_root = unsigned.sign(self._keys.private)
        self._latest_freshness = FreshnessStatement(
            ca_name=self.ca_name,
            value=self._chain.anchor,
            dictionary_size=self.size,
        )
        return self._signed_root

    def _current_freshness(self) -> FreshnessStatement:
        if self._latest_freshness is None:
            raise DictionaryError("no freshness statement available yet")
        return self._latest_freshness


class ReplicaDictionary(_DictionaryCore):
    """An RA's untrusted copy of one CA's dictionary.

    The replica only accepts changes that reproduce the CA-signed root
    exactly (Fig. 2, ``update``), so a compromised RA or CDN cannot insert,
    remove, or reorder revocations without detection.
    """

    def __init__(
        self,
        ca_name: str,
        ca_public_key: PublicKey,
        digest_size: int = DEFAULT_DIGEST_SIZE,
        engine: Optional[str] = None,
    ) -> None:
        super().__init__(ca_name, digest_size, engine=engine)
        #: The CA verifier: a bare :class:`PublicKey` or a time-scoped
        #: :class:`~repro.crypto.signing.CAKeyring` (key-rotation deployments).
        self._ca_public_key = ca_public_key
        self._signed_root: Optional[SignedRoot] = None
        self._latest_freshness: Optional[FreshnessStatement] = None
        #: Hash-chain period of the current freshness statement under the
        #: current root; freshness never moves backwards (replay defense).
        self._freshness_age = 0
        #: Every root signature is checked through this
        #: :class:`~repro.perf.root_cache.VerifiedRootCache`.  The owning
        #: :class:`~repro.ritm.agent.RevocationAgent` replaces it so every
        #: replica of one RA shares a single memo of verified roots; a
        #: standalone replica's own has capacity 0, i.e. memoizes nothing.
        self.root_cache = VerifiedRootCache(maxsize=0)

    @property
    def ca_public_key(self) -> PublicKey:
        return self._ca_public_key

    @property
    def signed_root(self) -> Optional[SignedRoot]:
        return self._signed_root

    @property
    def latest_freshness(self) -> Optional[FreshnessStatement]:
        return self._latest_freshness

    # -- Fig. 2: update ------------------------------------------------------

    def update(self, issuance: RevocationIssuance) -> None:
        """Apply a revocation-issuance message after full verification."""
        self.update_many([issuance])

    def update_many(self, issuances: Sequence[RevocationIssuance]) -> int:
        """Apply consecutive issuance batches in *one* store transaction.

        Every message's signature and ordering is verified up front, the
        concatenated serials are merged into the store with a single batch
        insert, and the recomputed root is checked against the *final*
        CA-signed root — sound because that root commits to the entire
        merged content.  This is the path the dissemination client uses when
        a pull cycle finds several queued issuance batches.  Returns the
        number of serials applied.
        """
        if not issuances:
            return 0
        expected_first = self.size + 1
        for issuance in issuances:
            if issuance.ca_name != self.ca_name:
                raise DictionaryError(
                    f"issuance for {issuance.ca_name!r} applied to {self.ca_name!r}'s replica"
                )
            if issuance.first_number != expected_first:
                raise DesynchronizedError(
                    f"issuance batches for {self.ca_name!r} are not consecutive: expected "
                    f"first number {expected_first}, got {issuance.first_number}"
                )
            expected_first += len(issuance.serials)
        # Every queued batch's root signature is checked (memoized when the
        # owning agent wired its shared root cache) before anything is staged.
        if not self._roots_verify([issuance.signed_root for issuance in issuances]):
            raise SignatureError(
                f"revocation issuance for {self.ca_name!r} carries an invalid root signature"
            )
        signed_root = issuances[-1].signed_root
        if self._signed_root is not None and signed_root.timestamp < self._signed_root.timestamp:
            raise DictionaryError("revocation issuance is older than the current signed root")

        serials = [serial for issuance in issuances for serial in issuance.serials]
        if signed_root.size != self.size + len(serials):
            # Three integers decide it: no need to stage the batch, recompute
            # the root and roll the batch back to find the same thing out.
            raise DesynchronizedError(
                f"replica of {self.ca_name!r} rejected an issuance: it delivers "
                f"{len(serials)} serials onto {self.size}, the CA signed size "
                f"{signed_root.size} (resync required)"
            )
        self._append(serials, issuances[0].first_number)

        if self.root() != signed_root.root:
            # The paper's update step 3: reject the whole change.  The staged
            # batch is rolled back, so the replica keeps serving its previous
            # verified state; the dissemination layer falls back to the sync
            # protocol to recover the honest suffix.
            self._tree.remove_batch(serial.to_bytes() for serial in serials)
            raise DesynchronizedError(
                f"replica of {self.ca_name!r} rejected an issuance: locally recomputed "
                f"root does not match the CA-signed root (batch rolled back; resync "
                f"required)"
            )
        self._signed_root = signed_root
        self._latest_freshness = FreshnessStatement(
            ca_name=self.ca_name, value=signed_root.anchor, dictionary_size=self.size
        )
        self._freshness_age = 0
        return len(serials)

    def install_root(self, signed_root: SignedRoot) -> None:
        """Accept a re-signed root over unchanged content (chain exhaustion)."""
        if not self._roots_verify([signed_root]):
            raise SignatureError("re-signed root failed verification")
        if signed_root.size != self.size or signed_root.root != self.root():
            raise DesynchronizedError(
                f"replica of {self.ca_name!r} is desynchronized: CA signed size "
                f"{signed_root.size}, replica has {self.size}"
            )
        self._signed_root = signed_root
        self._latest_freshness = FreshnessStatement(
            ca_name=self.ca_name, value=signed_root.anchor, dictionary_size=self.size
        )
        self._freshness_age = 0

    def _roots_verify(self, signed_roots: Sequence[SignedRoot]) -> bool:
        """Whether every root's signature verifies under the CA verifier.

        A root signed for another dictionary is refused by name before any
        signature is paid for: every shard of a CA verifies under one
        keyring, so the signature alone cannot tell shard B's root from
        shard A's.
        """
        for signed_root in signed_roots:
            if signed_root.ca_name != self.ca_name:
                raise DictionaryError(
                    f"signed root for {signed_root.ca_name!r} presented to "
                    f"{self.ca_name!r}'s replica"
                )
        return all(self.root_cache.verify_many(signed_roots, self._ca_public_key))

    def apply_freshness(self, statement: FreshnessStatement) -> None:
        """Replace the stored freshness statement after linking it to the anchor.

        Freshness is monotonic under one root: a statement for an *older*
        hash-chain period than the one currently held is a replay (a
        recorded pre-image re-presented to roll the replica's notion of
        "fresh" backwards) and raises :class:`ReplayError`.  Re-presenting
        the current period is idempotent and accepted, so CDN re-serves of
        the live object are harmless.
        """
        if statement.ca_name != self.ca_name:
            raise DictionaryError("freshness statement for a different CA")
        if self._signed_root is None:
            raise DesynchronizedError(
                f"replica of {self.ca_name!r} has no signed root yet; sync required"
            )
        from repro.crypto.hashchain import statement_age

        if statement.dictionary_size > self.size:
            raise DesynchronizedError(
                f"replica of {self.ca_name!r} has {self.size} revocations but the CA "
                f"reports {statement.dictionary_size}; sync required"
            )
        age = statement_age(
            self._signed_root.anchor, statement.value, self._signed_root.chain_length
        )
        if age is None:
            raise DictionaryError("freshness statement does not link to the current anchor")
        if age < self._freshness_age:
            raise ReplayError(
                f"freshness statement for {self.ca_name!r} replays period {age} but the "
                f"replica already holds period {self._freshness_age}"
            )
        self._latest_freshness = statement
        self._freshness_age = age

    # -- Fig. 2: prove --------------------------------------------------------

    def prove(self, serial: SerialNumber, now: Optional[int] = None) -> RevocationStatus:
        """Build the revocation status (Eq. 3) for ``serial`` from the replica."""
        if self._signed_root is None or self._latest_freshness is None:
            raise DesynchronizedError(
                f"replica of {self.ca_name!r} has no signed root / freshness statement yet"
            )
        return RevocationStatus(
            ca_name=self.ca_name,
            serial=serial,
            proof=self.prove_membership(serial),
            signed_root=self._signed_root,
            freshness=self._latest_freshness,
        )

    def is_desynchronized(self, advertised_size: int) -> bool:
        """Does the CA advertise more revocations than this replica holds?"""
        return advertised_size > self.size
