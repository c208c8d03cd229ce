"""Consistency checking and CA accountability (paper §III "Consistency
Checking" and §V "Misbehaving CA").

Because dictionaries are append-only and every signed root binds one exact
dictionary version, a CA that shows different dictionary contents to
different parts of the system must eventually produce two different signed
roots with the same size — cryptographic evidence of equivocation.  RAs keep
every root they observe, cross-check roots with their peers every Δ period
(the gossip ring the scenario runner drives), and report conflicts.

This module is always-on control-plane infrastructure, not a study-phase
accessory: every dissemination pull feeds the observed root into the RA's
:class:`ConsistencyChecker`, and the scenario runner gossips agent views once
per period so an equivocating CA is caught within one gossip round.

The module provides:

* :class:`ConsistencyChecker` — the per-party store of observed roots, with
  conflict detection on every new observation and optional reporter signing;
* :class:`MisbehaviorReport` — the portable evidence (two conflicting signed
  roots, countersigned by the detecting party) that can be handed to a
  software vendor;
* :class:`GossipExchange` — a minimal gossip round between two parties, as
  suggested in §V (Chuat et al.-style root exchange).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.crypto.signing import KeyPair, PublicKey, acceptable_verifiers
from repro.dictionary.signed_root import SignedRoot


@dataclass(frozen=True)
class MisbehaviorReport:
    """Cryptographic evidence that a CA equivocated about its dictionary.

    The two conflicting roots are self-certifying (each carries the CA's own
    signature); ``reporter_signature`` additionally binds the evidence to the
    detecting party so a vendor can attribute — and rate-limit — reports.
    """

    ca_name: str
    first: SignedRoot
    second: SignedRoot
    detected_by: str
    #: Public key bytes of the reporting party (empty when unsigned).
    reporter_key_bytes: bytes = b""
    #: Reporter's Ed25519 signature over :meth:`payload` (empty when unsigned).
    reporter_signature: bytes = b""

    def payload(self) -> bytes:
        """The bytes the reporter countersigns: both roots, fully attributed."""
        return b"".join(
            (
                b"ritm-misbehavior-report:",
                self.ca_name.encode("utf-8"),
                b"|",
                self.detected_by.encode("utf-8"),
                b"|",
                self.first.payload(),
                self.first.signature,
                b"|",
                self.second.payload(),
                self.second.signature,
            )
        )

    def sign(self, reporter_keys: KeyPair) -> "MisbehaviorReport":
        """A copy countersigned by the detecting party's reporter key."""
        return replace(
            self,
            reporter_key_bytes=reporter_keys.public.key_bytes,
            reporter_signature=reporter_keys.private.sign(self.payload()),
        )

    def verify_reporter(self, reporter_public_key: Optional[PublicKey] = None) -> bool:
        """True when the reporter countersignature checks out.

        With no argument the embedded ``reporter_key_bytes`` are used (the
        report is then self-attributing); pass a key to additionally pin the
        expected reporter identity.
        """
        if not self.reporter_signature or not self.reporter_key_bytes:
            return False
        if reporter_public_key is None:
            reporter_public_key = PublicKey(self.reporter_key_bytes)
        elif reporter_public_key.key_bytes != self.reporter_key_bytes:
            return False
        return reporter_public_key.verify(self.payload(), self.reporter_signature)

    def is_valid_evidence(self, ca_public_key) -> bool:
        """Evidence is valid when both roots verify and genuinely conflict.

        ``ca_public_key`` may be a bare :class:`PublicKey` or a
        :class:`~repro.crypto.signing.CAKeyring`.  With a keyring, each root
        may verify under *any* currently acceptable key — evidence gathered
        just before a rotation (signed by the now-retired key) stays valid
        throughout the overlap window even though the active key has moved on.
        """
        keys = acceptable_verifiers(ca_public_key)
        return (
            any(self.first.verify(key) for key in keys)
            and any(self.second.verify(key) for key in keys)
            and self.first.conflicts_with(self.second)
        )


class ConsistencyChecker:
    """Stores observed signed roots and flags equivocation.

    When constructed with ``reporter_keys``, every emitted
    :class:`MisbehaviorReport` is countersigned at creation so the evidence
    leaves the detector already attributable.
    """

    def __init__(self, owner: str, reporter_keys: Optional[KeyPair] = None) -> None:
        self.owner = owner
        self.reporter_keys = reporter_keys
        #: ca_name -> {dictionary size -> first root observed at that size}
        self._roots: Dict[str, Dict[int, SignedRoot]] = {}
        self.reports: List[MisbehaviorReport] = []

    def observe_root(self, root: SignedRoot) -> Optional[MisbehaviorReport]:
        """Record a root; returns a report if it conflicts with a stored one."""
        by_size = self._roots.setdefault(root.ca_name, {})
        existing = by_size.get(root.size)
        if existing is None:
            by_size[root.size] = root
            return None
        if existing.conflicts_with(root):
            report = MisbehaviorReport(
                ca_name=root.ca_name,
                first=existing,
                second=root,
                detected_by=self.owner,
            )
            if self.reporter_keys is not None:
                report = report.sign(self.reporter_keys)
            self.reports.append(report)
            return report
        return None

    def known_roots(self, ca_name: str) -> List[SignedRoot]:
        """Every stored root for ``ca_name``, ordered by dictionary size."""
        return [self._roots[ca_name][size] for size in sorted(self._roots.get(ca_name, {}))]


@dataclass
class GossipExchange:
    """One gossip round: two parties swap their latest roots per CA."""

    reports: List[MisbehaviorReport] = field(default_factory=list)

    def exchange(self, left: ConsistencyChecker, right: ConsistencyChecker) -> List[MisbehaviorReport]:
        """Swap every known root both ways; returns any new reports."""
        new_reports: List[MisbehaviorReport] = []
        for source, sink in ((left, right), (right, left)):
            for ca_name in list(source._roots):
                for root in source.known_roots(ca_name):
                    report = sink.observe_root(root)
                    if report is not None:
                        new_reports.append(report)
        self.reports.extend(new_reports)
        return new_reports
