"""Standard (non-revocation) certificate-chain validation.

This is the "standard validation" the paper's client runs in §III step 5a
before checking the RITM revocation status: every certificate in the chain is
within its validity window, each signature verifies under its issuer's key,
intermediates carry the CA flag, and the chain terminates at a trusted root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.pki.ca import TrustStore
from repro.pki.certificate import CertificateChain


@dataclass
class ValidationResult:
    """Outcome of a chain validation with a per-check trail for diagnostics."""

    valid: bool
    reason: Optional[str] = None
    checks: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.valid


def validate_chain(
    chain: CertificateChain,
    trust_store: TrustStore,
    now: int,
    expected_subject: Optional[str] = None,
) -> ValidationResult:
    """Validate a certificate chain against a trust store at time ``now``."""
    checks: List[str] = []

    leaf = chain.leaf
    if expected_subject is not None and leaf.subject != expected_subject:
        return ValidationResult(
            valid=False,
            reason=f"leaf subject {leaf.subject!r} does not match expected {expected_subject!r}",
            checks=checks,
        )
    checks.append("subject-match")

    for certificate in chain:
        if not certificate.is_valid_at(now):
            return ValidationResult(
                valid=False,
                reason=f"certificate for {certificate.subject!r} outside validity window",
                checks=checks,
            )
    checks.append("validity-window")

    links = [(certificate, issuer) for certificate, issuer in chain.pairs() if issuer is not None]
    for certificate, issuer in links:
        if not issuer.is_ca:
            return ValidationResult(
                valid=False,
                reason=f"issuer certificate {issuer.subject!r} is not a CA certificate",
                checks=checks,
            )
        if certificate.issuer != issuer.subject:
            return ValidationResult(
                valid=False,
                reason=(
                    f"chain is out of order: {certificate.subject!r} names issuer "
                    f"{certificate.issuer!r} but is followed by {issuer.subject!r}"
                ),
                checks=checks,
            )

    # Looked up before any signature is spent: an unknown root costs no Ed25519.
    anchor = chain.certificates[-1]
    if not trust_store.trusts(anchor.issuer):
        return ValidationResult(
            valid=False,
            reason=f"chain does not terminate at a trusted root ({anchor.issuer!r} unknown)",
            checks=checks,
        )
    # Top-down, starting at the trusted key itself: a key verifies nothing
    # until its own certificate verified under the key above, so neither a
    # forged root's key nor an intermediate key the root did not sign ever
    # gets an Ed25519 comb table built (docs/THREATS.md).
    if not trust_store.anchors(anchor):
        return ValidationResult(
            valid=False,
            reason=f"root signature on {anchor.subject!r} does not verify",
            checks=checks,
        )
    checks.append("trust-anchor")

    for certificate, issuer in reversed(links):
        if not certificate.verify_signature(issuer.public_key):
            return ValidationResult(
                valid=False,
                reason=f"signature on {certificate.subject!r} does not verify",
                checks=checks,
            )
    checks.append("signatures")

    return ValidationResult(valid=True, checks=checks)
