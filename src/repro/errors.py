"""Exception hierarchy shared by every subsystem of the RITM reproduction.

All library-raised exceptions derive from :class:`ReproError` so that callers
can distinguish failures of the reproduction code from ordinary Python errors.
The hierarchy mirrors the subsystem layout: cryptographic failures,
dictionary/proof failures, TLS protocol failures, network-simulation failures,
and RITM protocol-policy failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class CryptoError(ReproError):
    """A cryptographic operation failed (bad key, bad signature encoding...)."""


class SignatureError(CryptoError):
    """A digital signature failed to verify."""


class HashChainError(CryptoError):
    """A hash-chain (freshness statement) value could not be linked to its anchor."""


class ProofError(ReproError):
    """A Merkle presence/absence proof is malformed or does not verify."""


class StorageError(ReproError):
    """A durable-store persistence structure (WAL, snapshot, or checkpoint)
    is missing, corrupt, truncated mid-record, or of an incompatible format
    version."""


class DictionaryError(ReproError):
    """An authenticated-dictionary operation violated its invariants."""


class DesynchronizedError(DictionaryError):
    """A replica detected that it is behind (or ahead of) the CA's dictionary."""


class ReplayError(DictionaryError):
    """A control-plane message re-presented state older than the replay window.

    Raised by the dissemination layer when a signed head, shard index, or
    freshness statement would roll a replica back past its bounded replay
    window — the signature may be valid, but the content is a recording."""


class StaleStatusError(ReproError):
    """A revocation status is older than the client's acceptance window (2*delta)."""


class RevokedCertificateError(ReproError):
    """Certificate validation failed because the certificate is revoked."""


class CertificateError(ReproError):
    """A certificate or certificate chain failed standard validation."""


class TLSError(ReproError):
    """A TLS message could not be parsed or violates the handshake state machine."""


class NetworkError(ReproError):
    """The network simulator was asked to do something impossible."""


class CDNError(ReproError):
    """A CDN request could not be served (unknown object, unknown edge...)."""


class MisbehaviorDetected(ReproError):
    """Consistency checking produced cryptographic evidence of CA misbehavior.

    The exception carries the two conflicting signed roots so that the caller
    can forward the evidence (e.g. to a software vendor, as in the paper).
    """

    def __init__(self, message: str, evidence: object = None) -> None:
        super().__init__(message)
        self.evidence = evidence


class ConfigurationError(ReproError):
    """A component was configured with inconsistent or out-of-range parameters."""
