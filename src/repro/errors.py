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
    """A control-plane message re-presented signed state older than the replica's.

    Raised by the dissemination layer when a head's signed root is older
    (by size, then timestamp) than the one its replica holds, and by a
    replica handed a freshness statement up to the replay window behind the
    one it holds — the signature may be valid, but the content is a
    recording."""


class StaleStatusError(ReproError):
    """A revocation status is older than the client's acceptance window (2*delta)."""


class RevokedCertificateError(ReproError):
    """Certificate validation failed because the certificate is revoked."""


class CertificateError(ReproError):
    """A certificate or certificate chain failed standard validation."""


class SerialNumberError(CertificateError, ValueError):
    """A serial number is not a positive integer of 1–20 bytes (RFC 5280
    §4.1.2.2).  Also a :class:`ValueError`, for callers that catch one."""


class TLSError(ReproError):
    """A TLS message could not be parsed or violates the handshake state machine."""


class NetworkError(ReproError):
    """The network simulator was asked to do something impossible."""


class CDNError(ReproError):
    """A CDN request could not be served (unknown object, unknown edge...)."""


class ConfigurationError(ReproError):
    """A component was configured with inconsistent or out-of-range parameters."""
