"""PKI substrate: serial numbers, certificates, CAs, chains, validation."""

from repro.pki.ca import (
    DEFAULT_VALIDITY_SECONDS,
    CertificationAuthority,
    RevocationRecord,
    TrustStore,
)
from repro.pki.certificate import Certificate, CertificateChain
from repro.pki.serial import (
    DEFAULT_SERIAL_BYTES,
    MAX_SERIAL_BYTES,
    SerialNumber,
    SerialNumberAllocator,
)
from repro.pki.validation import ValidationResult, validate_chain

__all__ = [
    "SerialNumber",
    "SerialNumberAllocator",
    "DEFAULT_SERIAL_BYTES",
    "MAX_SERIAL_BYTES",
    "Certificate",
    "CertificateChain",
    "CertificationAuthority",
    "RevocationRecord",
    "TrustStore",
    "DEFAULT_VALIDITY_SECONDS",
    "ValidationResult",
    "validate_chain",
]
