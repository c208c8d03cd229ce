"""Shared fixtures for the RITM reproduction test suite."""

from __future__ import annotations

from collections.abc import Sized

import pytest

from repro.crypto import ed25519
from repro.crypto.signing import KeyPair
from repro.pki.ca import CertificationAuthority, TrustStore
from repro.pki.serial import SerialNumber
from repro.ritm.config import RITMConfig
from repro.workloads.certificates import generate_corpus


@pytest.fixture(scope="session")
def ca_keys() -> KeyPair:
    """A deterministic CA key pair (Ed25519 keygen is slow in pure Python)."""
    return KeyPair.generate(b"fixture-ca-keys")


@pytest.fixture(scope="session")
def small_corpus():
    """One root CA, one intermediate, a handful of server chains."""
    return generate_corpus(ca_count=1, domains_per_ca=3, use_intermediates=True)


@pytest.fixture(scope="session")
def flat_corpus():
    """Two root CAs issuing directly (2-certificate chains)."""
    return generate_corpus(ca_count=2, domains_per_ca=2, use_intermediates=False)


@pytest.fixture()
def config() -> RITMConfig:
    """A small-Δ RITM configuration convenient for tests."""
    return RITMConfig(delta_seconds=10, chain_length=64)


@pytest.fixture()
def root_ca() -> CertificationAuthority:
    return CertificationAuthority("Test-Root-CA", key_seed=b"test-root-ca")


@pytest.fixture()
def trust_store(root_ca) -> TrustStore:
    store = TrustStore()
    store.add(root_ca)
    return store


@pytest.fixture()
def verifications(monkeypatch) -> list[bytes]:
    """The key of every ``ed25519.verify`` run during the test, in order: its
    length is what an operation cost in signatures, whatever the machine."""
    keys: list[bytes] = []
    real = ed25519.verify

    def counted(public, message, signature):
        keys.append(bytes(public))
        return real(public, message, signature)

    monkeypatch.setattr(ed25519, "verify", counted)
    return keys


def make_serials(count: int, start: int = 1) -> list[SerialNumber]:
    """Consecutive serial numbers, convenient for dictionary tests."""
    return [SerialNumber(value) for value in range(start, start + count)]


def sized_attributes(obj) -> dict[str, int]:
    """``len`` of every sized attribute of ``obj``, by attribute name — what
    the no-shadow-state tests count to show an object owns one container."""
    return {
        name: len(value) for name, value in vars(obj).items() if isinstance(value, Sized)
    }
