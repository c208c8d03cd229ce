"""RITM configuration: the Δ parameter and the policy knobs callers vary.

Δ (``delta_seconds``) is the central trade-off of the paper: CAs refresh
their dictionaries at least every Δ, RAs pull every Δ, established
connections receive a new status every Δ, and clients accept a status that is
at most 2Δ old.  The paper analyses Δ from 10 seconds to 1 day; the named
constructors below match the values used in its figures.

What no caller varies is fixed: a client accepts a status at most 2Δ old
(:attr:`RITMConfig.attack_window_seconds`), hashes are truncated to the
paper's 20 bytes, an RA tolerates :data:`repro.ritm.dissemination.REPLAY_WINDOW`
publications of CDN staleness, and a sharded CA retires (and its RAs prune)
expired shards every Δ.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.dictionary.sharding import DEFAULT_SHARD_SECONDS, shard_name
from repro.errors import ConfigurationError
from repro.perf import DEFAULT_PROOF_CACHE_SIZE, DEFAULT_ROOT_CACHE_SIZE
from repro.store import DEFAULT_ENGINE, ENGINES

SECONDS_PER_MINUTE = 60
SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 86_400

#: The Δ values swept in the paper's evaluation (Figs. 6 and 7, Table II).
PAPER_DELTA_SWEEP = {
    "10s": 10,
    "1m": SECONDS_PER_MINUTE,
    "5m": 5 * SECONDS_PER_MINUTE,
    "1h": SECONDS_PER_HOUR,
    "1d": SECONDS_PER_DAY,
}


@dataclass(frozen=True)
class RITMConfig:
    """Parameters shared by CAs, RAs, and clients in one RITM deployment."""

    #: The dissemination/refresh period Δ, in seconds.
    delta_seconds: int = 10
    #: How many freshness statements a hash chain provides before a new
    #: signed root is required.
    chain_length: int = 8640
    #: Whether RAs request absence proofs for every certificate in the chain
    #: (§VIII "Certificate chains") or only the leaf.
    prove_full_chain: bool = False
    #: CDN TTL for published objects (0 = no caching, the paper's worst case).
    cdn_ttl_seconds: float = 0.0
    #: Authenticated-store engine backing every dictionary in the deployment
    #: (see :data:`repro.store.ENGINES`).
    store_engine: str = DEFAULT_ENGINE
    #: Expiry-split dictionaries (§VIII "Ever-growing dictionaries"): when
    #: set, the CA routes revocations into per-expiry-window shards and RAs
    #: prune whole shards once their window passes.
    sharded: bool = False
    #: Expiry-window width of each shard, in seconds (sharded mode only).
    shard_width_seconds: int = DEFAULT_SHARD_SECONDS
    #: Hot-path verification engine (see docs/PERFORMANCE.md).  Capacity of
    #: the per-party Merkle :class:`~repro.perf.proof_cache.ProofCache`
    #: (0 disables proof caching).
    proof_cache_size: int = DEFAULT_PROOF_CACHE_SIZE
    #: Capacity of the per-party
    #: :class:`~repro.perf.root_cache.VerifiedRootCache` memoizing Ed25519
    #: root verifications (0 disables root-verdict caching).
    root_cache_size: int = DEFAULT_ROOT_CACHE_SIZE
    #: CA key-rotation schedule in Δ periods (0 = keys never rotate).  Each
    #: rotation publishes a :class:`~repro.ritm.messages.KeyAnnouncement`
    #: signed by the outgoing key and re-signs the current root.
    key_rotation_periods: int = 0
    #: Grace window, in Δ periods, during which roots signed by a
    #: just-retired key still verify (so RAs one pull behind the rotation
    #: announcement do not hard-fail).
    key_overlap_periods: int = 1

    def __post_init__(self) -> None:
        if self.delta_seconds <= 0:
            raise ConfigurationError("delta_seconds must be positive")
        if self.chain_length < 1:
            raise ConfigurationError("chain_length must be at least 1")
        if self.store_engine not in ENGINES:
            raise ConfigurationError(
                f"unknown store engine {self.store_engine!r}; "
                f"available engines: {sorted(ENGINES)}"
            )
        if self.shard_width_seconds <= 0:
            raise ConfigurationError("shard_width_seconds must be positive")
        if self.proof_cache_size < 0:
            raise ConfigurationError("proof_cache_size cannot be negative")
        if self.root_cache_size < 0:
            raise ConfigurationError("root_cache_size cannot be negative")
        if self.key_rotation_periods < 0:
            raise ConfigurationError("key_rotation_periods cannot be negative")
        if self.key_overlap_periods < 0:
            raise ConfigurationError("key_overlap_periods cannot be negative")
        if self.key_rotation_periods and self.key_overlap_periods >= self.key_rotation_periods:
            raise ConfigurationError(
                "key_overlap_periods must be smaller than key_rotation_periods"
            )

    @property
    def attack_window_seconds(self) -> int:
        """The attack window a client enforces: a status at most 2Δ old (§V)."""
        return 2 * self.delta_seconds

    @property
    def key_overlap_seconds(self) -> int:
        """The retired-key grace window in seconds."""
        return self.key_overlap_periods * self.delta_seconds

    @property
    def status_refresh_seconds(self) -> int:
        """How often an RA pushes a fresh status on an established connection."""
        return self.delta_seconds

    def dictionary_name(self, ca_name: str, expiry: int) -> str:
        """The dictionary covering a ``ca_name`` certificate expiring at ``expiry``:
        the CA's own name, or its expiry shard's in a sharded deployment."""
        if not self.sharded:
            return ca_name
        return shard_name(ca_name, expiry // self.shard_width_seconds)

    def with_delta(self, delta_seconds: int) -> "RITMConfig":
        """A copy with a different Δ (used by the parameter sweeps)."""
        return dataclasses.replace(self, delta_seconds=delta_seconds)

    @classmethod
    def for_label(cls, label: str, **overrides) -> "RITMConfig":
        """Config for one of the paper's Δ labels ("10s", "1m", "5m", "1h", "1d")."""
        if label not in PAPER_DELTA_SWEEP:
            raise ConfigurationError(
                f"unknown delta label {label!r}; expected one of {sorted(PAPER_DELTA_SWEEP)}"
            )
        return cls(delta_seconds=PAPER_DELTA_SWEEP[label], **overrides)
