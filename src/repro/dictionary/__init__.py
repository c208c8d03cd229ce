"""Authenticated revocation dictionaries (the paper's Fig. 2 interface)."""

from repro.dictionary.authdict import (
    DEFAULT_CHAIN_LENGTH,
    CADictionary,
    ReplicaDictionary,
    RevocationIssuance,
)
from repro.dictionary.freshness import (
    FreshnessStatement,
    periods_elapsed,
    require_fresh,
    statement_is_fresh,
    statement_period,
)
from repro.dictionary.proofs import RevocationStatus
from repro.dictionary.sharding import (
    DEFAULT_SHARD_SECONDS,
    MAX_CERTIFICATE_LIFETIME_SECONDS,
    ShardKey,
)
from repro.dictionary.signed_root import SignedRoot
from repro.dictionary.sync import SyncRequest, SyncResponse, SyncServer, resynchronize

__all__ = [
    "CADictionary",
    "ReplicaDictionary",
    "RevocationIssuance",
    "DEFAULT_CHAIN_LENGTH",
    "SignedRoot",
    "FreshnessStatement",
    "RevocationStatus",
    "periods_elapsed",
    "statement_is_fresh",
    "statement_period",
    "require_fresh",
    "SyncRequest",
    "SyncResponse",
    "SyncServer",
    "resynchronize",
    "ShardKey",
    "DEFAULT_SHARD_SECONDS",
    "MAX_CERTIFICATE_LIFETIME_SECONDS",
]
