"""RITM core: Revocation Agents, clients, CAs, dissemination, deployments."""

from repro.ritm.agent import RevocationAgent
from repro.ritm.ca_service import (
    RITMCertificationAuthority,
    freshness_path,
    head_path,
    issuance_path,
    manifest_path,
    shard_index_path,
)
from repro.ritm.client import LegacyTLSClient, RejectionReason, RITMClient
from repro.ritm.config import (
    PAPER_DELTA_SWEEP,
    RITMConfig,
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    SECONDS_PER_MINUTE,
)
from repro.ritm.consistency import (
    ConsistencyChecker,
    GossipExchange,
    MisbehaviorReport,
)
from repro.ritm.deployment import (
    Deployment,
    build_close_to_client_deployment,
    build_close_to_server_deployment,
    build_unprotected_path,
)
from repro.ritm.dissemination import RADisseminationClient, PullResult, attach_agent_to_cas
from repro.ritm.dpi import DPIEngine, InspectionResult
from repro.ritm.messages import (
    DictionaryHead,
    ShardIndex,
    decode_head,
    decode_issuance,
    decode_shard_index,
    decode_status,
    decode_status_bundle,
    encode_head,
    encode_issuance,
    encode_shard_index,
    encode_status,
    encode_status_bundle,
)
from repro.ritm.server import RITMServer, TLSTerminator
from repro.ritm.state import ConnectionState

__all__ = [
    "RevocationAgent",
    "RITMClient",
    "LegacyTLSClient",
    "RejectionReason",
    "RITMServer",
    "TLSTerminator",
    "RITMCertificationAuthority",
    "freshness_path",
    "head_path",
    "issuance_path",
    "manifest_path",
    "shard_index_path",
    "RITMConfig",
    "PAPER_DELTA_SWEEP",
    "SECONDS_PER_MINUTE",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_DAY",
    "ConsistencyChecker",
    "GossipExchange",
    "MisbehaviorReport",
    "Deployment",
    "build_close_to_client_deployment",
    "build_close_to_server_deployment",
    "build_unprotected_path",
    "RADisseminationClient",
    "PullResult",
    "attach_agent_to_cas",
    "DPIEngine",
    "InspectionResult",
    "ConnectionState",
    "DictionaryHead",
    "ShardIndex",
    "encode_shard_index",
    "decode_shard_index",
    "encode_status",
    "decode_status",
    "encode_status_bundle",
    "decode_status_bundle",
    "encode_head",
    "decode_head",
    "encode_issuance",
    "decode_issuance",
]
