"""Workload and dataset generators calibrated to the paper's §VII-A."""

from repro.workloads.certificates import CertificateCorpus, generate_corpus
from repro.workloads.planetlab import (
    PLANETLAB_NODE_COUNT,
    REPETITIONS_PER_NODE,
    VantagePoint,
    generate_vantage_points,
)
from repro.workloads.population import (
    DEFAULT_CLIENTS_PER_RA,
    TOTAL_CITIES,
    TOTAL_POPULATION,
    City,
    PopulationModel,
    generate_population,
)
from repro.workloads.streaming import (
    DEFAULT_LIFETIME_MIX,
    ClientEvent,
    EventBatch,
    StreamConfig,
    StreamingWorkload,
    materialize_site_profile,
    materialize_trace,
    uniform_slot_counts,
)
from repro.workloads.revocation_trace import (
    AVERAGE_REVOCATIONS_PER_CRL,
    HEARTBLEED_WEEK,
    LARGEST_CRL_BYTES,
    LARGEST_CRL_ENTRIES,
    NUMBER_OF_CRLS,
    SERIAL_BYTES,
    TOTAL_REVOCATIONS,
    DailyRevocations,
    RevocationTrace,
    generate_trace,
    serials_for_count,
)

__all__ = [
    "RevocationTrace",
    "DailyRevocations",
    "generate_trace",
    "serials_for_count",
    "TOTAL_REVOCATIONS",
    "NUMBER_OF_CRLS",
    "AVERAGE_REVOCATIONS_PER_CRL",
    "LARGEST_CRL_ENTRIES",
    "LARGEST_CRL_BYTES",
    "SERIAL_BYTES",
    "HEARTBLEED_WEEK",
    "PopulationModel",
    "City",
    "generate_population",
    "TOTAL_POPULATION",
    "TOTAL_CITIES",
    "DEFAULT_CLIENTS_PER_RA",
    "VantagePoint",
    "generate_vantage_points",
    "PLANETLAB_NODE_COUNT",
    "REPETITIONS_PER_NODE",
    "CertificateCorpus",
    "generate_corpus",
    "StreamConfig",
    "StreamingWorkload",
    "ClientEvent",
    "EventBatch",
    "DEFAULT_LIFETIME_MIX",
    "materialize_trace",
    "materialize_site_profile",
    "uniform_slot_counts",
]
