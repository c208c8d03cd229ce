"""Baseline revocation schemes and the Table IV comparison harness."""

from repro.baselines.base import (
    CheckContext,
    CheckResult,
    ComparisonParameters,
    GroundTruth,
    Property,
    RevocationScheme,
    SchemeProperties,
)
from repro.baselines.comparison import (
    DEFAULT_PARAMETERS,
    PAPER_FORMULAS,
    ComparisonRow,
    build_comparison_table,
    default_scheme_factories,
    evaluate_formula,
)
from repro.baselines.crl import CRLDistributionPoint, CRLScheme
from repro.baselines.crlset import CRLSetScheme
from repro.baselines.logbased import (
    ClientDrivenLogScheme,
    RevocationLog,
    ServerDrivenLogScheme,
)
from repro.baselines.ocsp import OCSPResponder, OCSPScheme, OCSPStaplingScheme
from repro.baselines.revcast import BroadcastSchedule, RevCastScheme
from repro.baselines.ritm_adapter import RITMAdapterScheme

__all__ = [
    "GroundTruth",
    "CheckContext",
    "CheckResult",
    "RevocationScheme",
    "SchemeProperties",
    "Property",
    "ComparisonParameters",
    "CRLScheme",
    "CRLDistributionPoint",
    "CRLSetScheme",
    "OCSPScheme",
    "OCSPStaplingScheme",
    "OCSPResponder",
    "ClientDrivenLogScheme",
    "ServerDrivenLogScheme",
    "RevocationLog",
    "RevCastScheme",
    "BroadcastSchedule",
    "RITMAdapterScheme",
    "ComparisonRow",
    "build_comparison_table",
    "default_scheme_factories",
    "evaluate_formula",
    "PAPER_FORMULAS",
    "DEFAULT_PARAMETERS",
]
