"""The Table IV comparison harness.

Builds every scheme over a shared ground truth, evaluates the quantitative
columns (storage and connections, globally and per client) from each scheme's
formulas, records the symbolic formulas from the paper's table for
cross-checking, and collects the violated-properties column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.baselines.base import (
    ComparisonParameters,
    GroundTruth,
    RevocationScheme,
)
from repro.baselines.crl import CRLScheme
from repro.baselines.crlset import CRLSetScheme
from repro.baselines.logbased import ClientDrivenLogScheme, ServerDrivenLogScheme
from repro.baselines.ocsp import OCSPScheme, OCSPStaplingScheme
from repro.baselines.revcast import RevCastScheme
from repro.baselines.ritm_adapter import RITMAdapterScheme

#: The symbolic formulas exactly as printed in Table IV of the paper, used to
#: annotate the generated table and unit-tested against the scheme methods.
PAPER_FORMULAS: Dict[str, Dict[str, str]] = {
    "CRL": {
        "storage_global": "n_rev * (n_cl + 1)",
        "storage_client": "n_rev",
        "conn_global": "n_cl * n_ca",
        "conn_client": "n_ca",
        "violated": "I, P, E, T",
    },
    "CRLSet": {
        "storage_global": "n_rev * (n_cl + 1)",
        "storage_client": "n_rev",
        "conn_global": "n_cl",
        "conn_client": "1",
        "violated": "I, E, T",
    },
    "OCSP": {
        "storage_global": "n_rev",
        "storage_client": "0",
        "conn_global": "n_cl * n_s",
        "conn_client": "n_s",
        "violated": "I, P, E, T",
    },
    "OCSP Stapling": {
        "storage_global": "n_rev + n_s",
        "storage_client": "0",
        "conn_global": "n_s",
        "conn_client": "0",
        "violated": "I, S, T",
    },
    "Log (client-driven)": {
        "storage_global": "n_rev",
        "storage_client": "0",
        "conn_global": "n_cl * n_s",
        "conn_client": "n_s",
        "violated": "I, P, E",
    },
    "Log (server-driven)": {
        "storage_global": "n_rev",
        "storage_client": "0",
        "conn_global": "n_s",
        "conn_client": "0",
        "violated": "I, S",
    },
    "RevCast": {
        "storage_global": "n_rev * (n_cl + 1)",
        "storage_client": "n_rev",
        "conn_global": "n_cl",
        "conn_client": "n_rev",
        "violated": "E, T",
    },
    "RITM": {
        "storage_global": "n_rev * (n_ra + 1)",
        "storage_client": "0",
        "conn_global": "n_ca",
        "conn_client": "0",
        "violated": "-",
    },
}

#: Default instantiation of Table IV's symbolic quantities, respecting the
#: paper's ordering assumption n_ca ≈ n_ra ≪ n_s ≪ n_cl.
DEFAULT_PARAMETERS = ComparisonParameters(
    n_revocations=1_381_992,
    n_clients=3_000_000_000,
    n_servers=50_000_000,
    n_cas=254,
    n_ras=230_000_000,
)


@dataclass
class ComparisonRow:
    """One scheme's row of Table IV."""

    scheme: str
    storage_global: int
    storage_client: int
    conn_global: int
    conn_client: int
    violated_properties: str
    formula_storage_global: str = ""


SchemeFactory = Callable[[GroundTruth], RevocationScheme]


def default_scheme_factories() -> Dict[str, SchemeFactory]:
    """The Table IV line-up, in the paper's row order."""
    return {
        "CRL": lambda truth: CRLScheme(truth),
        "CRLSet": lambda truth: CRLSetScheme(truth),
        "OCSP": lambda truth: OCSPScheme(truth),
        "OCSP Stapling": lambda truth: OCSPStaplingScheme(truth),
        "Log (client-driven)": lambda truth: ClientDrivenLogScheme(truth),
        "Log (server-driven)": lambda truth: ServerDrivenLogScheme(truth),
        "RevCast": lambda truth: RevCastScheme(truth),
        "RITM": lambda truth: RITMAdapterScheme(truth),
    }


def build_comparison_table(
    parameters: ComparisonParameters = DEFAULT_PARAMETERS,
    ground_truth: Optional[GroundTruth] = None,
    factories: Optional[Dict[str, SchemeFactory]] = None,
) -> List[ComparisonRow]:
    """Evaluate Table IV for the given parameter instantiation."""
    truth = ground_truth if ground_truth is not None else GroundTruth()
    factories = factories if factories is not None else default_scheme_factories()
    rows: List[ComparisonRow] = []
    for name, factory in factories.items():
        scheme = factory(truth)
        rows.append(
            ComparisonRow(
                scheme=name,
                storage_global=scheme.global_storage_entries(parameters),
                storage_client=scheme.client_storage_entries(parameters),
                conn_global=scheme.global_connections(parameters),
                conn_client=scheme.client_connections(parameters),
                violated_properties=scheme.properties().violated_letters(),
                formula_storage_global=PAPER_FORMULAS.get(name, {}).get("storage_global", ""),
            )
        )
    return rows


def evaluate_formula(formula: str, parameters: ComparisonParameters) -> int:
    """Evaluate one of the paper's symbolic formulas numerically."""
    if formula in ("", "-"):
        return 0
    namespace = dict(parameters.as_dict())
    return int(eval(formula, {"__builtins__": {}}, namespace))  # noqa: S307 - fixed vocabulary
