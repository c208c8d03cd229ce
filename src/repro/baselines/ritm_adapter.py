"""RITM expressed through the baseline interface, for apples-to-apples comparison.

The functional RITM implementation lives in :mod:`repro.ritm`; this adapter
exposes it behind the :class:`~repro.baselines.base.RevocationScheme`
interface so the Table IV harness can evaluate every scheme — including
RITM — through one code path.  The adapter keeps one CA dictionary and one RA
replica in memory and answers checks with real proofs; the Table IV formulas
are the ones from the paper's last row.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.base import (
    CheckContext,
    CheckResult,
    ComparisonParameters,
    GroundTruth,
    RevocationScheme,
    SchemeProperties,
)
from repro.crypto.signing import KeyPair
from repro.dictionary.authdict import CADictionary, ReplicaDictionary
from repro.errors import RevokedCertificateError, StaleStatusError
from repro.pki.serial import SerialNumber
from repro.ritm.messages import encode_status


class RITMAdapterScheme(RevocationScheme):
    """RITM driven through the baseline-comparison interface."""

    name = "RITM"

    def __init__(
        self,
        ground_truth: GroundTruth,
        delta_seconds: int = 10,
        key_seed: bytes = b"ritm-adapter",
    ) -> None:
        super().__init__(ground_truth)
        self.delta_seconds = delta_seconds
        self._keys = KeyPair.generate(key_seed)
        self._dictionary = CADictionary(
            ca_name=ground_truth.ca_name,
            keys=self._keys,
            delta=delta_seconds,
            chain_length=1024,
        )
        self._replica = ReplicaDictionary(ground_truth.ca_name, self._keys.public)
        self._last_refresh: Optional[float] = None

    # -- keeping the RA replica in sync with the ground truth ---------------------

    def _sync(self, now: float) -> None:
        """Apply any ground-truth revocations the dictionary does not know yet,
        then refresh the freshness statement for the current period."""
        pending = [
            SerialNumber(value)
            for value, revoked_at in sorted(
                self.ground_truth.revoked_at.items(), key=lambda item: item[1]
            )
            if revoked_at <= now and not self._dictionary.contains(SerialNumber(value))
        ]
        if pending:
            issuance = self._dictionary.insert(pending, int(now))
            self._replica.update(issuance)
        if self._dictionary.signed_root is None:
            self._dictionary.refresh(int(now))
        if self._replica.signed_root is None:
            self._replica.install_root(self._dictionary.signed_root)
        if self._last_refresh is None or now - self._last_refresh >= self.delta_seconds:
            result = self._dictionary.refresh(int(now))
            from repro.dictionary.signed_root import SignedRoot

            if isinstance(result, SignedRoot):
                self._replica.install_root(result)
            else:
                self._replica.apply_freshness(result)
            self._last_refresh = now

    # -- scheme interface ------------------------------------------------------------

    def check(self, context: CheckContext) -> CheckResult:
        self._sync(context.now)
        status = self._replica.prove(context.serial)
        try:
            status.verify(
                self._keys.public,
                now=int(context.now),
                delta=self.delta_seconds,
            )
            revoked = False
        except RevokedCertificateError:
            revoked = True
        except StaleStatusError:
            return CheckResult(scheme=self.name, revoked=None)
        return CheckResult(
            scheme=self.name,
            revoked=revoked,
            connections_made=0,  # the client makes no extra connection
            bytes_downloaded=len(encode_status(status)),  # piggybacked on TLS traffic
            latency_seconds=0.0,
            privacy_leaked_to=[],
            staleness_bound_seconds=2 * self.delta_seconds,
        )

    def properties(self) -> SchemeProperties:
        return SchemeProperties(
            near_instant=True,
            privacy=True,
            efficiency=True,
            transparency=True,
            no_server_changes=True,
        )

    def client_storage_entries(self, totals: ComparisonParameters) -> int:
        return 0

    def global_storage_entries(self, totals: ComparisonParameters) -> int:
        # Every RA plus the CA stores the full dictionary (Table IV last row).
        return totals.n_revocations * (totals.n_ras + 1)

    def client_connections(self, totals: ComparisonParameters) -> int:
        return 0

    def global_connections(self, totals: ComparisonParameters) -> int:
        # Each CA uploads to the dissemination network.
        return totals.n_cas
