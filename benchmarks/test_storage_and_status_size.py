"""§VII-D storage overhead and revocation-status size.

Paper numbers to reproduce:

* RA storage ≈ 4 MB and in-memory dictionaries ≈ 36 MB for the full dataset
  (1,381,992 revocations); ≈ 30 MB / 260 MB for 10 million revocations;
* a revocation status (Eq. 3) for the largest CRL's dictionary is 500-900 B.
"""

from repro.analysis.overhead import status_size_for_dictionary, storage_overhead
from repro.analysis.reporting import format_table, human_bytes
from repro.workloads.revocation_trace import LARGEST_CRL_ENTRIES

from bench_harness import write_result


def test_storage_overhead(benchmark):
    estimates = benchmark.pedantic(
        lambda: (storage_overhead(1_381_992), storage_overhead(10_000_000)),
        rounds=1,
        iterations=1,
    )
    current, ten_million = estimates
    table = format_table(
        ["revocations", "storage", "memory", "paper storage", "paper memory"],
        [
            [current.revocations, human_bytes(current.storage_bytes), human_bytes(current.memory_bytes), "~4 MB", "~36 MB"],
            [ten_million.revocations, human_bytes(ten_million.storage_bytes), human_bytes(ten_million.memory_bytes), "30 MB", "260 MB"],
        ],
        title="Storage overhead at an RA (all dictionaries)",
    )
    write_result("storage_overhead", table)

    assert 3.5e6 < current.storage_bytes < 5e6
    assert 30e6 < current.memory_bytes < 45e6
    assert 28e6 < ten_million.storage_bytes < 32e6
    assert 230e6 < ten_million.memory_bytes < 300e6


def test_status_size_largest_crl(benchmark):
    """Builds the full 339,557-entry dictionary once and measures status sizes."""
    result = benchmark.pedantic(
        lambda: status_size_for_dictionary(LARGEST_CRL_ENTRIES), rounds=1, iterations=1
    )
    table = format_table(
        ["dictionary size", "absence status", "presence status", "proof depth", "paper"],
        [
            [
                result.entries,
                f"{result.absent_status_bytes} B",
                f"{result.revoked_status_bytes} B",
                result.proof_depth,
                "500-900 B",
            ]
        ],
        title="Revocation status size (Eq. 3) for the largest CRL's dictionary",
    )
    write_result("status_size", table)

    # The paper's 500-900 byte range for the largest observed CRL.
    assert 500 <= result.revoked_status_bytes <= 1_000
    assert 500 <= result.absent_status_bytes <= 1_300
    assert result.proof_depth >= 18
