"""Table III: per-operation processing times, plus the derived throughput.

The paper times five operations (500 repetitions, µs): the RA's TLS
detection, certificate parsing, and proof construction, and the client's
proof validation and signature+freshness validation.  Pure-Python absolute
numbers are larger than the paper's (its implementation leaned on C crypto)
except proof construction, which is faster here, so the assertions check what
each row's operation *does* — certificates parsed, Ed25519 verifications made,
counted over the whole run — and the derived claims (an RA handles many
packets/handshakes per second; the client-side overhead is a negligible
fraction of a 30 ms handshake) rather than absolute values.

The benchmark is parameterized over every `repro.store` engine: proof
construction is the dictionary-backed row, and the incremental/compact
engines serve proofs straight from their cached hash levels while the
naive engine may first owe a full rebuild.  Every engine must reproduce
those counts; the printed artifact records the per-engine numbers side by
side.
"""

import pytest

from repro.analysis.reporting import format_table
from repro.analysis.timing import MID_CHAIN_ROW, run_table_3, throughput_from_table3
from repro.crypto import ed25519
from repro.pki.certificate import Certificate

from bench_harness import write_result

#: Table III as printed in the paper (average µs per operation).
PAPER_AVERAGES_US = {
    "TLS detection (DPI)": 2.93,
    "Certificates parsing (DPI)": 19.95,
    "Proof construction": 67.17,
    "Proof validation": 54.51,
    "Sig. and freshness valid.": 197.27,
}

from repro.store import ENGINES as STORE_ENGINES

ENGINES = tuple(sorted(STORE_ENGINES))
REPETITIONS = 500
SIGNATURE_REPETITIONS = 20
#: Certificates in the corpus chain (leaf, intermediate, root).
CHAIN_LENGTH = 3


@pytest.fixture()
def counts(monkeypatch):
    """Certificate parses and Ed25519 verifications, by name, as they happen."""
    seen = {"parses": 0, "verifies": 0}
    parse, verify = Certificate.from_bytes.__func__, ed25519.verify

    def counting_parse(cls, data):
        seen["parses"] += 1
        return parse(cls, data)

    def counting_verify(public, message, signature):
        seen["verifies"] += 1
        return verify(public, message, signature)

    monkeypatch.setattr(Certificate, "from_bytes", classmethod(counting_parse))
    monkeypatch.setattr(ed25519, "verify", counting_verify)
    return seen


@pytest.mark.parametrize("engine", ENGINES)
def test_table3_processing_time(benchmark, engine, counts):
    result = benchmark.pedantic(
        lambda: run_table_3(
            repetitions=REPETITIONS,
            entries=20_000,
            signature_repetitions=SIGNATURE_REPETITIONS,
            engine=engine,
        ),
        rounds=1,
        iterations=1,
    )

    rows = [
        [
            row.entity,
            row.operation,
            f"{row.max_us:.2f}",
            f"{row.min_us:.2f}",
            f"{row.avg_us:.2f}",
            f"{PAPER_AVERAGES_US[row.operation]:.2f}" if row.operation in PAPER_AVERAGES_US else "-",
        ]
        for row in result.rows
    ]
    throughput = throughput_from_table3(result)
    signature = "Sig. and freshness valid."
    mid_chain_extra_us = result.row(MID_CHAIN_ROW).avg_us - result.row(signature).avg_us
    table = format_table(
        ["entity", "operation", "max us", "min us", "avg us", "paper avg us"],
        rows,
        title=f"Table III — detailed processing time ({engine} engine vs paper)",
    )
    extra = "\n".join(
        [
            "",
            f"store engine: {engine}",
            "Certificates parsing (DPI) is first sight of a chain (every repetition a "
            "distinct chain);",
            f"  the same flight seen again, answered from the RA's chain cache "
            f"= {result.dpi_repeat_avg_us:.2f} us",
            "Proof construction is for an *absent* serial, i.e. two neighbours: one key "
            "search, the left",
            "  leaf's climb to the root and the right one's to their fork.  This reproduction "
            "builds a proof faster",
            "  than it parses a chain (paper: 67 vs 20 us), so the paper's parsing < proving "
            "order is not asserted.",
            f"{signature} stays pure Python: its cost is interpreter cost per field",
            "  multiplication (~630 of them: 270 taken % P at ~0.4 us, 360 folded at ~0.25 us), not algorithm.",
            f"{MID_CHAIN_ROW}: the client hashes an honest statement of period p' p' times",
            f"  to the root's anchor: +{mid_chain_extra_us:,.0f} us over p' = 0 at the default chain length.",
            f"derived: non-TLS packets/s      = {throughput.non_tls_packets_per_second:,.0f} (paper: >340,000)",
            f"derived: supported handshakes/s = {throughput.handshakes_per_second:,.0f} (paper: >50,000)",
            f"derived: client validations/s   = {throughput.client_validations_per_second:,.0f} (paper: ~4,000)",
        ]
    )
    write_result(f"table3_processing_time_{engine}", table + extra)

    # Detection is cheaper than parsing, as in the paper.  (Parsing vs proving
    # is not compared: see the caption.)
    assert (
        result.row("TLS detection (DPI)").avg_us
        < result.row("Certificates parsing (DPI)").avg_us
    )
    # The first-sight row is a parse, not a lookup: each repetition parses the
    # whole chain, and the seen flight (primed once) parses nothing again.
    assert counts["parses"] == CHAIN_LENGTH * (REPETITIONS + 1)
    # Signature verification is the client step with the Ed25519 check: one
    # per repetition of each "Sig. and freshness valid." row (p' = 0 and
    # p' = m/2) plus the one untimed check that warms each row, none for
    # "Proof validation".
    assert counts["verifies"] == 2 * (SIGNATURE_REPETITIONS + 1)
    # Throughput claims (scaled-down expectations for pure Python).
    assert throughput.non_tls_packets_per_second > 50_000
    assert throughput.handshakes_per_second > 1_000
