"""Tests for the experiment harnesses (Figs. 4-7, Tables II-IV inputs)."""

import pytest

from repro.analysis.cost import CostModelConfig, simulate_costs, table_2
from repro.analysis.dissemination_speed import build_revocation_message, run_figure_5
from repro.analysis.overhead import (
    FRESHNESS_BYTES,
    figure_7,
    status_size_for_dictionary,
    storage_overhead,
)
from repro.analysis.reporting import (
    cdf_points,
    format_cdf_summary,
    format_series,
    format_table,
    human_bytes,
    human_usd,
)
from repro.analysis.timing import (
    MID_CHAIN_ROW,
    run_table_3,
    throughput_from_table3,
    time_dictionary_update,
)
from repro.analysis.trace_figures import figure_4
from repro.crypto.signing import KeyPair
from repro.dictionary.authdict import CADictionary
from repro.pki.serial import SerialNumber
from repro.ritm.messages import encode_freshness
from repro.workloads.population import generate_population
from repro.workloads.revocation_trace import generate_trace


@pytest.fixture(scope="module")
def trace():
    return generate_trace()


@pytest.fixture(scope="module")
def population():
    # A reduced city count keeps the tests fast; totals are preserved.
    return generate_population(total_cities=2_000)


class TestFigure4:
    def test_monthly_series_and_peak(self, trace):
        result = figure_4(trace)
        assert result.peak_month()[0] == "2014-04"
        assert result.peak_to_baseline_ratio() > 3
        assert result.total_revocations > 1_000_000

    def test_heartbleed_focus_resolution(self, trace):
        result = figure_4(trace, focus_bin_seconds=6 * 3600)
        assert len(result.heartbleed_focus) == 8  # two days at 6-hour bins
        assert max(count for _, count in result.heartbleed_focus) > 5_000


class TestFigure5:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure_5(message_sizes=(0, 15_000, 60_000), repetitions=2)

    def test_message_sizes_grow_with_revocations(self, result):
        assert result.message_bytes[0] < result.message_bytes[15_000] < result.message_bytes[60_000]

    def test_sample_counts(self, result):
        assert len(result.samples[0]) == result.node_count * result.repetitions

    def test_ninety_percent_below_one_second(self, result):
        """The paper's headline: 90 % of nodes download even the largest
        message in under a second (worst case, no caching)."""
        assert result.fraction_below(60_000, 1.0) >= 0.9

    def test_larger_messages_are_slower(self, result):
        assert result.percentile(0, 0.5) <= result.percentile(60_000, 0.5)

    def test_build_message_zero_is_head_only(self):
        assert len(build_revocation_message(0)) < 400


class TestCostModel:
    @pytest.fixture(scope="class")
    def result(self, trace, population):
        return simulate_costs(trace=trace, population=population)

    def test_nineteen_billing_cycles(self, result):
        assert all(len(cycles) == 19 for cycles in result.monthly.values())

    def test_cost_decreases_with_delta(self, result):
        averages = {label: result.average_cost(label) for label in result.monthly}
        assert averages["10s"] > averages["1m"] > averages["1h"] >= averages["1d"]

    def test_heartbleed_cycle_is_the_peak_for_large_delta(self, result):
        peak = result.peak_cycle("1d")
        assert peak.month == "2014-04"

    def test_ra_count_matches_population_model(self, result, population):
        assert result.total_ras == population.total_ras(10)

    def test_cost_scales_inversely_with_clients_per_ra(self, trace, population):
        dense = simulate_costs(
            config=CostModelConfig(clients_per_ra=10), trace=trace, population=population
        )
        sparse = simulate_costs(
            config=CostModelConfig(clients_per_ra=1_000), trace=trace, population=population
        )
        assert dense.average_cost("1m") == pytest.approx(
            100 * sparse.average_cost("1m"), rel=0.05
        )

    def test_table_2_shape(self, trace, population):
        cells = table_2(clients_per_ra_values=(30, 250), deltas={"1h": 3600, "1d": 86_400},
                        trace=trace, population=population)
        assert len(cells) == 4
        lookup = {(cell.clients_per_ra, cell.delta_label): cell.average_cost_usd for cell in cells}
        assert lookup[(30, "1h")] > lookup[(250, "1h")]
        assert lookup[(30, "1h")] > lookup[(30, "1d")]

    def test_sharded_polling_raises_freshness_traffic(self, trace, population):
        base = simulate_costs(
            config=CostModelConfig(clients_per_ra=1_000),
            trace=trace, population=population,
        )
        sharded = simulate_costs(
            config=CostModelConfig(clients_per_ra=1_000, shards_per_dictionary=14),
            trace=trace, population=population,
        )
        # More head objects per poll → strictly higher bytes and cost, but
        # far less than 14×: serial payloads are unchanged.
        assert sharded.average_cost("1h") > base.average_cost("1h")
        month_base = base.monthly["1h"][0]
        month_sharded = sharded.monthly["1h"][0]
        assert month_sharded.bytes_per_ra > month_base.bytes_per_ra
        assert month_sharded.bytes_per_ra < 14 * month_base.bytes_per_ra

    def test_sharded_polling_charges_per_request_overhead(self, trace, population):
        plain = simulate_costs(
            config=CostModelConfig(clients_per_ra=1_000, shards_per_dictionary=2),
            trace=trace, population=population,
        )
        padded = simulate_costs(
            config=CostModelConfig(
                clients_per_ra=1_000, shards_per_dictionary=2,
                per_request_overhead_bytes=50,
            ),
            trace=trace, population=population,
        )
        month_plain = plain.monthly["1h"][0]
        month_padded = padded.monthly["1h"][0]
        polls = 31 * 86_400 / 3600
        # The index fetch plus each of the 2 head fetches per poll carries
        # the request overhead.
        assert month_padded.bytes_per_ra - month_plain.bytes_per_ra == pytest.approx(
            polls * 3 * 50
        )

    def test_shards_per_dictionary_validated(self):
        with pytest.raises(ValueError):
            CostModelConfig(shards_per_dictionary=0)


class TestOverhead:
    def test_figure7_baseline_is_a_few_kilobytes(self, trace):
        result = figure_7(trace)
        # ~254 dictionaries x 20-byte freshness statements ≈ 5 KB per Δ.
        assert 3_000 < result.baseline_bytes() < 8_000

    def test_figure7_small_delta_stays_near_baseline(self, trace):
        result = figure_7(trace, deltas={"10s": 10})
        series = result.series["10s"]
        assert series.max_bytes() < 2 * result.baseline_bytes()

    def test_figure7_daily_delta_reaches_hundreds_of_kilobytes(self, trace):
        result = figure_7(trace, deltas={"1d": 86_400})
        assert result.series["1d"].max_bytes() > 150_000

    def test_figure7_overhead_grows_with_delta(self, trace):
        result = figure_7(trace)
        means = {label: series.mean_bytes() for label, series in result.series.items()}
        assert means["10s"] <= means["1m"] <= means["1h"] <= means["1d"]

    def test_storage_matches_paper_numbers(self):
        current = storage_overhead(1_381_992)
        assert current.storage_bytes == pytest.approx(4.1e6, rel=0.05)
        assert current.memory_bytes == pytest.approx(36e6, rel=0.10)
        ten_million = storage_overhead(10_000_000)
        assert ten_million.storage_bytes == pytest.approx(30e6, rel=0.05)
        assert ten_million.memory_bytes == pytest.approx(260e6, rel=0.10)

    def test_status_size_in_paper_range(self):
        result = status_size_for_dictionary(20_000)
        assert 400 < result.absent_status_bytes < 1_100
        assert result.proof_depth >= 14

    def test_the_freshness_constant_is_the_statement_this_wire_sends(self):
        """Eq. 2's statement, priced at :data:`FRESHNESS_BYTES`, is what the
        codec writes at a 20-byte digest: the hash-chain value alone."""
        keys = KeyPair.generate(b"freshness-bytes")
        dictionary = CADictionary("Const-CA", keys, delta=10, chain_length=8, digest_size=20)
        dictionary.insert([SerialNumber(7)], now=0)
        for statement in (dictionary.latest_freshness, dictionary.refresh(now=30)):
            assert len(encode_freshness(statement)) == FRESHNESS_BYTES


class TestTiming:
    @pytest.fixture(scope="class")
    def table3(self):
        return run_table_3(repetitions=40, entries=2_000, signature_repetitions=3)

    def test_all_rows_present(self, table3):
        operations = {row.operation for row in table3.rows}
        assert operations == {
            "TLS detection (DPI)",
            "Certificates parsing (DPI)",
            "Proof construction",
            "Proof validation",
            "Sig. and freshness valid.",
            MID_CHAIN_ROW,
        }

    def test_min_avg_max_ordering(self, table3):
        for row in table3.rows:
            assert row.min_us <= row.avg_us <= row.max_us

    def test_detection_is_the_cheapest_ra_operation(self, table3):
        assert table3.row("TLS detection (DPI)").avg_us < table3.row("Proof construction").avg_us
        assert (
            table3.row("TLS detection (DPI)").avg_us
            < table3.row("Certificates parsing (DPI)").avg_us
        )

    def test_throughput_estimates(self, table3):
        throughput = throughput_from_table3(table3)
        assert throughput.non_tls_packets_per_second > 10_000
        assert throughput.handshakes_per_second > 500
        assert throughput.client_validations_per_second > 0

    def test_no_timed_repetition_builds_a_comb_table(self, monkeypatch):
        """Every row, the signature rows included, is timed warm: the key's
        comb table is built before the timed loop, never inside it."""
        from repro.analysis import timing
        from repro.crypto import ed25519

        ed25519._key_table.cache_clear()
        builds, per_row = [], []
        build = ed25519._comb_table
        monkeypatch.setattr(
            ed25519, "_comb_table", lambda *args: builds.append(args) or build(*args)
        )
        time_operation = timing._time_operation

        def counted(operation, repetitions):
            before = len(builds)
            row = time_operation(operation, repetitions)
            per_row.append(len(builds) - before)
            return row

        monkeypatch.setattr(timing, "_time_operation", counted)
        run_table_3(repetitions=3, entries=200, signature_repetitions=2)
        assert builds, "the untimed check builds the key's table"
        assert per_row == [0] * len(per_row)

    def test_dictionary_update_timing(self):
        timing = time_dictionary_update(batch_size=200, existing_entries=500)
        assert timing.ca_insert_ms > 0
        assert timing.ra_update_ms > 0


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [[1, 2], ["xx", "yyyy"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbb" in lines[1]
        assert len(lines) == 5

    def test_format_series_downsamples(self):
        points = [(i, i * i) for i in range(1_000)]
        text = format_series(points, max_points=10)
        assert len(text.splitlines()) <= 14

    def test_cdf_summary_and_points(self):
        samples = [0.1 * i for i in range(1, 101)]
        summary = format_cdf_summary(samples, "lat")
        assert "p90=" in summary and "<= 1.0s" in summary
        points = cdf_points(samples, points=10)
        assert len(points) == 10
        assert points[-1][1] == 1.0

    def test_cdf_summary_empty(self):
        assert "no samples" in format_cdf_summary([], "x")

    def test_humanizers(self):
        assert human_bytes(1536) == "1.5 KB"
        assert human_bytes(5 * 1024**3) == "5.0 GB"
        assert human_usd(54_321) == "$54.321k"
        assert human_usd(12.5) == "$12.50"
