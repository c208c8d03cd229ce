"""Tests for the synthetic datasets: revocation trace, population, PlanetLab, corpus."""

import datetime as dt

import pytest

from repro.cdn.geography import Region
from repro.workloads.certificates import generate_corpus
from repro.workloads.planetlab import PLANETLAB_NODE_COUNT, generate_vantage_points
from repro.workloads.population import (
    DEFAULT_CLIENTS_PER_RA,
    TOTAL_POPULATION,
    generate_population,
)
from repro.workloads.revocation_trace import (
    HEARTBLEED_BURST_PEAK,
    LARGEST_CRL_ENTRIES,
    NUMBER_OF_CRLS,
    TOTAL_REVOCATIONS,
    generate_trace,
    serials_for_count,
)


@pytest.fixture(scope="module")
def trace():
    return generate_trace()


class TestRevocationTrace:
    def test_total_matches_paper_dataset(self, trace):
        assert trace.total == TOTAL_REVOCATIONS

    def test_ca_count_and_largest_crl(self, trace):
        assert len(trace.ca_totals) == NUMBER_OF_CRLS
        assert max(trace.ca_totals.values()) == LARGEST_CRL_ENTRIES
        assert sum(trace.ca_totals.values()) == TOTAL_REVOCATIONS

    def test_average_revocations_per_ca_close_to_paper(self, trace):
        average = sum(trace.ca_totals.values()) / len(trace.ca_totals)
        assert average == pytest.approx(5_440, rel=0.01)

    def test_peak_day_is_during_heartbleed_burst(self, trace):
        peak = trace.peak_day()
        assert abs((peak.day - HEARTBLEED_BURST_PEAK).days) <= 1

    def test_peak_is_an_order_of_magnitude_above_baseline(self, trace):
        quiet_january_day = next(
            entry for entry in trace.daily if entry.day == dt.date(2014, 2, 5)
        )
        assert trace.peak_day().count > 10 * quiet_january_day.count

    def test_determinism(self):
        assert generate_trace(seed=3).total == generate_trace(seed=3).total
        assert [e.count for e in generate_trace(seed=3).daily[:30]] == [
            e.count for e in generate_trace(seed=3).daily[:30]
        ]

    def test_monthly_counts_cover_horizon(self, trace):
        months = dict(trace.monthly_counts())
        assert "2014-01" in months and "2015-06" in months

    def test_counts_per_bin_conserves_daily_totals(self, trace):
        day = dt.date(2014, 4, 16)
        daily_total = next(entry.count for entry in trace.daily if entry.day == day)
        bins = trace.counts_per_bin(day, day, bin_seconds=3600)
        assert len(bins) == 24
        assert sum(count for _, count in bins) == daily_total

    def test_between_is_inclusive(self, trace):
        window = trace.between(dt.date(2014, 4, 14), dt.date(2014, 4, 20))
        assert len(window) == 7

    def test_serials_are_unique_three_byte_values(self):
        serials = serials_for_count(10_000, seed=2)
        assert len(set(serials)) == 10_000
        assert all(1 <= value < 2**24 for value in serials)


class TestPopulation:
    @pytest.fixture(scope="class")
    def population(self):
        return generate_population(total_cities=3_000)

    def test_total_population_preserved(self, population):
        total = sum(city.population for city in population.cities)
        assert total == pytest.approx(TOTAL_POPULATION, rel=0.001)

    def test_every_region_has_population(self, population):
        by_region = population.population_by_region()
        assert all(by_region[region] > 0 for region in Region)

    def test_region_shares_roughly_match_targets(self, population):
        from repro.cdn.geography import POPULATION_SHARE

        by_region = population.population_by_region()
        total = sum(city.population for city in population.cities)
        for region, share in POPULATION_SHARE.items():
            assert by_region[region] / total == pytest.approx(share, abs=0.08)

    def test_ra_counts_scale_inversely_with_clients_per_ra(self, population):
        dense = population.total_ras(clients_per_ra=10)
        sparse = population.total_ras(clients_per_ra=1_000)
        assert dense == pytest.approx(100 * sparse, rel=0.01)
        # The paper's headline figure: 10 clients/RA → ~230 million RAs.
        assert dense == pytest.approx(230_000_000, rel=0.02)

    def test_invalid_clients_per_ra_rejected(self, population):
        with pytest.raises(ValueError):
            population.ras_by_region(clients_per_ra=0)

    def test_city_sizes_follow_heavy_tail(self, population):
        sizes = [city.population for city in population.cities]
        assert max(sizes) > 20 * (sum(sizes) // len(sizes))


class TestPlanetLabAndCorpus:
    def test_vantage_point_count_matches_paper(self):
        nodes = generate_vantage_points()
        assert len(nodes) == PLANETLAB_NODE_COUNT == 80

    def test_vantage_points_cover_multiple_regions(self):
        regions = {node.location.region for node in generate_vantage_points()}
        assert len(regions) >= 5

    def test_vantage_points_deterministic(self):
        first = generate_vantage_points(seed=9)
        second = generate_vantage_points(seed=9)
        assert [node.location.distance_factor for node in first] == [
            node.location.distance_factor for node in second
        ]

    def test_corpus_structure(self):
        corpus = generate_corpus(ca_count=2, domains_per_ca=3, use_intermediates=True)
        assert len(corpus.chains) == 6
        assert len(corpus.authorities) == 4  # 2 roots + 2 intermediates
        assert all(len(chain) == 3 for chain in corpus.chains)
        assert set(corpus.ca_public_keys()) == {a.name for a in corpus.authorities}

    def test_corpus_without_intermediates(self):
        corpus = generate_corpus(ca_count=1, domains_per_ca=2, use_intermediates=False)
        assert all(len(chain) == 2 for chain in corpus.chains)

