"""City-population model for estimating RA counts per CDN pricing region.

The paper (§VII-C) sizes the RA deployment from the MaxMind city dataset:
2.3 billion people across 47,980 cities, with the number of RAs assumed
proportional to population ("we estimate that the number of RAs is
proportional to the population size"), e.g. 10 clients per RA giving 230
million RAs world-wide.  The real dataset is not bundled, so this module
generates a synthetic catalogue with the same aggregate properties:

* the same total population and city count (configurable);
* a Zipf-like population distribution across cities;
* cities partitioned into CloudFront pricing regions according to the
  region's share of world population.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from repro.cdn.geography import POPULATION_SHARE, GeoLocation, Region

#: Calibration constants from the paper.
TOTAL_POPULATION = 2_300_000_000
TOTAL_CITIES = 47_980
DEFAULT_CLIENTS_PER_RA = 10


@dataclass(frozen=True)
class City:
    """One city: name, region, population, and a within-region location."""

    name: str
    region: Region
    population: int
    distance_factor: float

    def location(self) -> GeoLocation:
        """The city as a network location (region + distance factor)."""
        return GeoLocation(region=self.region, distance_factor=self.distance_factor)


@dataclass
class PopulationModel:
    """A synthetic world: cities with populations, partitioned into regions."""

    cities: List[City]

    def population_by_region(self) -> Dict[Region, int]:
        """Client population aggregated per network region."""
        totals: Dict[Region, int] = {region: 0 for region in Region}
        for city in self.cities:
            totals[city.region] += city.population
        return totals

    def ras_by_region(self, clients_per_ra: int = DEFAULT_CLIENTS_PER_RA) -> Dict[Region, int]:
        """Number of RAs per region for a given clients-per-RA density."""
        if clients_per_ra <= 0:
            raise ValueError("clients_per_ra must be positive")
        return {
            region: population // clients_per_ra
            for region, population in self.population_by_region().items()
        }

    def total_ras(self, clients_per_ra: int = DEFAULT_CLIENTS_PER_RA) -> int:
        """Fleet-wide RA count at the given clients-per-RA provisioning."""
        return sum(self.ras_by_region(clients_per_ra).values())


def generate_population(
    seed: int = 42,
    total_population: int = TOTAL_POPULATION,
    total_cities: int = TOTAL_CITIES,
    zipf_exponent: float = 1.05,
) -> PopulationModel:
    """Build the synthetic city catalogue.

    City sizes follow a Zipf law with exponent ``zipf_exponent`` (population
    of the rank-k city proportional to ``1/k^s``), which reproduces the long
    tail of real city-size distributions.
    """
    rng = random.Random(seed)

    # Decide how many cities each region gets (proportional to its share).
    regions = list(Region)
    city_counts = {
        region: max(1, int(total_cities * POPULATION_SHARE[region])) for region in regions
    }
    drift = total_cities - sum(city_counts.values())
    city_counts[Region.EUROPE] += drift

    # Global Zipf weights over all city ranks.
    weights = [1.0 / (rank**zipf_exponent) for rank in range(1, total_cities + 1)]
    weight_sum = sum(weights)

    # Assign ranks to regions so each region's population share is respected:
    # iterate ranks largest-first and give each to the region whose share is
    # most under-served so far.
    target_share = {region: POPULATION_SHARE[region] for region in regions}
    assigned_weight = {region: 0.0 for region in regions}
    remaining_cities = dict(city_counts)
    assignments: List[Region] = []
    for rank_weight in weights:
        deficits = {
            region: target_share[region] - assigned_weight[region] / weight_sum
            for region in regions
            if remaining_cities[region] > 0
        }
        region = max(deficits, key=deficits.get)
        assignments.append(region)
        assigned_weight[region] += rank_weight
        remaining_cities[region] -= 1

    cities: List[City] = []
    allocated = 0
    for index, (rank_weight, region) in enumerate(zip(weights, assignments)):
        population = int(total_population * rank_weight / weight_sum)
        allocated += population
        cities.append(
            City(
                name=f"city-{index:05d}",
                region=region,
                population=population,
                distance_factor=rng.random(),
            )
        )
    # Put the rounding remainder in the largest city.
    remainder = total_population - allocated
    if cities and remainder > 0:
        first = cities[0]
        cities[0] = City(
            name=first.name,
            region=first.region,
            population=first.population + remainder,
            distance_factor=first.distance_factor,
        )
    return PopulationModel(cities=cities)
