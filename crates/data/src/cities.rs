//! Cities, population centers, and the coalescing step.
//!
//! §4 of the paper: "we connect only the 200 most populous cities in the
//! contiguous United States. In addition, we coalesce suburbs and cities
//! within 50 km of each other, ending up with 120 population centers." This
//! module provides the [`City`] type, the embedded US and EU city tables, and
//! `coalesce_cities`, which implements exactly that merge.

use cisp_geo::{geodesic, GeoPoint};

use crate::{eu_cities::EU_CITIES, us_cities::US_CITIES};

/// A city or coalesced population center.
#[derive(Debug, Clone, PartialEq)]
pub struct City {
    /// Name of the city (for coalesced centers, the name of the most populous
    /// constituent city).
    pub name: String,
    /// Location of the city centre (for coalesced centers, the location of
    /// the most populous constituent city).
    pub location: GeoPoint,
    /// Population (for coalesced centers, the sum of the constituents).
    pub population: u64,
}

impl City {
    /// Construct a city.
    pub fn new(name: &str, lat: f64, lon: f64, population: u64) -> Self {
        Self {
            name: name.to_string(),
            location: GeoPoint::new(lat, lon),
            population,
        }
    }
}

/// Geographic region of a deployment scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// Contiguous United States.
    UnitedStates,
    /// Continental Europe plus Great Britain.
    Europe,
}

impl Region {
    /// Bounding box of the region as `(min_lat, max_lat, min_lon, max_lon)`,
    /// used by the synthetic tower and storm generators.
    pub fn bounding_box(&self) -> (f64, f64, f64, f64) {
        match self {
            Region::UnitedStates => (24.5, 49.5, -125.0, -66.5),
            Region::Europe => (36.0, 62.0, -10.0, 31.0),
        }
    }

    /// All raw (pre-coalescing) cities of the region, ordered by decreasing
    /// population.
    pub(crate) fn raw_cities(&self) -> Vec<City> {
        let table = match self {
            Region::UnitedStates => US_CITIES,
            Region::Europe => EU_CITIES,
        };
        let mut cities: Vec<City> = table
            .iter()
            .map(|&(name, lat, lon, pop)| City::new(name, lat, lon, pop))
            .collect();
        cities.sort_by(|a, b| b.population.cmp(&a.population).then(a.name.cmp(&b.name)));
        cities
    }
}

/// The raw top-`n` most populous US cities (no coalescing).
pub fn us_top_cities(n: usize) -> Vec<City> {
    let mut cities = Region::UnitedStates.raw_cities();
    cities.truncate(n);
    cities
}

/// European cities with population at least `min_population`.
pub(crate) fn eu_cities_above(min_population: u64) -> Vec<City> {
    Region::Europe
        .raw_cities()
        .into_iter()
        .filter(|c| c.population >= min_population)
        .collect()
}

/// Coalesce cities within `radius_km` of each other into population centers.
///
/// The merge is greedy in population order, exactly as a person would do it
/// with a map: take the most populous unassigned city, absorb every
/// unassigned city within `radius_km` of it, and repeat. The center keeps the
/// anchor city's name and location and the summed population.
pub(crate) fn coalesce_cities(cities: &[City], radius_km: f64) -> Vec<City> {
    assert!(radius_km >= 0.0);
    let mut sorted: Vec<&City> = cities.iter().collect();
    sorted.sort_by(|a, b| b.population.cmp(&a.population).then(a.name.cmp(&b.name)));

    let mut assigned = vec![false; sorted.len()];
    let mut centers = Vec::new();
    for i in 0..sorted.len() {
        if assigned[i] {
            continue;
        }
        assigned[i] = true;
        let anchor = sorted[i];
        let mut population = anchor.population;
        for j in (i + 1)..sorted.len() {
            if assigned[j] {
                continue;
            }
            if geodesic::distance_km(anchor.location, sorted[j].location) <= radius_km {
                assigned[j] = true;
                population += sorted[j].population;
            }
        }
        centers.push(City {
            name: anchor.name.clone(),
            location: anchor.location,
            population,
        });
    }
    centers
}

/// The paper's default US scenario: top 200 cities coalesced at 50 km into
/// population centers (the paper arrives at 120).
pub fn us_population_centers() -> Vec<City> {
    coalesce_cities(&us_top_cities(200), 50.0)
}

/// The paper's European scenario: cities above 300 k population, coalesced at
/// 50 km.
pub fn europe_population_centers() -> Vec<City> {
    coalesce_cities(&eu_cities_above(300_000), 50.0)
}

/// Fraction of the total tabulated population that lives within `radius_km`
/// of one of the given centers (the paper quotes 85 % within 100 km of the
/// 120 US centers).
pub fn population_coverage(centers: &[City], all_cities: &[City], radius_km: f64) -> f64 {
    let total: u64 = all_cities.iter().map(|c| c.population).sum();
    if total == 0 {
        return 0.0;
    }
    let covered: u64 = all_cities
        .iter()
        .filter(|c| {
            centers
                .iter()
                .any(|center| geodesic::distance_km(center.location, c.location) <= radius_km)
        })
        .map(|c| c.population)
        .sum();
    covered as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn us_table_is_large_and_sorted() {
        let cities = Region::UnitedStates.raw_cities();
        assert!(cities.len() >= 190, "got {}", cities.len());
        for w in cities.windows(2) {
            assert!(w[0].population >= w[1].population);
        }
        assert_eq!(cities[0].name, "New York");
    }

    #[test]
    fn all_us_cities_inside_bounding_box() {
        let (min_lat, max_lat, min_lon, max_lon) = Region::UnitedStates.bounding_box();
        for c in Region::UnitedStates.raw_cities() {
            assert!(
                c.location.lat_deg >= min_lat
                    && c.location.lat_deg <= max_lat
                    && c.location.lon_deg >= min_lon
                    && c.location.lon_deg <= max_lon,
                "{} at {} outside the contiguous US box",
                c.name,
                c.location
            );
        }
    }

    #[test]
    fn eu_table_has_major_capitals() {
        let cities = Region::Europe.raw_cities();
        for name in ["London", "Paris", "Berlin", "Madrid", "Warsaw"] {
            assert!(cities.iter().any(|c| c.name == name), "missing {name}");
        }
    }

    #[test]
    fn coalescing_reduces_count_to_population_centers() {
        let centers = us_population_centers();
        // The paper gets 120 from 200; our table of ~200 raw entries lands in
        // the same neighbourhood.
        assert!(
            centers.len() >= 100 && centers.len() <= 160,
            "got {} centers",
            centers.len()
        );
        // Coalescing must not lose population.
        let raw_total: u64 = us_top_cities(200).iter().map(|c| c.population).sum();
        let center_total: u64 = centers.iter().map(|c| c.population).sum();
        assert_eq!(raw_total, center_total);
    }

    #[test]
    fn coalescing_merges_known_suburbs() {
        let centers = us_population_centers();
        // Long Beach (≈30 km from LA) must be absorbed into Los Angeles.
        assert!(!centers.iter().any(|c| c.name == "Long Beach"));
        let la = centers.iter().find(|c| c.name == "Los Angeles").unwrap();
        assert!(la.population > 3_792_621, "LA should have absorbed suburbs");
        // St. Paul merges into Minneapolis.
        assert!(!centers.iter().any(|c| c.name == "St. Paul"));
    }

    #[test]
    fn coalescing_keeps_distant_cities_separate() {
        let centers = us_population_centers();
        for name in ["New York", "Chicago", "Denver", "Seattle", "Miami"] {
            assert!(centers.iter().any(|c| c.name == name), "missing {name}");
        }
        // All pairwise distances between centers exceed... not necessarily the
        // radius (greedy merge), but no two centers may be closer than a few km.
        for (i, a) in centers.iter().enumerate() {
            for b in centers.iter().skip(i + 1) {
                assert!(
                    geodesic::distance_km(a.location, b.location) > 5.0,
                    "{} and {} are nearly co-located",
                    a.name,
                    b.name
                );
            }
        }
    }

    #[test]
    fn coalesce_with_zero_radius_is_identity_sized() {
        let cities = us_top_cities(50);
        let centers = coalesce_cities(&cities, 0.0);
        assert_eq!(centers.len(), 50);
    }

    #[test]
    fn coverage_of_centers_over_raw_cities_is_high() {
        let centers = us_population_centers();
        let raw = us_top_cities(200);
        let coverage = population_coverage(&centers, &raw, 100.0);
        // Within the tabulated universe, coverage at 100 km should be ~1.0
        // (every tabulated city is itself near some center).
        assert!(coverage > 0.95, "coverage = {coverage}");
    }

    #[test]
    fn europe_centers_count_is_plausible() {
        let centers = europe_population_centers();
        assert!(
            centers.len() >= 60 && centers.len() <= 130,
            "got {} centers",
            centers.len()
        );
    }

    #[test]
    fn us_top_cities_truncates() {
        assert_eq!(us_top_cities(10).len(), 10);
        assert_eq!(us_top_cities(10)[0].name, "New York");
    }

    #[test]
    fn eu_cities_above_filters_population() {
        let big = eu_cities_above(1_000_000);
        assert!(big.iter().all(|c| c.population >= 1_000_000));
        assert!(big.len() >= 10);
    }
}
