//! The paper's traffic models (§6.3), their mixes (§6.4) and the population
//! perturbation (§5), over a design's own sites.
//!
//! §6.3 compares three deployment scenarios:
//!
//! * **City–City**: traffic between population centers proportional to the
//!   product of their populations — the paper's default,
//!   [`population_product_traffic`];
//! * **City–DC**: each city exchanges traffic, proportional to its
//!   population, with its closest data center;
//! * **DC–DC**: equal traffic between every pair of data centers.
//!
//! The sites are the cities themselves, as in `Scenario::build`; the
//! population centers closest to the six Google US data centers
//! ([`dc_proxy_sites`]) stand in for the data centers. [`TrafficComponents`]
//! builds the three matrices once, and a [`TrafficMix`] weights them into
//! one matrix.

use cisp_data::cities::City;
use cisp_data::datacenters::dc_proxy_sites;
use cisp_data::rng::seeded_rng;
use cisp_geo::{geodesic, GeoPoint};
use cisp_graph::{pair_indices, DistMatrix};
use rand::Rng;

use crate::scenario::population_product_traffic;

/// The three raw §6.3 traffic models over one list of cities.
#[derive(Debug, Clone)]
pub struct TrafficComponents {
    /// The population product.
    pub city_city: DistMatrix,
    /// Each city's population to and from its closest DC proxy.
    pub city_dc: DistMatrix,
    /// 1 between every two distinct DC proxies.
    pub dc_dc: DistMatrix,
}

impl TrafficComponents {
    /// The three models over `cities`, with the data centers represented by
    /// their closest cities.
    pub fn new(cities: &[City]) -> Self {
        let sites: Vec<GeoPoint> = cities.iter().map(|c| c.location).collect();
        let dcs = dc_proxy_sites(&sites);
        let n = sites.len();
        let mut dc_dc = DistMatrix::zeros(n);
        for &a in &dcs {
            for &b in &dcs {
                if a != b {
                    dc_dc.set(a, b, 1.0);
                }
            }
        }
        let mut city_dc = DistMatrix::zeros(n);
        for i in 0..n {
            let closest = *dcs
                .iter()
                .min_by(|&&a, &&b| {
                    geodesic::distance_km(sites[i], sites[a])
                        .total_cmp(&geodesic::distance_km(sites[i], sites[b]))
                })
                .expect("at least one DC proxy");
            if closest != i {
                let pop = cities[i].population as f64;
                city_dc.set(i, closest, city_dc.get(i, closest) + pop);
                city_dc.set(closest, i, city_dc.get(closest, i) + pop);
            }
        }
        Self {
            city_city: population_product_traffic(cities),
            city_dc,
            dc_dc,
        }
    }
}

/// A named traffic mix (shares of city-city : city-DC : DC-DC), e.g. the
/// designed-for 4:3:3 of §6.4 and its perturbations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficMix {
    /// Share of city-to-city traffic.
    pub city_city: f64,
    /// Share of city-to-data-center traffic.
    pub city_dc: f64,
    /// Share of data-center-to-data-center traffic.
    pub dc_dc: f64,
}

impl TrafficMix {
    /// The designed-for mix of §6.4.
    pub fn designed() -> Self {
        Self {
            city_city: 4.0,
            city_dc: 3.0,
            dc_dc: 3.0,
        }
    }

    /// The mixes §6.4 tests against the designed-for network.
    pub fn paper_variants() -> Vec<(String, Self)> {
        vec![
            ("4:3:3".to_string(), Self::designed()),
            (
                "5:3:3".to_string(),
                Self {
                    city_city: 5.0,
                    ..Self::designed()
                },
            ),
            (
                "4:3:4".to_string(),
                Self {
                    dc_dc: 4.0,
                    ..Self::designed()
                },
            ),
            (
                "4:4:3".to_string(),
                Self {
                    city_dc: 4.0,
                    ..Self::designed()
                },
            ),
        ]
    }

    /// The mix as one matrix: `Σ share_k · component_k / total_k`, with the
    /// shares normalised to sum to 1, so each share is that component's
    /// fraction of the unit total. A component with no weight adds nothing.
    pub fn matrix(&self, components: &TrafficComponents) -> DistMatrix {
        let shares = [
            (self.city_city, &components.city_city),
            (self.city_dc, &components.city_dc),
            (self.dc_dc, &components.dc_dc),
        ];
        let n = components.city_city.n();
        for (share, m) in shares {
            assert!(share >= 0.0);
            assert_eq!(m.n(), n, "mismatched site counts in mix");
        }
        let total_share: f64 = shares.iter().map(|(s, _)| *s).sum();
        assert!(total_share > 0.0);
        let mut weights = DistMatrix::zeros(n);
        for (share, m) in shares {
            let component_total = m.upper_triangle_sum();
            if component_total <= 0.0 {
                continue;
            }
            let factor = share / total_share / component_total;
            for (i, j) in pair_indices(n) {
                let v = weights.get(i, j) + m.get(i, j) * factor;
                weights.set_sym(i, j, v);
            }
        }
        weights
    }

    /// The DC–DC (bulk replication) share of the mix — the background class
    /// when the mix is simulated split into latency classes.
    pub fn background_share(&self) -> f64 {
        self.dc_dc / (self.city_city + self.city_dc + self.dc_dc)
    }
}

/// Re-weight city populations by factors drawn from `U[1 − γ, 1 + γ]` (§5):
/// a city producing more or less traffic than the designed-for model
/// expects. Fig. 5 evaluates γ ∈ {0.1, 0.3, 0.5}.
///
/// γ must lie in `[0, 1]` so populations stay non-negative. The RNG stream is
/// derived from `seed`, so a given `(seed, γ)` pair always produces the same
/// perturbation.
pub fn perturbed_populations(cities: &[City], gamma: f64, seed: u64) -> Vec<City> {
    assert!((0.0..=1.0).contains(&gamma), "γ must be in [0, 1]");
    let mut rng = seeded_rng(seed, "population-perturbation");
    cities
        .iter()
        .map(|c| {
            let factor = 1.0 - gamma + 2.0 * gamma * rng.gen::<f64>();
            City {
                name: c.name.clone(),
                location: c.location,
                population: (c.population as f64 * factor).round().max(0.0) as u64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisp_data::cities::us_top_cities;

    fn components() -> (Vec<City>, TrafficComponents) {
        let cities = us_top_cities(20);
        let components = TrafficComponents::new(&cities);
        (cities, components)
    }

    fn proxies(cities: &[City]) -> Vec<usize> {
        let sites: Vec<GeoPoint> = cities.iter().map(|c| c.location).collect();
        dc_proxy_sites(&sites)
    }

    /// A component carrying weight 1 on the single pair `(a, b)` of 3 sites.
    fn one_pair(a: usize, b: usize) -> DistMatrix {
        let mut m = DistMatrix::zeros(3);
        m.set_sym(a, b, 1.0);
        m
    }

    #[test]
    fn city_city_weights_follow_population_products() {
        let (cities, c) = components();
        assert_eq!(c.city_city, population_product_traffic(&cities));
        // NYC (0) – LA (1) is the largest product → weight 1.
        assert_eq!(c.city_city.get(0, 1), 1.0);
    }

    #[test]
    fn dc_dc_weights_are_uniform_between_dcs_only() {
        let (cities, c) = components();
        let dcs = proxies(&cities);
        let n = cities.len();
        for i in 0..n {
            for j in 0..n {
                let expected = if i != j && dcs.contains(&i) && dcs.contains(&j) {
                    1.0
                } else {
                    0.0
                };
                assert_eq!(c.dc_dc.get(i, j), expected, "({i},{j})");
            }
        }
        assert!(c.dc_dc.upper_triangle_sum() > 0.0);
    }

    #[test]
    fn city_dc_routes_to_closest_dc() {
        let (cities, c) = components();
        let dcs = proxies(&cities);
        assert!(c.city_dc.is_symmetric(0.0));
        let mut checked = 0;
        for (i, city) in cities.iter().enumerate() {
            if dcs.contains(&i) {
                continue;
            }
            // One positive entry per non-proxy city: its population, on the
            // proxy nearest to it.
            let positive: Vec<usize> = (0..cities.len())
                .filter(|&j| c.city_dc.get(i, j) > 0.0)
                .collect();
            let nearest = *dcs
                .iter()
                .min_by(|&&a, &&b| {
                    let d = |p: usize| geodesic::distance_km(city.location, cities[p].location);
                    d(a).total_cmp(&d(b))
                })
                .unwrap();
            assert_eq!(positive, vec![nearest], "city {i}");
            assert_eq!(c.city_dc.get(i, nearest), city.population as f64);
            checked += 1;
        }
        assert!(checked > 0);
    }

    #[test]
    fn mix_respects_shares() {
        let c = TrafficComponents {
            city_city: one_pair(0, 1),
            city_dc: one_pair(1, 2),
            dc_dc: one_pair(0, 2),
        };
        let mixed = TrafficMix::designed().matrix(&c);
        assert!((mixed.get(0, 1) / mixed.get(1, 2) - 4.0 / 3.0).abs() < 1e-12);
        assert!((mixed.get(1, 2) / mixed.get(0, 2) - 1.0).abs() < 1e-12);
        // Shares are normalised: the mix has unit total.
        assert!((mixed.upper_triangle_sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "mismatched site counts")]
    fn mix_rejects_mismatched_sizes() {
        let c = TrafficComponents {
            city_city: one_pair(0, 1),
            city_dc: one_pair(1, 2),
            dc_dc: DistMatrix::zeros(4),
        };
        TrafficMix::designed().matrix(&c);
    }

    #[test]
    fn symmetry_survives_mixing() {
        let (_, c) = components();
        for (_, mix) in TrafficMix::paper_variants() {
            let m = mix.matrix(&c);
            assert!(m.is_symmetric(0.0));
            assert!((m.upper_triangle_sum() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn mix_combines_all_three_components() {
        let (cities, c) = components();
        let mixed = TrafficMix::designed().matrix(&c);
        // Every pair carries 0.4, 0.3 and 0.3 of its components' unit-total
        // weights.
        let unit = |m: &DistMatrix, i, j| m.get(i, j) / m.upper_triangle_sum();
        for (i, j) in pair_indices(cities.len()) {
            let expected = 0.4 * unit(&c.city_city, i, j)
                + 0.3 * unit(&c.city_dc, i, j)
                + 0.3 * unit(&c.dc_dc, i, j);
            assert!((mixed.get(i, j) - expected).abs() < 1e-15, "({i},{j})");
        }
        // Between two proxies the DC–DC share adds to the City–City one.
        let dcs = proxies(&cities);
        let (a, b) = (dcs[0], *dcs.iter().find(|&&d| d != dcs[0]).unwrap());
        assert!(mixed.get(a, b) > 0.4 * unit(&c.city_city, a, b));
        assert!(c.city_dc.upper_triangle_sum() > 0.0);
    }

    #[test]
    fn paper_variants_cover_the_four_mixes() {
        let variants = TrafficMix::paper_variants();
        assert_eq!(variants.len(), 4);
        assert_eq!(variants[0].1, TrafficMix::designed());
        for (label, mix) in &variants {
            assert_eq!(
                *label,
                format!("{}:{}:{}", mix.city_city, mix.city_dc, mix.dc_dc)
            );
        }
    }

    #[test]
    fn background_share_matches_the_mix_split() {
        // The designed mix is 70% user-facing, 30% DC–DC bulk.
        assert_eq!(TrafficMix::designed().background_share(), 0.3);
    }

    /// The population-product matrix over perturbed cities.
    fn perturbed_city_city_matrix(cities: &[City], gamma: f64, seed: u64) -> DistMatrix {
        population_product_traffic(&perturbed_populations(cities, gamma, seed))
    }

    #[test]
    fn zero_gamma_is_identity() {
        let cities = us_top_cities(10);
        let perturbed = perturbed_populations(&cities, 0.0, 1);
        for (a, b) in cities.iter().zip(perturbed.iter()) {
            assert_eq!(a.population, b.population);
        }
    }

    #[test]
    fn perturbation_stays_within_gamma_band() {
        let cities = us_top_cities(20);
        for &gamma in &[0.1, 0.3, 0.5] {
            let perturbed = perturbed_populations(&cities, gamma, 7);
            for (a, b) in cities.iter().zip(perturbed.iter()) {
                let ratio = b.population as f64 / a.population as f64;
                assert!(
                    ratio >= 1.0 - gamma - 0.01 && ratio <= 1.0 + gamma + 0.01,
                    "ratio {ratio} outside γ = {gamma} band"
                );
            }
        }
    }

    #[test]
    fn perturbation_is_deterministic_per_seed() {
        let cities = us_top_cities(10);
        let a = perturbed_populations(&cities, 0.3, 5);
        let b = perturbed_populations(&cities, 0.3, 5);
        let c = perturbed_populations(&cities, 0.3, 6);
        assert_eq!(
            a.iter().map(|x| x.population).collect::<Vec<_>>(),
            b.iter().map(|x| x.population).collect::<Vec<_>>()
        );
        assert_ne!(
            a.iter().map(|x| x.population).collect::<Vec<_>>(),
            c.iter().map(|x| x.population).collect::<Vec<_>>()
        );
    }

    #[test]
    fn larger_gamma_moves_matrix_further_from_nominal() {
        let cities = us_top_cities(15);
        let nominal = perturbed_city_city_matrix(&cities, 0.0, 3);
        let small = perturbed_city_city_matrix(&cities, 0.1, 3);
        let large = perturbed_city_city_matrix(&cities, 0.5, 3);
        let distance = |a: &DistMatrix, b: &DistMatrix| -> f64 {
            pair_indices(a.n())
                .map(|(i, j)| (a.get(i, j) - b.get(i, j)).abs())
                .sum()
        };
        assert!(distance(&nominal, &large) > distance(&nominal, &small));
    }

    #[test]
    fn perturbed_matrix_remains_valid() {
        let cities = us_top_cities(10);
        let m = perturbed_city_city_matrix(&cities, 0.5, 11);
        assert_eq!(m.n(), 10);
        assert!(m.upper_triangle_sum() > 0.0);
        for i in 0..10 {
            assert_eq!(m.get(i, i), 0.0);
        }
    }

    #[test]
    #[should_panic]
    fn gamma_above_one_rejected() {
        perturbed_populations(&us_top_cities(3), 1.5, 1);
    }
}
