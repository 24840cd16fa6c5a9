//! Population perturbation (§5).
//!
//! To emulate a city producing more or less traffic than the designed-for
//! model expects, the paper re-weights each city's population by a factor
//! drawn uniformly from `[1 − γ, 1 + γ]` and rebuilds the population-product
//! matrix. Fig. 5 evaluates γ ∈ {0.1, 0.3, 0.5}.

use cisp_data::cities::City;
use cisp_data::rng::seeded_rng;
use rand::Rng;

/// Re-weight city populations by factors drawn from `U[1 − γ, 1 + γ]`.
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
    use crate::matrix::TrafficMatrix;
    use crate::models::{city_city_matrix, SiteSet};
    use cisp_data::cities::us_top_cities;

    /// The population-product matrix over perturbed cities.
    fn perturbed_city_city_matrix(cities: &[City], gamma: f64, seed: u64) -> TrafficMatrix {
        city_city_matrix(&SiteSet::new(
            perturbed_populations(cities, gamma, seed),
            Vec::new(),
        ))
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
        let distance = |a: &TrafficMatrix, b: &TrafficMatrix| -> f64 {
            let n = a.num_sites();
            let mut d = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    d += (a.weight(i, j) - b.weight(i, j)).abs();
                }
            }
            d
        };
        assert!(distance(&nominal, &large) > distance(&nominal, &small));
    }

    #[test]
    fn perturbed_matrix_remains_valid() {
        let cities = us_top_cities(10);
        let m = perturbed_city_city_matrix(&cities, 0.5, 11);
        assert_eq!(m.num_sites(), 10);
        assert!(m.total_weight() > 0.0);
        for i in 0..10 {
            assert_eq!(m.weight(i, i), 0.0);
        }
    }

    #[test]
    #[should_panic]
    fn gamma_above_one_rejected() {
        perturbed_populations(&us_top_cities(3), 1.5, 1);
    }
}
