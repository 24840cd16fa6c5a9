//! The paper's traffic models over a shared site list.
//!
//! §6.3 compares three deployment scenarios:
//!
//! * **City–City**: traffic between population centers proportional to the
//!   product of their populations (the paper's default, §4).
//! * **DC–DC**: equal traffic between every pair of data centers (the paper
//!   provisions equal capacity between each DC pair).
//! * **City–DC**: each city sends traffic, proportional to its population, to
//!   its *closest* data center.
//!
//! To let a single network carry a mixture of all three (§6.4's 4:3:3 mixes),
//! the models are all expressed over a combined [`SiteSet`] whose sites are
//! the population centers followed by the data centers.

use cisp_data::{cities::City, datacenters::DataCenter};
use cisp_geo::geodesic;

use crate::matrix::TrafficMatrix;

/// A combined site list: population centers followed by data centers.
#[derive(Debug, Clone)]
pub struct SiteSet {
    /// Population centers (cities).
    pub cities: Vec<City>,
    /// Data centers.
    pub datacenters: Vec<DataCenter>,
}

impl SiteSet {
    /// Build a site set.
    pub fn new(cities: Vec<City>, datacenters: Vec<DataCenter>) -> Self {
        assert!(!cities.is_empty(), "need at least one city");
        Self {
            cities,
            datacenters,
        }
    }

    /// Total number of sites (cities + data centers).
    pub fn len(&self) -> usize {
        self.cities.len() + self.datacenters.len()
    }

    /// Whether the set is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Site locations in index order (cities first, then data centers).
    pub fn locations(&self) -> Vec<cisp_geo::GeoPoint> {
        self.cities
            .iter()
            .map(|c| c.location)
            .chain(self.datacenters.iter().map(|d| d.location))
            .collect()
    }

    /// Global index of data center `i`.
    pub(crate) fn dc_index(&self, i: usize) -> usize {
        assert!(i < self.datacenters.len());
        self.cities.len() + i
    }

    /// Index of the data center closest to the given city.
    pub(crate) fn closest_dc(&self, city: usize) -> Option<usize> {
        let loc = self.cities[city].location;
        self.datacenters
            .iter()
            .enumerate()
            .map(|(i, dc)| (geodesic::distance_km(loc, dc.location), i))
            .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)))
            .map(|(_, i)| self.dc_index(i))
    }
}

/// City–City population-product traffic over a site set (data-center rows are
/// zero).
pub(crate) fn city_city_matrix(sites: &SiteSet) -> TrafficMatrix {
    let n = sites.len();
    let mut weights = vec![vec![0.0; n]; n];
    for (i, a) in sites.cities.iter().enumerate() {
        for (j, b) in sites.cities.iter().enumerate() {
            if i != j {
                weights[i][j] = a.population as f64 * b.population as f64;
            }
        }
    }
    TrafficMatrix::from_matrix(weights).normalized()
}

/// DC–DC traffic: equal weight between every pair of data centers.
pub(crate) fn dc_dc_matrix(sites: &SiteSet) -> TrafficMatrix {
    let n = sites.len();
    let mut weights = vec![vec![0.0; n]; n];
    for i in 0..sites.datacenters.len() {
        for j in 0..sites.datacenters.len() {
            if i != j {
                weights[sites.dc_index(i)][sites.dc_index(j)] = 1.0;
            }
        }
    }
    TrafficMatrix::from_matrix(weights)
}

/// City–DC traffic: each city exchanges traffic, proportional to its
/// population, with its closest data center.
pub(crate) fn city_dc_matrix(sites: &SiteSet) -> TrafficMatrix {
    let n = sites.len();
    let mut weights = vec![vec![0.0; n]; n];
    if sites.datacenters.is_empty() {
        return TrafficMatrix::from_matrix(weights);
    }
    for (i, city) in sites.cities.iter().enumerate() {
        let dc = sites.closest_dc(i).expect("datacenters non-empty");
        let w = city.population as f64;
        weights[i][dc] += w;
        weights[dc][i] += w;
    }
    TrafficMatrix::from_matrix(weights).normalized()
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
            (
                "4:3:3".to_string(),
                Self {
                    city_city: 4.0,
                    city_dc: 3.0,
                    dc_dc: 3.0,
                },
            ),
            (
                "5:3:3".to_string(),
                Self {
                    city_city: 5.0,
                    city_dc: 3.0,
                    dc_dc: 3.0,
                },
            ),
            (
                "4:3:4".to_string(),
                Self {
                    city_city: 4.0,
                    city_dc: 3.0,
                    dc_dc: 4.0,
                },
            ),
            (
                "4:4:3".to_string(),
                Self {
                    city_city: 4.0,
                    city_dc: 4.0,
                    dc_dc: 3.0,
                },
            ),
        ]
    }

    /// Materialise the mix into a traffic matrix over a site set.
    pub fn matrix(&self, sites: &SiteSet) -> TrafficMatrix {
        TrafficMatrix::mix(&[
            (self.city_city, &city_city_matrix(sites)),
            (self.city_dc, &city_dc_matrix(sites)),
            (self.dc_dc, &dc_dc_matrix(sites)),
        ])
    }

    /// Materialise the mix split by latency class: the user-facing
    /// components (city–city gaming/small-web and city–DC) are foreground,
    /// the DC–DC bulk-replication component is background — the split the
    /// hybrid fluid/packet engine consumes. The two matrices decompose the
    /// full [`TrafficMix::matrix`]: summed weight-for-weight they reproduce
    /// it, and each keeps its share of the mix's unit total, so existing
    /// callers that ignore classes see bit-identical traffic.
    pub fn classified(&self, sites: &SiteSet) -> ClassifiedTraffic {
        let total_share = self.city_city + self.city_dc + self.dc_dc;
        assert!(total_share > 0.0);
        // `TrafficMatrix::mix` normalises to a unit total per call; rescale
        // each subset by its share of the full mix so foreground +
        // background equals `matrix()` exactly in aggregate.
        let scale = |m: TrafficMatrix, share: f64| {
            if m.total_weight() > 0.0 {
                TrafficMatrix::from_dist_matrix(m.scaled_to_gbps(share / total_share))
            } else {
                m
            }
        };
        let foreground = scale(
            TrafficMatrix::mix(&[
                (self.city_city, &city_city_matrix(sites)),
                (self.city_dc, &city_dc_matrix(sites)),
            ]),
            self.city_city + self.city_dc,
        );
        let background = scale(dc_dc_matrix(sites), self.dc_dc);
        ClassifiedTraffic {
            foreground,
            background,
        }
    }
}

/// A traffic mix split by latency class, for hybrid fluid/packet
/// simulation: latency-sensitive user-facing traffic (foreground) and bulk
/// replication traffic (background). Produced by [`TrafficMix::classified`];
/// consumed by `cisp_core::evaluate::lower_classified`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifiedTraffic {
    /// Latency-sensitive traffic, simulated packet-level.
    pub foreground: TrafficMatrix,
    /// Bulk traffic, eligible for fluid modelling.
    pub background: TrafficMatrix,
}

impl ClassifiedTraffic {
    /// The combined matrix both classes sum to — equal (weight for weight,
    /// up to float rounding) to the [`TrafficMix::matrix`] this split came
    /// from.
    pub fn combined(&self) -> TrafficMatrix {
        let n = self.foreground.num_sites();
        assert_eq!(self.background.num_sites(), n);
        let m = cisp_graph::DistMatrix::from_fn(n, |i, j| {
            self.foreground.weight(i, j) + self.background.weight(i, j)
        });
        TrafficMatrix::from_dist_matrix(m)
    }

    /// Background fraction of the combined offered weight — what sizes the
    /// background aggregate when lowering a classified mix (e.g.
    /// `bg_aggregate_gbps = share × total_gbps`) so the class split of the
    /// simulated load matches the mix's split. `0.0` when the mix carries no
    /// weight at all.
    pub fn background_share(&self) -> f64 {
        let fg = self.foreground.total_weight();
        let bg = self.background.total_weight();
        if fg + bg > 0.0 {
            bg / (fg + bg)
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisp_data::{cities::us_top_cities, datacenters::google_us_datacenters};

    fn site_set() -> SiteSet {
        SiteSet::new(us_top_cities(12), google_us_datacenters())
    }

    #[test]
    fn site_set_indexing() {
        let s = site_set();
        assert_eq!(s.len(), 18);
        assert_eq!(s.dc_index(0), 12);
        assert_eq!(s.locations().len(), 18);
    }

    #[test]
    fn city_city_weights_follow_population_products() {
        let s = site_set();
        let m = city_city_matrix(&s);
        // NYC (0) – LA (1) is the largest product → weight 1 after
        // normalisation; any DC row is zero.
        assert!((m.weight(0, 1) - 1.0).abs() < 1e-12);
        assert_eq!(m.weight(s.dc_index(0), s.dc_index(1)), 0.0);
        assert_eq!(m.weight(0, s.dc_index(0)), 0.0);
    }

    #[test]
    fn dc_dc_weights_are_uniform_between_dcs_only() {
        let s = site_set();
        let m = dc_dc_matrix(&s);
        assert_eq!(m.weight(s.dc_index(0), s.dc_index(5)), 1.0);
        assert_eq!(m.weight(0, 1), 0.0);
        assert_eq!(m.weight(0, s.dc_index(0)), 0.0);
        // 6 DCs → 15 pairs.
        assert_eq!(m.total_weight(), 15.0);
    }

    #[test]
    fn city_dc_routes_to_closest_dc() {
        let s = site_set();
        let m = city_dc_matrix(&s);
        // Every city has exactly one positive DC entry (its closest DC),
        // and no city-city entries.
        for i in 0..s.cities.len() {
            let positive_dcs: Vec<usize> = (0..s.datacenters.len())
                .filter(|&d| m.weight(i, s.dc_index(d)) > 0.0)
                .collect();
            assert_eq!(positive_dcs.len(), 1, "city {i} should map to one DC");
            for j in 0..s.cities.len() {
                assert_eq!(m.weight(i, j), 0.0);
            }
        }
        // Seattle-ish (if present) maps to The Dalles, OR (index 5 in the DC
        // list). Check with Chicago → Council Bluffs, IA (index 1).
        let chicago = s.cities.iter().position(|c| c.name == "Chicago").unwrap();
        assert_eq!(s.closest_dc(chicago), Some(s.dc_index(1)));
    }

    #[test]
    fn mix_combines_all_three_components() {
        let s = site_set();
        let mix = TrafficMix::designed().matrix(&s);
        // City-city, city-DC and DC-DC pairs all get weight.
        assert!(mix.weight(0, 1) > 0.0);
        assert!(mix.weight(s.dc_index(0), s.dc_index(1)) > 0.0);
        let chicago = s.cities.iter().position(|c| c.name == "Chicago").unwrap();
        assert!(mix.weight(chicago, s.dc_index(1)) > 0.0);
        // Shares: city-city accounts for 40 % of the total.
        let total = mix.total_weight();
        let cc: f64 = (0..s.cities.len())
            .flat_map(|i| ((i + 1)..s.cities.len()).map(move |j| (i, j)))
            .map(|(i, j)| mix.weight(i, j))
            .sum();
        assert!(
            (cc / total - 0.4).abs() < 1e-9,
            "city-city share {}",
            cc / total
        );
    }

    #[test]
    fn paper_variants_cover_the_four_mixes() {
        let variants = TrafficMix::paper_variants();
        assert_eq!(variants.len(), 4);
        assert_eq!(variants[0].1, TrafficMix::designed());
    }

    #[test]
    fn city_dc_with_no_datacenters_is_empty() {
        let s = SiteSet::new(us_top_cities(5), Vec::new());
        let m = city_dc_matrix(&s);
        assert_eq!(m.total_weight(), 0.0);
        assert_eq!(s.closest_dc(0), None);
    }

    #[test]
    fn classified_decomposes_the_full_mix() {
        let s = site_set();
        let mix = TrafficMix::designed();
        let full = mix.matrix(&s);
        let split = mix.classified(&s);
        // Foreground + background reproduce the combined matrix weight for
        // weight, so classifying never changes the aggregate traffic.
        let combined = split.combined();
        for i in 0..s.len() {
            for j in 0..s.len() {
                assert!(
                    (combined.weight(i, j) - full.weight(i, j)).abs() < 1e-12,
                    "({i},{j}): {} vs {}",
                    combined.weight(i, j),
                    full.weight(i, j)
                );
            }
        }
        // Each class keeps its share of the mix: 4:3 user-facing vs 3 bulk.
        assert!((split.foreground.total_weight() - 0.7).abs() < 1e-9);
        assert!((split.background.total_weight() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn classified_background_is_exactly_the_dc_dc_component() {
        let s = site_set();
        let split = TrafficMix::designed().classified(&s);
        // Background has DC–DC weight only; foreground has none.
        assert!(split.background.weight(s.dc_index(0), s.dc_index(1)) > 0.0);
        assert_eq!(split.background.weight(0, 1), 0.0);
        assert_eq!(split.foreground.weight(s.dc_index(0), s.dc_index(1)), 0.0);
        assert!(split.foreground.weight(0, 1) > 0.0);
    }

    #[test]
    fn classified_with_no_datacenters_has_empty_background() {
        let s = SiteSet::new(us_top_cities(5), Vec::new());
        let mix = TrafficMix::designed();
        let split = mix.classified(&s);
        assert_eq!(split.background.total_weight(), 0.0);
        assert!(split.foreground.total_weight() > 0.0);
        assert_eq!(split.background_share(), 0.0);
    }

    #[test]
    fn background_share_matches_the_mix_split() {
        let s = site_set();
        let split = TrafficMix::designed().classified(&s);
        // The designed mix is 70% user-facing, 30% DC–DC bulk.
        assert!((split.background_share() - 0.3).abs() < 1e-9);
    }
}
