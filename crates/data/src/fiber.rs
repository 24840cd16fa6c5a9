//! Synthetic long-haul fiber conduit network.
//!
//! The paper computes fiber latencies as shortest paths over the InterTubes
//! dataset of US long-haul conduits, finding that even latency-optimal fiber
//! paths average 1.93× the c-latency (§1), i.e. about 1.29× geodesic route
//! length on top of the 1.5× propagation-speed penalty. InterTubes cannot be
//! redistributed here, so this module synthesises a conduit graph with the
//! same two properties the design pipeline depends on:
//!
//! * conduits follow a road-like neighbour graph between population centers
//!   (each city is connected to a handful of its nearest neighbours), and
//! * individual conduit segments are 1.15–1.45× longer than the geodesic
//!   between their endpoints, so that end-to-end shortest fiber routes come
//!   out ≈1.2–1.4× circuitous, matching the measured InterTubes behaviour.
//!
//! For Europe the paper lacks conduit data and simply assumes the same
//! inflation as in the US (§6.2); [`FiberNetwork::synthesize`] works for any
//! city set, so we model Europe the same way.

use cisp_geo::{geodesic, units::FIBER_LATENCY_FACTOR, GeoPoint};
use cisp_graph::{pair_count, CsrGraph, DistMatrix, PathStore, SearchCore};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::cities::City;
use crate::rng::seeded_rng;

/// A fiber conduit segment between two cities.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FiberLink {
    /// Index of one endpoint city.
    pub a: usize,
    /// Index of the other endpoint city.
    pub b: usize,
    /// Physical route length of the conduit, in kilometres (≥ geodesic).
    pub route_km: f64,
}

/// Configuration of the synthetic conduit generator.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FiberConfig {
    /// Number of nearest neighbours each city is connected to.
    pub neighbors_per_city: usize,
    /// Minimum per-segment circuitousness factor (route / geodesic).
    pub min_circuitousness: f64,
    /// Maximum per-segment circuitousness factor.
    pub max_circuitousness: f64,
}

impl Default for FiberConfig {
    fn default() -> Self {
        Self {
            neighbors_per_city: 4,
            min_circuitousness: 1.15,
            max_circuitousness: 1.45,
        }
    }
}

/// All-pairs shortest conduit routes: the route-length matrix plus the
/// conduit-hop path realising each pair's shortest route.
///
/// Paths are indexed by [`pair_index`] over unordered site pairs `(i, j)`,
/// `i < j`, and stored in the `i → j` direction as *directed conduit edge
/// ids*: edge `2·s` traverses segment `s` from `a` to `b`, edge `2·s + 1`
/// traverses it from `b` to `a` (the id convention of
/// [`FiberNetwork::route_csr`]). Unconnected pairs store an empty path.
///
/// [`pair_index`]: cisp_graph::pair_index
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConduitRoutes {
    /// Shortest conduit route length per pair (km, `INFINITY` where
    /// unconnected, zero diagonal).
    pub route_km: DistMatrix,
    /// Directed conduit-edge path per unordered pair, [`pair_index`] order.
    ///
    /// [`pair_index`]: cisp_graph::pair_index
    pub paths: PathStore,
}

/// The synthetic fiber conduit network over a set of sites.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FiberNetwork {
    sites: Vec<GeoPoint>,
    links: Vec<FiberLink>,
}

impl FiberNetwork {
    /// Synthesise a conduit network over the given cities.
    pub fn synthesize(seed: u64, cities: &[City], config: &FiberConfig) -> Self {
        assert!(cities.len() >= 2, "need at least two cities");
        assert!(config.neighbors_per_city >= 1);
        assert!(config.min_circuitousness >= 1.0);
        assert!(config.max_circuitousness >= config.min_circuitousness);

        let sites: Vec<GeoPoint> = cities.iter().map(|c| c.location).collect();
        let mut rng = seeded_rng(seed, "fiber");
        let n = sites.len();
        let mut links: Vec<FiberLink> = Vec::new();
        let mut have: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();

        let add_link = |a: usize,
                        b: usize,
                        links: &mut Vec<FiberLink>,
                        have: &mut std::collections::HashSet<(usize, usize)>,
                        rng: &mut rand::rngs::StdRng| {
            let key = (a.min(b), a.max(b));
            if a != b && have.insert(key) {
                let geo = geodesic::distance_km(sites[a], sites[b]);
                let factor = config.min_circuitousness
                    + rng.gen::<f64>() * (config.max_circuitousness - config.min_circuitousness);
                links.push(FiberLink {
                    a: key.0,
                    b: key.1,
                    route_km: geo * factor,
                });
            }
        };

        // k-nearest-neighbour edges.
        for i in 0..n {
            let mut by_distance: Vec<(f64, usize)> = (0..n)
                .filter(|&j| j != i)
                .map(|j| (geodesic::distance_km(sites[i], sites[j]), j))
                .collect();
            by_distance.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
            for &(_, j) in by_distance.iter().take(config.neighbors_per_city) {
                add_link(i, j, &mut links, &mut have, &mut rng);
            }
        }

        // Connectivity fallback: chain the cities in longitude order, which
        // guarantees a connected conduit graph even for sparse configurations.
        let mut by_lon: Vec<usize> = (0..n).collect();
        by_lon.sort_by(|&a, &b| {
            sites[a]
                .lon_deg
                .partial_cmp(&sites[b].lon_deg)
                .unwrap()
                .then(a.cmp(&b))
        });
        for w in by_lon.windows(2) {
            add_link(w[0], w[1], &mut links, &mut have, &mut rng);
        }

        Self { sites, links }
    }

    /// Build a network from explicit parts (used in tests).
    pub fn from_parts(sites: Vec<GeoPoint>, links: Vec<FiberLink>) -> Self {
        for l in &links {
            assert!(l.a < sites.len() && l.b < sites.len());
        }
        Self { sites, links }
    }

    /// Site locations, in the order used by link indices.
    pub fn sites(&self) -> &[GeoPoint] {
        &self.sites
    }

    /// Conduit segments.
    pub fn links(&self) -> &[FiberLink] {
        &self.links
    }

    /// The conduit graph packed into flat CSR form, with the directed-edge
    /// id convention the stored conduit paths use: segment `s` contributes
    /// edge `2·s` (`a → b`) and edge `2·s + 1` (`b → a`), both weighted by
    /// the segment's physical route length.
    pub fn route_csr(&self) -> CsrGraph {
        CsrGraph::from_edges(
            self.sites.len(),
            self.links
                .iter()
                .flat_map(|l| [(l.a, l.b, l.route_km), (l.b, l.a, l.route_km)]),
        )
    }

    /// Shortest fiber *route length* (km, physical conduit distance) between
    /// two sites, if connected.
    pub fn shortest_route_km(&self, from: usize, to: usize) -> Option<f64> {
        let mut core = SearchCore::new();
        core.search(&self.route_csr(), from, &[to], f64::INFINITY);
        core.settled(to).then(|| core.dist(to))
    }

    /// One full search per source site over [`Self::route_csr`], `visit`ed
    /// when it finishes; returns the distances as a matrix, row per source.
    fn search_from_every_site(&self, mut visit: impl FnMut(usize, &SearchCore)) -> DistMatrix {
        let csr = self.route_csr();
        let n = self.sites.len();
        let mut core = SearchCore::new();
        let mut data = Vec::with_capacity(n * n);
        for i in 0..n {
            core.search(&csr, i, &[], f64::INFINITY);
            data.extend((0..n).map(|j| core.dist(j)));
            visit(i, &core);
        }
        DistMatrix::from_flat(n, data)
    }

    /// All-pairs shortest fiber route lengths, as a flat matrix in
    /// kilometres (`f64::INFINITY` where unconnected), bit-identical to the
    /// adjacency-list reference (pinned by the search parity suites).
    pub fn route_distance_matrix(&self) -> DistMatrix {
        self.search_from_every_site(|_, _| {})
    }

    /// All-pairs shortest conduit routes: the route-length matrix together
    /// with the conduit-hop path realising each pair, from the same searches
    /// (so `routes.route_km` is bit-identical to
    /// [`Self::route_distance_matrix`]). This is what the conduit-backed
    /// topology constructor consumes.
    pub fn shortest_routes(&self) -> ConduitRoutes {
        let n = self.sites.len();
        let mut paths = PathStore::with_capacity(pair_count(n), 4 * n);
        let mut scratch = Vec::new();
        let route_km = self.search_from_every_site(|i, core| {
            for j in (i + 1)..n {
                core.edge_path_into(j, &mut scratch);
                paths.push_path(&scratch);
            }
        });
        ConduitRoutes { route_km, paths }
    }

    /// All-pairs *latency-equivalent* fiber distances: physical route length
    /// times the 1.5× fiber propagation factor. This is the `o_ij` input of
    /// the paper's design formulation (§3.2).
    pub fn latency_equivalent_matrix(&self) -> DistMatrix {
        let mut matrix = self.route_distance_matrix();
        matrix.map_in_place(|d| d * FIBER_LATENCY_FACTOR);
        matrix
    }

    /// Mean stretch of shortest fiber paths relative to c-latency across all
    /// connected pairs (the paper's InterTubes number is 1.93×).
    pub fn mean_latency_stretch(&self) -> f64 {
        let matrix = self.route_distance_matrix();
        let mut total = 0.0;
        let mut count = 0usize;
        for i in 0..self.sites.len() {
            for j in (i + 1)..self.sites.len() {
                let geo = geodesic::distance_km(self.sites[i], self.sites[j]);
                if geo < 1.0 || !matrix[i][j].is_finite() {
                    continue;
                }
                total += matrix[i][j] * FIBER_LATENCY_FACTOR / geo;
                count += 1;
            }
        }
        if count == 0 {
            f64::NAN
        } else {
            total / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cities::us_population_centers;
    use cisp_graph::pair_index;

    fn us_network() -> FiberNetwork {
        FiberNetwork::synthesize(11, &us_population_centers(), &FiberConfig::default())
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = us_network();
        let b = us_network();
        assert_eq!(a.links().len(), b.links().len());
        assert_eq!(a.links()[0], b.links()[0]);
    }

    #[test]
    fn network_is_connected() {
        let net = us_network();
        let matrix = net.route_distance_matrix();
        for &d in matrix.as_slice() {
            assert!(d.is_finite(), "fiber network must be connected");
        }
    }

    #[test]
    fn segment_lengths_exceed_geodesics() {
        let net = us_network();
        for l in net.links() {
            let geo = geodesic::distance_km(net.sites()[l.a], net.sites()[l.b]);
            assert!(l.route_km >= geo * 1.1, "conduit suspiciously straight");
            assert!(l.route_km <= geo * 1.5 + 1e-9, "conduit too circuitous");
        }
    }

    #[test]
    fn mean_latency_stretch_matches_intertubes_ballpark() {
        let net = us_network();
        let stretch = net.mean_latency_stretch();
        // Paper: 1.93×. The synthetic network should land in the same band.
        assert!(
            stretch > 1.7 && stretch < 2.3,
            "mean fiber stretch = {stretch}"
        );
    }

    #[test]
    fn latency_matrix_is_1_5x_route_matrix() {
        let net = us_network();
        let routes = net.route_distance_matrix();
        let latencies = net.latency_equivalent_matrix();
        assert!((latencies[0][1] - routes[0][1] * 1.5).abs() < 1e-9);
    }

    #[test]
    fn shortest_route_is_symmetric() {
        let net = us_network();
        let a = net.shortest_route_km(0, 10).unwrap();
        let b = net.shortest_route_km(10, 0).unwrap();
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn triangle_inequality_on_shortest_routes() {
        let net = us_network();
        let m = net.route_distance_matrix();
        // Spot-check a handful of triples.
        for &(i, j, k) in &[(0, 5, 10), (3, 20, 40), (1, 2, 3), (7, 30, 60)] {
            assert!(m[i][k] <= m[i][j] + m[j][k] + 1e-6);
        }
    }

    #[test]
    fn from_parts_validates_indices() {
        let sites = vec![GeoPoint::new(0.0, 0.0), GeoPoint::new(1.0, 1.0)];
        let net = FiberNetwork::from_parts(
            sites,
            vec![FiberLink {
                a: 0,
                b: 1,
                route_km: 200.0,
            }],
        );
        assert_eq!(net.shortest_route_km(0, 1), Some(200.0));
    }

    #[test]
    #[should_panic]
    fn from_parts_rejects_bad_indices() {
        FiberNetwork::from_parts(
            vec![GeoPoint::new(0.0, 0.0)],
            vec![FiberLink {
                a: 0,
                b: 3,
                route_km: 1.0,
            }],
        );
    }

    #[test]
    fn europe_network_also_connected() {
        let cities = crate::cities::europe_population_centers();
        let net = FiberNetwork::synthesize(5, &cities, &FiberConfig::default());
        let m = net.route_distance_matrix();
        assert!(m.as_slice().iter().all(|d| d.is_finite()));
    }

    /// Walk a stored conduit path from `i`, checking hop contiguity, and
    /// return `(end_node, summed_route_km)`. The sum is accumulated in hop
    /// order, which is exactly how the search accumulated the
    /// pair's distance.
    fn walk_path(net: &FiberNetwork, i: usize, path: &[u32]) -> (usize, f64) {
        let mut cur = i;
        let mut total = 0.0;
        for &e in path {
            let seg = net.links()[(e / 2) as usize];
            let (from, to) = if e % 2 == 0 {
                (seg.a, seg.b)
            } else {
                (seg.b, seg.a)
            };
            assert_eq!(from, cur, "conduit path not contiguous");
            total += seg.route_km;
            cur = to;
        }
        (cur, total)
    }

    #[test]
    fn shortest_routes_paths_realise_the_distance_matrix() {
        let net = us_network();
        let routes = net.shortest_routes();
        let n = net.sites().len();
        assert_eq!(&routes.route_km, &net.route_distance_matrix());
        assert_eq!(routes.paths.len(), pair_count(n));
        for i in 0..n {
            for j in (i + 1)..n {
                let path = routes.paths.path(pair_index(n, i, j));
                assert!(!path.is_empty(), "connected pair must have a path");
                let (end, total) = walk_path(&net, i, path);
                assert_eq!(end, j, "path must end at the pair's far site");
                // Same summation order as the search: exact equality.
                assert_eq!(total, routes.route_km[i][j], "pair ({i}, {j})");
            }
        }
    }

    #[test]
    fn shortest_routes_of_disconnected_pairs_are_empty() {
        let sites = vec![
            GeoPoint::new(30.0, -100.0),
            GeoPoint::new(31.0, -100.0),
            GeoPoint::new(45.0, -80.0),
        ];
        let net = FiberNetwork::from_parts(
            sites,
            vec![FiberLink {
                a: 0,
                b: 1,
                route_km: 150.0,
            }],
        );
        let routes = net.shortest_routes();
        assert_eq!(routes.paths.path(pair_index(3, 0, 1)), &[0u32]);
        assert!(routes.paths.path(pair_index(3, 0, 2)).is_empty());
        assert!(routes.route_km[0][2].is_infinite());
    }

    /// A random city set in the contiguous-US bounding box, spread widely
    /// enough that no pair is degenerate-close.
    fn random_cities(seed: u64, n: usize) -> Vec<City> {
        use rand::Rng;
        let mut rng = seeded_rng(seed, "fiber-proptest-cities");
        (0..n)
            .map(|k| {
                let lat = 27.0 + rng.gen::<f64>() * 20.0;
                let lon = -122.0 + rng.gen::<f64>() * 50.0;
                City::new(&format!("c{k}"), lat, lon, 1_000_000 - k as u64)
            })
            .collect()
    }

    /// Mean end-to-end route circuitousness (shortest conduit route over
    /// geodesic) across connected pairs with a non-degenerate geodesic.
    fn mean_circuitousness(net: &FiberNetwork) -> f64 {
        let m = net.route_distance_matrix();
        let mut sum = 0.0;
        let mut pairs = 0usize;
        for i in 0..net.sites().len() {
            for j in (i + 1)..net.sites().len() {
                let geo = geodesic::distance_km(net.sites()[i], net.sites()[j]);
                if geo >= 1.0 && m[i][j].is_finite() {
                    sum += m[i][j] / geo;
                    pairs += 1;
                }
            }
        }
        sum / pairs as f64
    }

    /// The hard half of the synthesizer's contract, checked on one random
    /// city set: latency-equivalent conduit distances never beat geodesic ×
    /// the fiber propagation factor (the floor the conduit-backed topology
    /// depends on), and the per-set mean circuitousness stays in a sane
    /// envelope. Kept out of the `proptest!` body to stay within the shim
    /// macro's per-token expansion budget.
    fn check_conduit_contract(seed: u64, n: usize) -> Result<(), proptest::prelude::TestCaseError> {
        use proptest::prop_assert;
        let cities = random_cities(seed, n);
        let net = FiberNetwork::synthesize(seed, &cities, &FiberConfig::default());
        let latency = net.latency_equivalent_matrix();
        for i in 0..n {
            for j in (i + 1)..n {
                let geo = geodesic::distance_km(net.sites()[i], net.sites()[j]);
                prop_assert!(
                    latency[i][j] >= geo * FIBER_LATENCY_FACTOR - 1e-9,
                    "pair ({}, {}): latency-equivalent {} beats geodesic floor {}",
                    i,
                    j,
                    latency[i][j],
                    geo * FIBER_LATENCY_FACTOR
                );
            }
        }
        // Individual draws have a sparse-set tail above the documented
        // band (a far-flung city whose few conduits all detour); the band
        // itself is pinned in aggregate below.
        let mean = mean_circuitousness(&net);
        prop_assert!(
            (1.15..=1.8).contains(&mean),
            "per-set mean circuitousness {} outside the sane envelope",
            mean
        );
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        #[test]
        fn conduit_distances_dominate_geodesic_on_random_city_sets(
            seed in 0u64..512,
            n in 6usize..24,
        ) {
            check_conduit_contract(seed, n)?;
        }
    }

    /// The documented ≈1.2–1.4× end-to-end circuitousness band, pinned in
    /// aggregate: the mean over many random city sets must land inside the
    /// band (individual sparse sets may drift above it; the per-set
    /// envelope is asserted by the property test above).
    #[test]
    fn mean_circuitousness_over_random_city_sets_lands_in_documented_band() {
        let mut sum = 0.0;
        let mut sets = 0usize;
        for n in [6usize, 8, 10, 12] {
            for seed in 0..24u64 {
                let cities = random_cities(seed, n);
                let net = FiberNetwork::synthesize(seed, &cities, &FiberConfig::default());
                sum += mean_circuitousness(&net);
                sets += 1;
            }
        }
        let grand_mean = sum / sets as f64;
        assert!(
            (1.2..=1.4).contains(&grand_mean),
            "aggregate end-to-end circuitousness {grand_mean} outside the documented ≈1.2–1.4× band"
        );
    }
}
