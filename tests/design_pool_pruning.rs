//! Parity properties for candidate-pool generation.
//!
//! `LinkBuilder::pruned_candidate_links_with` runs one capped multi-target
//! search per site on the CSR search core and keeps only the links that beat
//! fiber. These properties pin it, on random site/tower layouts, to code it
//! shares nothing with:
//!
//! * the pool is exactly (`Vec` equality, bit-equal lengths, same order) the
//!   pointwise `LinkBuilder::candidate_link(a, b)` queries — adjacency-list
//!   Dijkstra, no search core, no cap — filtered by `< fiber_km`, across
//!   fiber regimes from "fiber always wins" to "microwave always wins", and
//!   its counters partition the pairs;
//! * sharding the per-site searches over workers never changes the pool;
//! * the CSR search core the generation runs on ([`SearchCore`]) produces
//!   bit-identical distances, predecessors and tie-broken paths to the
//!   lazy-deletion reference Dijkstra on the same site+tower graphs.

// The proptest shim's macro expansion is deeply recursive.
#![recursion_limit = "256"]

use cisp::core::design::{DesignInput, Designer};
use cisp::core::hops::{HopConfig, HopFeasibility};
use cisp::core::links::{CandidateLink, LinkBuilder, LinkBuilderConfig};
use cisp::data::towers::{Tower, TowerRegistry, TowerSource};
use cisp::geo::{geodesic, GeoPoint};
use cisp::graph::{dijkstra, DistMatrix, SearchCore};
use cisp::terrain::{clutter::ClutterModel, TerrainModel};
use proptest::prelude::*;

/// SplitMix64, used to derive deterministic pseudo-random fixtures from a
/// proptest-drawn seed.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z ^ (z >> 31);
    z
}

/// Uniform f64 in [0, 1) from a seed/stream pair.
fn unit(seed: u64, stream: u64) -> f64 {
    (mix(seed ^ mix(stream)) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn tower(lat: f64, lon: f64) -> Tower {
    Tower {
        location: GeoPoint::new(lat, lon),
        height_m: 200.0,
        source: TowerSource::RentalCompany,
    }
}

/// A random layout: `n` sites scattered over a ~400×500 km region, with a
/// tower at each site (guaranteeing attachment) plus a scattered backbone of
/// towers dense enough that many — not all — pairs get tower paths.
fn random_layout(n: usize, seed: u64) -> (Vec<GeoPoint>, TowerRegistry) {
    let site = |k: u64| {
        GeoPoint::new(
            38.0 + 4.0 * unit(seed, 2 * k),
            -102.0 + 6.0 * unit(seed, 2 * k + 1),
        )
    };
    let sites: Vec<GeoPoint> = (0..n as u64).map(site).collect();
    let mut towers: Vec<Tower> = sites.iter().map(|p| tower(p.lat_deg, p.lon_deg)).collect();
    for k in 0..60u64 {
        let lat = 38.0 + 4.0 * unit(seed, 1000 + 2 * k);
        let lon = -102.0 + 6.0 * unit(seed, 1000 + 2 * k + 1);
        towers.push(tower(lat, lon));
    }
    (sites, TowerRegistry::from_towers(towers))
}

/// Full pipeline from a layout to the pool and its oracle: feasible hops on
/// flat terrain, then the generated pool against the pointwise queries
/// filtered by the same fiber matrix. Returns `(oracle, pool)` after
/// asserting what must hold in every regime.
fn oracle_and_pool(
    sites: &[GeoPoint],
    towers: &TowerRegistry,
    fiber_km: &DistMatrix,
) -> (Vec<CandidateLink>, Vec<CandidateLink>) {
    let terrain = TerrainModel::flat();
    let clutter = ClutterModel::none();
    let hops =
        HopFeasibility::new(towers, &terrain, &clutter, HopConfig::default()).all_feasible_hops();
    let builder = LinkBuilder::new(sites, towers, &hops, LinkBuilderConfig::default());
    let n = sites.len();
    let oracle: Vec<CandidateLink> = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
        .filter_map(|(a, b)| builder.candidate_link(a, b))
        .filter(|l| l.mw_length_km < fiber_km.get(l.site_a, l.site_b))
        .collect();
    let (pool, stats) = builder.pruned_candidate_links_with(fiber_km, 1);
    // Sharding the per-site searches never changes the pool or the stats.
    for workers in [3, 7] {
        let (sharded, sharded_stats) = builder.pruned_candidate_links_with(fiber_km, workers);
        assert_eq!(sharded, pool);
        assert_eq!(sharded_stats, stats);
    }
    // The stats categories must partition the pair universe.
    assert_eq!(stats.pairs_total as usize, n * (n - 1) / 2);
    assert_eq!(
        stats.unreachable + stats.oracle_dropped + stats.emitted,
        stats.pairs_total
    );
    assert_eq!(stats.emitted, pool.len() as u64);
    (oracle, pool)
}

proptest! {
    // Each case pays for an all-pairs hop-feasibility sweep, so fewer,
    // denser cases than the pure-matrix properties.
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The pool is exactly the oracle-filtered pointwise queries — same
    // links, bit-equal lengths, same order — across fiber regimes. Below
    // factor 1.0 fiber beats every geodesic (empty pool, every pair dropped
    // by the oracle filter or out of the search cap's reach); at 2.4
    // virtually every tower path survives; between, the mix exercises all
    // stat categories.
    #[test]
    fn pruned_pool_equals_filtered_full_pool(
        n in 3usize..8,
        seed in 0u64..10_000,
        fiber_pct in 80u32..240,
    ) {
        let (sites, towers) = random_layout(n, seed);
        let factor = fiber_pct as f64 / 100.0;
        let fiber_km = DistMatrix::from_fn(n, |i, j| {
            geodesic::distance_km(sites[i], sites[j]) * factor
        });
        let (oracle, pool) = oracle_and_pool(&sites, &towers, &fiber_km);
        if fiber_pct < 100 {
            prop_assert!(pool.is_empty(), "fiber under the geodesic always wins");
        }
        prop_assert_eq!(pool, oracle);
    }

    // The pool build's search core is pinned to the lazy-deletion reference
    // Dijkstra on the real site+tower graphs the pipeline produces:
    // bit-identical distances, identical first-writer-wins predecessors and
    // identical tie-broken node paths, from every site, both uncapped and
    // under a fiber-like distance cap.
    #[test]
    fn csr_core_search_matches_reference_dijkstra(
        n in 3usize..8,
        seed in 0u64..10_000,
        cap_pct in 50u32..200,
    ) {
        let (sites, towers) = random_layout(n, seed);
        let terrain = TerrainModel::flat();
        let clutter = ClutterModel::none();
        let hops = HopFeasibility::new(&towers, &terrain, &clutter, HopConfig::default())
            .all_feasible_hops();
        let builder = LinkBuilder::new(&sites, &towers, &hops, LinkBuilderConfig::default());
        let graph = builder.graph();
        let csr = builder.csr_graph();
        let node_count = graph.node_count();
        let mut core = SearchCore::new();
        let mut buf = Vec::new();
        for a in 0..n {
            let source = builder.site_node(a);

            // Uncapped, no targets: full exhaustion vs the reference tree.
            let reference = dijkstra::shortest_path_tree(graph, source, None);
            core.search(csr, source, &[], f64::INFINITY);
            for v in 0..node_count {
                prop_assert!(
                    core.dist(v) == reference.dist[v]
                        || (core.dist(v).is_infinite() && reference.dist[v].is_infinite()),
                    "dist mismatch at node {} from site {}", v, a
                );
                prop_assert_eq!(core.prev(v).map(|(p, _)| p), reference.prev[v]);
            }
            for b in 0..n {
                let t = builder.site_node(b);
                let got = core.node_path_into(t, &mut buf).then(|| buf.clone());
                let want = reference.path_to(t).map(|p| p.nodes);
                prop_assert_eq!(got, want);
            }

            // Capped multi-target run (the pruned generation's shape): every
            // settled distance and every target's tentative distance match
            // the lazy bounded tree.
            let targets: Vec<usize> = (0..n)
                .filter(|&b| b != a)
                .map(|b| builder.site_node(b))
                .collect();
            let cap = geodesic::distance_km(sites[a], sites[(a + 1) % n])
                * (cap_pct as f64 / 100.0);
            let bounded = dijkstra::shortest_path_tree_within(graph, source, cap);
            core.search(csr, source, &targets, cap);
            for &t in &targets {
                prop_assert!(
                    core.dist(t) == bounded.dist[t]
                        || (core.dist(t).is_infinite() && bounded.dist[t].is_infinite()),
                    "capped dist mismatch at target {}", t
                );
            }
        }
    }
}

/// Non-property sanity check on a fixed instance: the pool is non-empty when
/// fiber is loose, and designing from it improves on fiber-only stretch.
#[test]
fn pruned_pool_design_improves_on_fiber_only() {
    let (sites, towers) = random_layout(6, 424242);
    let n = sites.len();
    let fiber_km = DistMatrix::from_fn(n, |i, j| geodesic::distance_km(sites[i], sites[j]) * 1.8);
    let traffic = DistMatrix::from_fn(n, |i, j| if i == j { 0.0 } else { 1.0 });
    let (_, pool) = oracle_and_pool(&sites, &towers, &fiber_km);
    assert!(!pool.is_empty(), "layout should admit useful links");
    let input = DesignInput {
        sites,
        traffic,
        fiber_km,
        candidates: pool,
    };
    let fiber_only = input.empty_topology().mean_stretch();
    let outcome = Designer::new(&input).greedy(60.0);
    assert!(outcome.mean_stretch < fiber_only);
}
