//! Parity properties for candidate-pool generation.
//!
//! `LinkBuilder::pruned_candidate_links_with` runs one capped multi-target
//! search per site on the CSR search core and keeps only the links that beat
//! fiber. These properties pin it, on random site/tower layouts, to code it
//! shares nothing with — the tower + site graph built here as an adjacency
//! list ([`reference_graph`], the way the builder once held it):
//!
//! * the builder's CSR, built straight from the hop list, is slot for slot
//!   the CSR of that adjacency list;
//! * the pool is exactly (`Vec` equality, bit-equal lengths, same order) the
//!   pointwise queries — adjacency-list Dijkstra between each site pair, no
//!   search core, no cap — filtered by `< fiber_km`, across fiber regimes
//!   from "fiber always wins" to "microwave always wins", and its counters
//!   partition the pairs;
//! * sharding the per-site searches over workers never changes the pool;
//! * the CSR search core the generation runs on ([`SearchCore`]) produces
//!   bit-identical distances, predecessors and tie-broken paths to the
//!   lazy-deletion reference Dijkstra on the same site+tower graphs;
//! * the disjoint paths of Fig. 4(b), run on the CSR with used towers priced
//!   out, equal the clone-and-remove iteration over the adjacency list.

// The proptest shim's macro expansion is deeply recursive.
#![recursion_limit = "256"]

use cisp::core::design::{DesignInput, Designer};
use cisp::core::hops::{FeasibleHop, HopConfig, HopFeasibility};
use cisp::core::links::{CandidateLink, LinkBuilder, LinkBuilderConfig};
use cisp::data::towers::{Tower, TowerRegistry, TowerSource};
use cisp::geo::{geodesic, GeoPoint};
use cisp::graph::disjoint::iterative_disjoint_paths;
use cisp::graph::{dijkstra, CsrGraph, DistMatrix, Graph, Path, SearchCore};
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

/// The feasible hops of a layout, on flat terrain.
fn flat_hops(towers: &TowerRegistry) -> Vec<FeasibleHop> {
    let terrain = TerrainModel::flat();
    let clutter = ClutterModel::none();
    HopFeasibility::new(towers, &terrain, &clutter, HopConfig::default()).all_feasible_hops()
}

/// The tower + site graph as an adjacency list, built the way
/// `LinkBuilder::new` lays it out: towers `0..T`, sites `T..T+S`; every hop
/// in hop order, then every site's attachment to each tower within the
/// default attach radius, in site order.
fn reference_graph(sites: &[GeoPoint], towers: &TowerRegistry, hops: &[FeasibleHop]) -> Graph {
    let t = towers.len();
    let mut graph = Graph::new(t + sites.len());
    for hop in hops {
        graph.add_undirected_edge(hop.tower_a, hop.tower_b, hop.length_km);
    }
    let radius = LinkBuilderConfig::default().site_attach_radius_km;
    for (s, &site) in sites.iter().enumerate() {
        for tower_idx in towers.towers_within(site, radius) {
            let d = geodesic::distance_km(site, towers.towers()[tower_idx].location);
            graph.add_undirected_edge(t + s, tower_idx, d);
        }
    }
    graph
}

/// The pointwise oracle: the reference Dijkstra between sites `a < b` of
/// the reference graph, as the candidate link the pool should hold.
fn candidate_link(graph: &Graph, towers: usize, a: usize, b: usize) -> Option<CandidateLink> {
    let path = dijkstra::shortest_path(graph, towers + a, towers + b)?;
    let tower_path: Vec<usize> = path
        .interior_nodes()
        .iter()
        .copied()
        .filter(|&v| v < towers)
        .collect();
    Some(CandidateLink {
        site_a: a,
        site_b: b,
        mw_length_km: path.cost,
        tower_count: tower_path.len(),
        tower_path,
    })
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
    let hops = flat_hops(towers);
    let builder = LinkBuilder::new(sites, towers, &hops, LinkBuilderConfig::default());
    let graph = reference_graph(sites, towers, &hops);
    let n = sites.len();
    let oracle: Vec<CandidateLink> = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
        .filter_map(|(a, b)| candidate_link(&graph, towers.len(), a, b))
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

/// The clone-and-remove iteration `iterative_disjoint_paths` replaced: find
/// the shortest path, copy the graph without its interior nodes, repeat,
/// stopping after a direct edge.
fn disjoint_paths_by_removal(graph: &Graph, source: usize, target: usize, max: usize) -> Vec<Path> {
    let mut working = graph.clone();
    let mut paths: Vec<Path> = Vec::new();
    while paths.len() < max {
        let Some(p) = dijkstra::shortest_path(&working, source, target) else {
            break;
        };
        working = working.without_nodes(p.interior_nodes());
        let direct = p.hop_count() == 1;
        paths.push(p);
        if direct {
            break;
        }
    }
    paths
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
        let hops = flat_hops(&towers);
        let builder = LinkBuilder::new(&sites, &towers, &hops, LinkBuilderConfig::default());
        let graph = &reference_graph(&sites, &towers, &hops);
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

    // The builder's CSR comes straight from the hop list in two passes; it
    // must be the CSR of the adjacency list built the old way, slot for
    // slot: the same degrees (hence offsets), and per slot the same target,
    // weight bits and edge id.
    #[test]
    fn builder_csr_equals_the_adjacency_list_built_the_old_way(
        n in 3usize..8,
        seed in 0u64..10_000,
    ) {
        let (sites, towers) = random_layout(n, seed);
        let hops = flat_hops(&towers);
        let builder = LinkBuilder::new(&sites, &towers, &hops, LinkBuilderConfig::default());
        let graph = reference_graph(&sites, &towers, &hops);
        let (built, reference) = (builder.csr_graph(), CsrGraph::from_graph(&graph));
        prop_assert_eq!(built.node_count(), reference.node_count());
        prop_assert_eq!(built.edge_count(), reference.edge_count());
        let slots = |csr: &CsrGraph, u: usize| -> Vec<(usize, u64, u32)> {
            csr.neighbors(u).map(|(v, w, id)| (v, w.to_bits(), id)).collect()
        };
        for u in 0..reference.node_count() {
            prop_assert_eq!(built.degree(u), reference.degree(u));
            prop_assert!(slots(built, u) == slots(&reference, u), "slots of node {}", u);
        }
        for s in 0..n {
            prop_assert_eq!(builder.attached_towers(s), graph.neighbors(builder.site_node(s)).len());
        }
    }

    // Fig. 4(b)'s disjoint paths on the CSR, used towers priced `+∞`, give
    // the clone-and-remove iteration's node paths and cost bits, between
    // every site pair.
    #[test]
    fn csr_disjoint_paths_match_the_clone_and_remove_reference(
        n in 3usize..8,
        seed in 0u64..10_000,
        max_paths in 1usize..8,
    ) {
        let (sites, towers) = random_layout(n, seed);
        let hops = flat_hops(&towers);
        let builder = LinkBuilder::new(&sites, &towers, &hops, LinkBuilderConfig::default());
        let graph = reference_graph(&sites, &towers, &hops);
        for a in 0..n {
            for b in 0..n {
                let (source, target) = (builder.site_node(a), builder.site_node(b));
                let got = iterative_disjoint_paths(builder.csr_graph(), source, target, max_paths);
                let want = disjoint_paths_by_removal(&graph, source, target, max_paths);
                let bits = |paths: &[Path]| -> Vec<(Vec<usize>, u64)> {
                    paths.iter().map(|p| (p.nodes.clone(), p.cost.to_bits())).collect()
                };
                prop_assert!(bits(&got.paths) == bits(&want), "paths of sites {} -> {}", a, b);
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
