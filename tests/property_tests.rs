//! Property-based tests (proptest) on the workspace's core invariants:
//! geodesic geometry, Fresnel clearance, the distance-matrix update used by
//! the designer, the traffic-matrix algebra, the LP/MILP solver, the
//! packet-level link model, the routing tables (against a naive search
//! written here), and the delay histogram behind every reported quantile.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cisp::core::links::CandidateLink;
use cisp::core::topology::{improve_with_link, HybridTopology};
use cisp::geo::{fresnel, geodesic, latency, GeoPoint};
use cisp::graph::PathStore;
use cisp::lp::model::{Problem, VarKind};
use cisp::lp::simplex::solve_lp;
use cisp::netsim::monitor::{DelayHistogram, SampleStats};
use cisp::netsim::network::{LinkSpec, Network, Transmit};
use cisp::netsim::routing::{
    compute_routes, compute_routes_avoiding, reroute_avoiding, Demand, RoutingScheme, RoutingTable,
};
use cisp::traffic::matrix::TrafficMatrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: a latitude/longitude pair well inside the contiguous US, so the
/// geometric properties are tested on the domain the pipeline actually uses.
fn us_point() -> impl Strategy<Value = GeoPoint> {
    (26.0..48.0f64, -123.0..-68.0f64).prop_map(|(lat, lon)| GeoPoint::new(lat, lon))
}

const ROUTING_SCHEMES: [RoutingScheme; 3] = [
    RoutingScheme::ShortestPath,
    RoutingScheme::MinMaxUtilization,
    RoutingScheme::ThroughputOptimal,
];

/// A network, demands and disabled-link masks for the routing properties.
/// Delays come from four values (zero among them) and links are doubled, so
/// equal-cost ties are the rule; sources interleave; the last node has no
/// link, so demand 0 is unroutable whatever the mask.
fn random_routing_case(seed: u64) -> (Network, Vec<Demand>, Vec<Vec<bool>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut below = |bound: usize| (rng.gen::<f64>() * bound as f64) as usize;
    let n = 4 + below(8);
    let mut net = Network::new(n);
    for a in 0..n - 1 {
        for b in 0..n - 1 {
            if a != b && below(10) < 3 {
                let spec = LinkSpec {
                    from: a,
                    to: b,
                    rate_bps: [1e9, 2e9][below(2)],
                    propagation_s: [0.0, 0.001, 0.002, 0.003][below(4)],
                    buffer_bytes: 1e6,
                };
                match below(3) {
                    0 => {
                        net.add_link(spec);
                    }
                    1 => {
                        net.add_bidirectional_link(spec);
                    }
                    _ => {
                        net.add_link(spec);
                        net.add_link(spec);
                    }
                }
            }
        }
    }
    let mut demands = vec![Demand::new(0, n - 1, 1e8), Demand::new(1, 1, 1e8)];
    for _ in 0..1 + below(30) {
        demands.push(Demand::new(
            below(n - 1),
            below(n - 1),
            [1e8, 2e8, 5e8][below(3)],
        ));
    }
    let links = net.num_links();
    let mut masks: Vec<Vec<bool>> = vec![Vec::new(), vec![false; links], vec![true; links]];
    for density in [1, 3, 6] {
        masks.push((0..links).map(|_| below(10) < density).collect());
    }
    // A mask shorter than the link table disables nothing beyond its end.
    masks.push(vec![true; links / 2]);
    (net, demands, masks)
}

/// The routing oracle: a lazy `BinaryHeap` over the link table itself, one
/// full run per demand, sharing no code with `cisp_graph`. What it has in
/// common with `SearchCore` is the contract only — settle the smallest
/// `(distance, node)`, relax with strict `<` in link-id order, skip a link
/// whose cost is not finite. Returns the link ids of the cheapest
/// `src → dst` walk, empty when there is none (or `src == dst`).
fn naive_route(
    net: &Network,
    src: usize,
    dst: usize,
    cost: impl Fn(usize, &LinkSpec) -> f64,
) -> Vec<u32> {
    let mut dist = vec![f64::INFINITY; net.num_nodes()];
    let mut via: Vec<Option<usize>> = vec![None; net.num_nodes()];
    let mut done = vec![false; net.num_nodes()];
    // Non-negative floats order as their bit patterns do.
    let mut heap = BinaryHeap::from([Reverse((0.0f64.to_bits(), src))]);
    dist[src] = 0.0;
    while let Some(Reverse((bits, u))) = heap.pop() {
        if std::mem::replace(&mut done[u], true) {
            continue;
        }
        for (l, spec) in net.links().iter().enumerate() {
            if spec.from != u {
                continue;
            }
            let next = f64::from_bits(bits) + cost(l, spec);
            if next.is_finite() && next < dist[spec.to] {
                dist[spec.to] = next;
                via[spec.to] = Some(l);
                heap.push(Reverse((next.to_bits(), spec.to)));
            }
        }
    }
    let mut route = Vec::new();
    let mut at = dst;
    while at != src {
        let Some(l) = via[at] else {
            return Vec::new();
        };
        route.push(l as u32);
        at = net.link(l).from;
    }
    route.reverse();
    route
}

/// The table `netsim::routing` documents, demand by demand on
/// [`naive_route`]: shortest-path demands do not see each other, the
/// congestion-aware schemes place the heaviest first against the load
/// already placed.
fn naive_table(
    net: &Network,
    demands: &[Demand],
    scheme: RoutingScheme,
    mask: &[bool],
) -> RoutingTable {
    let mut routes = vec![Vec::new(); demands.len()];
    let mut order: Vec<usize> = (0..demands.len()).collect();
    order.sort_by(|&a, &b| demands[b].amount_bps.total_cmp(&demands[a].amount_bps));
    let mut loads = vec![0.0f64; net.num_links()];
    for k in order {
        let d = demands[k];
        routes[k] = naive_route(net, d.src, d.dst, |l, spec| {
            if mask.get(l) == Some(&true) {
                return f64::INFINITY;
            }
            let toward_short = 1e-6 * spec.propagation_s;
            match scheme {
                RoutingScheme::ShortestPath => spec.propagation_s,
                RoutingScheme::MinMaxUtilization => {
                    ((loads[l] + d.amount_bps) / spec.rate_bps).powi(4) + toward_short
                }
                RoutingScheme::ThroughputOptimal => {
                    (2.0 * loads[l] + d.amount_bps) / spec.rate_bps + toward_short
                }
            }
        });
        for &l in &routes[k] {
            loads[l as usize] += d.amount_bps;
        }
    }
    let mut store = PathStore::new();
    for route in &routes {
        store.push_path(route);
    }
    RoutingTable::from_store(store)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn geodesic_symmetry_and_nonnegativity(a in us_point(), b in us_point()) {
        let d_ab = geodesic::distance_km(a, b);
        let d_ba = geodesic::distance_km(b, a);
        prop_assert!(d_ab >= 0.0);
        prop_assert!((d_ab - d_ba).abs() < 1e-9);
    }

    #[test]
    fn geodesic_triangle_inequality(a in us_point(), b in us_point(), c in us_point()) {
        let ab = geodesic::distance_km(a, b);
        let bc = geodesic::distance_km(b, c);
        let ac = geodesic::distance_km(a, c);
        prop_assert!(ac <= ab + bc + 1e-6);
    }

    #[test]
    fn intermediate_points_lie_on_the_segment(a in us_point(), b in us_point(), f in 0.0..1.0f64) {
        let p = geodesic::intermediate(a, b, f);
        let d = geodesic::distance_km(a, p) + geodesic::distance_km(p, b);
        prop_assert!((d - geodesic::distance_km(a, b)).abs() < 1e-6);
    }

    #[test]
    fn destination_distance_roundtrip(a in us_point(), bearing in 0.0..360.0f64, dist in 1.0..500.0f64) {
        let p = geodesic::destination(a, bearing, dist);
        prop_assert!((geodesic::distance_km(a, p) - dist).abs() < 1e-6);
    }

    #[test]
    fn fresnel_radius_peaks_at_midpoint(hop in 5.0..100.0f64, frac in 0.05..0.95f64, freq in 6.0..18.0f64) {
        let d1 = hop * frac;
        let r = fresnel::fresnel_radius_m(d1, hop - d1, freq);
        let mid = fresnel::fresnel_radius_midpoint_m(hop, freq);
        prop_assert!(r >= 0.0);
        prop_assert!(r <= mid + 1e-9);
    }

    #[test]
    fn earth_bulge_monotone_in_hop_length(short in 5.0..50.0f64, extra in 1.0..50.0f64, k in 1.0..1.6f64) {
        let b_short = fresnel::earth_bulge_midpoint_m(short, k);
        let b_long = fresnel::earth_bulge_midpoint_m(short + extra, k);
        prop_assert!(b_long > b_short);
    }

    #[test]
    fn stretch_is_scale_invariant(d in 10.0..5000.0f64, factor in 1.0..4.0f64) {
        let s = latency::stretch(latency::c_latency_ms(d * factor), d);
        prop_assert!((s - factor).abs() < 1e-9);
    }

    #[test]
    fn improve_with_link_never_increases_distances(
        n in 3usize..8,
        i in 0usize..8,
        j in 0usize..8,
        length in 1.0..2000.0f64,
        seed in 0u64..1000,
    ) {
        let n = n.max(3);
        let (i, j) = (i % n, j % n);
        prop_assume!(i != j);
        // Build a random metric-ish matrix from points on a line with noise.
        let positions: Vec<f64> = (0..n).map(|k| {
            let h = (seed.wrapping_mul(k as u64 + 1)).wrapping_mul(0x9E3779B97F4A7C15);
            (h >> 40) as f64 / 1e4 + k as f64 * 200.0
        }).collect();
        let mut matrix = cisp::graph::DistMatrix::from_fn(n, |a, b| {
            (positions[a] - positions[b]).abs() * 1.9
        });
        let before = matrix.clone();
        improve_with_link(&mut matrix, i, j, length);
        for a in 0..n {
            for b in 0..n {
                prop_assert!(matrix[a][b] <= before[a][b] + 1e-9);
            }
        }
        // The directly connected pair is at most the link length.
        prop_assert!(matrix[i][j] <= length + 1e-9);
    }

    #[test]
    fn adding_links_never_hurts_mean_stretch(
        seed in 0u64..500,
        mw_factor in 1.0..1.5f64,
    ) {
        // Four sites roughly on a line across the plains.
        let sites: Vec<GeoPoint> = (0..4)
            .map(|k| GeoPoint::new(38.0 + (seed % 3) as f64, -104.0 + k as f64 * 3.0))
            .collect();
        let traffic: Vec<Vec<f64>> = (0..4)
            .map(|a| (0..4).map(|b| if a == b { 0.0 } else { 1.0 }).collect())
            .collect();
        let fiber: Vec<Vec<f64>> = (0..4)
            .map(|a| (0..4).map(|b| geodesic::distance_km(sites[a], sites[b]) * 2.0).collect())
            .collect();
        let mut topo = HybridTopology::new(sites.clone(), traffic, fiber);
        let mut last = topo.mean_stretch();
        for (a, b) in [(0usize, 1usize), (1, 2), (2, 3), (0, 3)] {
            let geo = geodesic::distance_km(sites[a], sites[b]);
            topo.add_mw_link(CandidateLink {
                site_a: a,
                site_b: b,
                mw_length_km: geo * mw_factor,
                tower_count: 3,
                tower_path: vec![0, 1, 2],
            });
            let now = topo.mean_stretch();
            prop_assert!(now <= last + 1e-9);
            prop_assert!(now >= 1.0 - 1e-9);
            last = now;
        }
    }

    #[test]
    fn traffic_matrix_scaling_preserves_total(
        w01 in 0.0..10.0f64, w02 in 0.0..10.0f64, w12 in 0.0..10.0f64, target in 1.0..500.0f64
    ) {
        prop_assume!(w01 + w02 + w12 > 0.01);
        let m = TrafficMatrix::from_matrix(vec![
            vec![0.0, w01, w02],
            vec![w01, 0.0, w12],
            vec![w02, w12, 0.0],
        ]);
        let scaled = m.scaled_to_gbps(target);
        let total = scaled[0][1] + scaled[0][2] + scaled[1][2];
        prop_assert!((total - target).abs() < 1e-6);
    }

    #[test]
    fn lp_solutions_are_feasible(c0 in -5.0..5.0f64, c1 in -5.0..5.0f64, rhs in 1.0..20.0f64) {
        // minimise c0·x + c1·y subject to x + y ≤ rhs, x ≤ 10, y ≤ 10.
        let mut p = Problem::minimize();
        let x = p.add_bounded_var("x", VarKind::Continuous, c0, 10.0);
        let y = p.add_bounded_var("y", VarKind::Continuous, c1, 10.0);
        p.add_le(vec![(x, 1.0), (y, 1.0)], rhs);
        let sol = solve_lp(&p).unwrap();
        prop_assert!(p.is_feasible(&sol.values, 1e-6));
        // The optimum is never worse than the origin (objective 0).
        prop_assert!(sol.objective <= 1e-9);
    }

    #[test]
    fn link_transmission_conserves_packets(offered in 1usize..200, rate_mbps in 1.0..1000.0f64) {
        let mut net = Network::new(2);
        let link = net.add_link(LinkSpec {
            from: 0,
            to: 1,
            rate_bps: rate_mbps * 1e6,
            propagation_s: 0.001,
            buffer_bytes: 30_000.0,
        });
        let mut delivered = 0u64;
        let mut dropped = 0u64;
        for k in 0..offered {
            match net.transmit(link, k as f64 * 1e-4, 1000.0) {
                Transmit::Delivered { arrival, queue_delay } => {
                    prop_assert!(arrival > k as f64 * 1e-4);
                    prop_assert!(queue_delay >= 0.0);
                    delivered += 1;
                }
                Transmit::Dropped => dropped += 1,
            }
        }
        prop_assert_eq!(delivered + dropped, offered as u64);
        prop_assert_eq!(net.link_state(link).packets_forwarded, delivered);
        prop_assert_eq!(net.link_state(link).packets_dropped, dropped);
    }

    // Re-routing only what a failure touches yields the table a full
    // recomputation does.
    #[test]
    fn reroute_avoiding_matches_full_recomputation(seed in 0u64..u64::MAX) {
        let (net, demands, masks) = random_routing_case(seed);
        for scheme in ROUTING_SCHEMES {
            let base = compute_routes(&net, &demands, scheme);
            prop_assert!(base.route(0).is_empty());
            for mask in &masks {
                let full = compute_routes_avoiding(&net, &demands, scheme, mask);
                let partial = reroute_avoiding(&net, &demands, &base, scheme, mask);
                prop_assert!(partial == full, "{:?} under {:?}", scheme, mask);
                if !mask.contains(&true) {
                    prop_assert_eq!(&partial, &base);
                }
            }
        }
    }

    // Every way to a routing table against the search one would write
    // first: the tables are equal, not merely as short.
    #[test]
    fn routing_tables_equal_the_naive_search(seed in 0u64..u64::MAX) {
        let (net, demands, masks) = random_routing_case(seed);
        for scheme in ROUTING_SCHEMES {
            let base = compute_routes(&net, &demands, scheme);
            prop_assert!(base == naive_table(&net, &demands, scheme, &[]), "{:?}", scheme);
            for mask in &masks {
                let want = naive_table(&net, &demands, scheme, mask);
                let full = compute_routes_avoiding(&net, &demands, scheme, mask);
                prop_assert!(full == want, "{:?} avoiding {:?}", scheme, mask);
                let partial = reroute_avoiding(&net, &demands, &base, scheme, mask);
                prop_assert!(partial == want, "{:?} re-routing {:?}", scheme, mask);
            }
        }
    }

    // The histogram against the exact path: samples log-uniform over 12
    // decades with exact zeros, repeats and the odd value outside the
    // binned range; every quantile within one 2⁻¹⁰ bin of the sorted one
    // (below 2⁻⁴⁰ all that is known is "below 2⁻⁴⁰"), exact at both ends;
    // and the same multiset dealt over several histograms and merged in a
    // random order is the same histogram.
    #[test]
    fn delay_histogram_tracks_sorted_quantiles_and_merges_in_any_order(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1usize..3000);
        let mut samples: Vec<f64> = Vec::with_capacity(n);
        for _ in 0..n {
            let v = match rng.gen_range(0usize..12) {
                0 => 0.0,
                1 if !samples.is_empty() => samples[rng.gen_range(0..samples.len())],
                2 if seed % 3 == 0 => [1e-14, 5e3][rng.gen_range(0usize..2)],
                _ => 10f64.powf(rng.gen_range(-9.0..3.0)),
            };
            samples.push(v);
        }
        let mut whole = DelayHistogram::default();
        let mut exact = SampleStats::default();
        for &v in &samples {
            whole.record(v);
            exact.record(v);
        }
        prop_assert_eq!(whole.count(), n as u64);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            let (got, want) = (whole.quantile(q), exact.quantile(q));
            if q == 0.0 || q == 1.0 {
                prop_assert_eq!(got, want);
            } else if want < 1024.0 {
                let bin = want * 2f64.powi(-10) + 2f64.powi(-40);
                prop_assert!((got - want).abs() <= bin, "q {}: {} vs {}", q, got, want);
            } else {
                // Saturated: somewhere in the top bin, below the maximum.
                prop_assert!((1023.0..=exact.max()).contains(&got), "q {}: {}", q, got);
            }
        }

        let parts = [1usize, 2, 3, 7][rng.gen_range(0usize..4)];
        let mut order: Vec<usize> = (0..n).collect();
        let mut hists = vec![DelayHistogram::default(); parts];
        for dealt in 0..n {
            order.swap(dealt, rng.gen_range(dealt..n));
            hists[dealt % parts].record(samples[order[dealt]]);
        }
        let mut merged = DelayHistogram::default();
        while !hists.is_empty() {
            merged.merge(&hists.swap_remove(rng.gen_range(0..hists.len())));
        }
        prop_assert!(merged == whole, "{} parts", parts);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            prop_assert_eq!(merged.quantile(q), whole.quantile(q));
        }
    }
}
