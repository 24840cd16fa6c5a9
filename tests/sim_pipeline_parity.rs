// The shim `proptest!` macro expands recursively per token; the windowed
// parity property has a large body, so raise the expansion budget.
#![recursion_limit = "512"]

//! Parity and determinism pins for the evaluation pipeline: the CSR routing
//! core against the adjacency-list reference, the sharded and time-windowed
//! packet engines against the serial mode (property-tested on random
//! networks and pinned on the real designed backbone), routing-layer edge
//! cases, and a golden `SimReport` snapshot that future engine refactors
//! must reproduce bit for bit.
//!
//! The worker counts the parity tests sweep come from the
//! `CISP_TEST_WORKERS` environment variable (comma-separated, default
//! `1,2,4`) and the queue disciplines from `CISP_TEST_DISCIPLINE`, so CI can
//! run the suite as a matrix over worker counts and disciplines.

use cisp::core::evaluate::{evaluate, lower, lower_classified, pair_rtts, EvaluateConfig};
use cisp::core::scenario::{population_product_traffic, Scenario, ScenarioConfig};
use cisp::graph::csr::CsrGraph;
use cisp::graph::{dijkstra, Graph, PathStore, SearchCore};
use cisp::netsim::flows::ArrivalProcess;
use cisp::netsim::network::{LinkSpec, Network};
use cisp::netsim::routing::{
    compute_routes, compute_routes_avoiding, Demand, RoutingScheme, TrafficClass,
};
use cisp::netsim::sim::{ExecMode, SimConfig, Simulation};
use cisp::netsim::{BackgroundModel, QueueDiscipline, SimReport};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Worker counts under test: `CISP_TEST_WORKERS` (comma-separated) or the
/// default `1,2,4`.
fn test_worker_counts() -> Vec<usize> {
    std::env::var("CISP_TEST_WORKERS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&w| w > 0)
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4])
}

/// Queue disciplines under test: `CISP_TEST_DISCIPLINE` (comma-separated
/// `fifo`/`strict_priority`/`weighted_fair`) or all three by default, so CI
/// can add a discipline dimension to the parity matrix.
fn test_disciplines() -> Vec<QueueDiscipline> {
    std::env::var("CISP_TEST_DISCIPLINE")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| match t.trim().to_ascii_lowercase().as_str() {
                    "fifo" => Some(QueueDiscipline::Fifo),
                    "strict_priority" | "sp" => Some(QueueDiscipline::StrictPriority),
                    "weighted_fair" | "wfq" => Some(QueueDiscipline::WeightedFair),
                    _ => None,
                })
                .collect::<Vec<QueueDiscipline>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| {
            vec![
                QueueDiscipline::Fifo,
                QueueDiscipline::StrictPriority,
                QueueDiscipline::WeightedFair,
            ]
        })
}

/// A random connected-ish graph: a scrambled spanning chain plus extra
/// random edges, weights in (0.1, 10).
fn random_graph(n: usize, extra_edges: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    for i in 1..n {
        let j = (rng.gen::<f64>() * i as f64) as usize;
        g.add_undirected_edge(i, j, 0.1 + rng.gen::<f64>() * 9.9);
    }
    for _ in 0..extra_edges {
        let a = (rng.gen::<f64>() * n as f64) as usize % n;
        let b = (rng.gen::<f64>() * n as f64) as usize % n;
        if a != b {
            g.add_edge(a, b, 0.1 + rng.gen::<f64>() * 9.9);
        }
    }
    g
}

#[test]
fn csr_dijkstra_matches_adjacency_dijkstra_on_random_graphs() {
    for seed in 0..20u64 {
        let n = 30 + (seed as usize % 4) * 17;
        let g = random_graph(n, 3 * n, 1000 + seed);
        let csr = CsrGraph::from_graph(&g);
        let mut core = SearchCore::new();
        let mut nodes = Vec::new();
        for source in [0usize, n / 2, n - 1] {
            let reference = dijkstra::shortest_path_tree(&g, source, None);
            core.search(&csr, source, &[], f64::INFINITY);
            // Random float weights make shortest paths unique almost surely,
            // and both algorithms accumulate `dist[u] + w` along the same
            // tree — distances must agree exactly.
            let dist: Vec<f64> = (0..n).map(|v| core.dist(v)).collect();
            assert_eq!(dist, reference.dist, "seed {seed}, source {source}");
            // Extracted paths are the reference's.
            for target in 0..n {
                let found = core.node_path_into(target, &mut nodes);
                assert_eq!(
                    found.then_some(&nodes),
                    reference.path_to(target).map(|p| p.nodes).as_ref(),
                    "seed {seed}, source {source}, target {target}"
                );
            }
        }
    }
}

/// The miniature designed backbone, lowered for simulation.
fn lowered_backbone() -> (
    cisp::core::evaluate::LoweredNetwork,
    cisp::core::topology::HybridTopology,
) {
    let scenario = Scenario::build(&ScenarioConfig::tiny_test());
    let outcome = scenario.design(300.0);
    let traffic = population_product_traffic(scenario.cities());
    let config = EvaluateConfig {
        design_aggregate_gbps: 4.0,
        load_fraction: 0.6,
        sim: SimConfig {
            duration_s: 0.1,
            ..SimConfig::default()
        },
        ..EvaluateConfig::default()
    };
    (
        lower(&outcome.topology, &traffic, &config),
        outcome.topology,
    )
}

#[test]
fn sharded_simulation_is_bit_identical_to_serial_on_designed_backbone() {
    let (lowered, _) = lowered_backbone();
    for arrivals in [ArrivalProcess::ConstantBitRate, ArrivalProcess::Poisson] {
        let config = |workers| SimConfig {
            duration_s: 0.1,
            arrivals,
            seed: 7,
            workers,
            ..SimConfig::default()
        };
        let serial =
            Simulation::new(lowered.network.clone(), lowered.demands.clone(), config(1)).run();
        assert!(serial.delivered > 0);
        let sharded =
            Simulation::new(lowered.network.clone(), lowered.demands.clone(), config(5)).run();
        // Full `SimReport` equality: every scalar, every per-flow vector,
        // every per-link utilisation, bit for bit.
        assert_eq!(serial, sharded, "{arrivals:?}");
    }
}

#[test]
fn windowed_simulation_is_bit_identical_to_serial_on_designed_backbone() {
    // The designed backbone mixes heavy shared-link components (the MW
    // spine) with small disjoint ones (direct fiber pairs): the windowed
    // engine must reproduce the serial report bit for bit across all of
    // them, for every worker count and window length.
    let (lowered, _) = lowered_backbone();
    let serial = Simulation::new(
        lowered.network.clone(),
        lowered.demands.clone(),
        SimConfig {
            duration_s: 0.1,
            seed: 7,
            workers: 1,
            ..SimConfig::default()
        },
    )
    .run();
    assert!(serial.delivered > 0);
    assert!(lowered.simulation().num_components() >= 1);
    for workers in test_worker_counts() {
        // Auto (lookahead) window, a fixed sub-millisecond window, and a
        // window beyond the whole horizon.
        for window_s in [0.0, 5e-4, 10.0] {
            let report = Simulation::new(
                lowered.network.clone(),
                lowered.demands.clone(),
                SimConfig {
                    duration_s: 0.1,
                    seed: 7,
                    workers,
                    mode: ExecMode::TimeWindowed { window_s },
                    ..SimConfig::default()
                },
            )
            .run();
            assert_eq!(serial, report, "workers {workers}, window {window_s}");
        }
    }
}

/// A random small packet network: a one-way ring (so multi-hop routes share
/// links and components stay large) plus random chords, with random rates,
/// propagation delays and buffers; demands include unroutable, self and
/// zero-rate edge cases.
fn random_sim_inputs(seed: u64) -> (Network, Vec<Demand>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(4usize..9);
    let mut net = Network::new(n);
    for i in 0..n {
        net.add_link(LinkSpec {
            from: i,
            to: (i + 1) % n,
            rate_bps: rng.gen_range(4e6..20e6),
            propagation_s: rng.gen_range(3e-4..4e-3),
            buffer_bytes: rng.gen_range(5_000.0..40_000.0),
        });
    }
    for _ in 0..rng.gen_range(0usize..4) {
        let a = rng.gen_range(0usize..n);
        let b = rng.gen_range(0usize..n);
        if a != b {
            net.add_link(LinkSpec {
                from: a,
                to: b,
                rate_bps: rng.gen_range(4e6..20e6),
                propagation_s: rng.gen_range(3e-4..4e-3),
                buffer_bytes: rng.gen_range(5_000.0..40_000.0),
            });
        }
    }
    let mut demands = Vec::new();
    for _ in 0..rng.gen_range(2usize..7) {
        // src == dst occasionally: an empty-route demand must stay inert.
        let src = rng.gen_range(0usize..n);
        let dst = rng.gen_range(0usize..n);
        demands.push(Demand::new(src, dst, rng.gen_range(5e5..4e6)));
    }
    if rng.gen_bool(0.3) {
        demands.push(Demand::new(0, 1, 0.0));
    }
    (net, demands)
}

/// The tentpole invariant, checked for one random instance: the
/// time-windowed engine, the component-sharded engine and the serial
/// reference produce bit-identical `SimReport`s for every tested
/// `(workers, window)` configuration — including the degenerate windows
/// (roughly one event per window, and a window far beyond the horizon).
fn check_engines_match_serial(seed: u64) -> TestCaseResult {
    let (net, demands) = random_sim_inputs(seed);
    let arrivals = if seed.is_multiple_of(2) {
        ArrivalProcess::ConstantBitRate
    } else {
        ArrivalProcess::Poisson
    };
    let base = SimConfig {
        duration_s: 0.03,
        arrivals,
        seed,
        ..SimConfig::default()
    };
    let serial = Simulation::new(
        net.clone(),
        demands.clone(),
        SimConfig { workers: 1, ..base },
    )
    .run();
    for workers in test_worker_counts() {
        let sharded =
            Simulation::new(net.clone(), demands.clone(), SimConfig { workers, ..base }).run();
        prop_assert!(
            serial == sharded,
            "sharded != serial at workers {workers} (seed {seed})"
        );
        for window_s in [0.0, 2e-4, 1.5e-3, 1.0] {
            let windowed = Simulation::new(
                net.clone(),
                demands.clone(),
                SimConfig {
                    workers,
                    mode: ExecMode::TimeWindowed { window_s },
                    ..base
                },
            )
            .run();
            prop_assert!(
                serial == windowed,
                "windowed != serial at workers {workers}, window {window_s} (seed {seed})"
            );
        }
    }
    Ok(())
}

/// Hybrid counterpart of [`check_engines_match_serial`]: tag a random
/// subset of the demands background, then check that (a) the hybrid report
/// is bit-identical across both execution modes, every tested worker count
/// and window; (b) background demands emit no
/// packets; and (c) every foreground flow's mean delay agrees with the
/// pure-packet run within the documented fluid envelope — the worst-case
/// queueing a fully backlogged route can add or hide,
/// `Σ_route buffer_bytes · 8 / rate_bps`.
fn check_hybrid_matches_serial_and_packet_envelope(seed: u64) -> TestCaseResult {
    let (net, mut demands) = random_sim_inputs(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_bac6);
    for d in demands.iter_mut() {
        if rng.gen_bool(0.4) {
            d.class = TrafficClass::Background;
        }
    }
    let arrivals = if seed.is_multiple_of(2) {
        ArrivalProcess::ConstantBitRate
    } else {
        ArrivalProcess::Poisson
    };
    let base = SimConfig {
        duration_s: 0.03,
        arrivals,
        seed,
        background: BackgroundModel::Fluid,
        ..SimConfig::default()
    };
    let hybrid = Simulation::new(
        net.clone(),
        demands.clone(),
        SimConfig { workers: 1, ..base },
    )
    .run();

    // (a) Bit-identity across the whole execution matrix.
    for workers in test_worker_counts() {
        let sharded =
            Simulation::new(net.clone(), demands.clone(), SimConfig { workers, ..base }).run();
        prop_assert!(
            hybrid == sharded,
            "hybrid sharded != serial at workers {workers} (seed {seed})"
        );
        for window_s in [0.0, 1.5e-3, 1.0] {
            let windowed = Simulation::new(
                net.clone(),
                demands.clone(),
                SimConfig {
                    workers,
                    mode: ExecMode::TimeWindowed { window_s },
                    ..base
                },
            )
            .run();
            prop_assert!(
                hybrid == windowed,
                "hybrid windowed != serial at workers {workers}, window {window_s} (seed {seed})"
            );
        }
    }

    // (a′) The cross-mode identity holds under every queue discipline, not
    // just FIFO: per-class virtual clocks must merge identically in the
    // component-sharded and time-windowed modes.
    for discipline in test_disciplines() {
        let dbase = SimConfig { discipline, ..base };
        let serial_d = Simulation::new(
            net.clone(),
            demands.clone(),
            SimConfig {
                workers: 1,
                ..dbase
            },
        )
        .run();
        for workers in test_worker_counts() {
            for window_s in [0.0, 1.0] {
                let windowed = Simulation::new(
                    net.clone(),
                    demands.clone(),
                    SimConfig {
                        workers,
                        mode: ExecMode::TimeWindowed { window_s },
                        ..dbase
                    },
                )
                .run();
                prop_assert!(
                    serial_d == windowed,
                    "{discipline:?} windowed != serial at workers {workers}, window {window_s} \
                     (seed {seed})"
                );
            }
        }
    }

    // The fluid solver's safety valve must never fire on a well-formed
    // workload — a truncated background horizon silently under-reports
    // delivered bits, which is exactly what `truncated` now surfaces.
    // (The random tagging can leave a seed with no background demands at
    // all, in which case there are no background stats to check.)
    if let Some(bg_stats) = hybrid.background.as_ref() {
        prop_assert!(
            !bg_stats.truncated,
            "fluid safety valve fired on a well-formed workload (seed {seed})"
        );
        prop_assert!(
            bg_stats.truncated_horizon_s == 0.0,
            "non-zero truncated horizon without truncation (seed {seed})"
        );
    }

    // (b) Background demands leave the packet engine entirely.
    for (k, d) in demands.iter().enumerate() {
        if d.class == TrafficClass::Background {
            prop_assert!(
                hybrid.flow_delivered[k] + hybrid.flow_dropped[k] == 0,
                "background flow {k} emitted packets (seed {seed})"
            );
        }
    }

    // (c) Foreground agreement with pure packet, within the fluid envelope.
    let packet = Simulation::new(
        net.clone(),
        demands.clone(),
        SimConfig {
            workers: 1,
            background: BackgroundModel::Packet,
            ..base
        },
    )
    .run();
    let routes = compute_routes(&net, &demands, base.routing);
    let links = net.links();
    for (k, d) in demands.iter().enumerate() {
        if d.class == TrafficClass::Background
            || hybrid.flow_delivered[k] == 0
            || packet.flow_delivered[k] == 0
        {
            continue;
        }
        let envelope_ms: f64 = routes
            .route(k)
            .iter()
            .map(|&l| {
                let spec = &links[l as usize];
                spec.buffer_bytes * 8.0 / spec.rate_bps
            })
            .sum::<f64>()
            * 1e3;
        let diff = (hybrid.flow_mean_delay_ms[k] - packet.flow_mean_delay_ms[k]).abs();
        prop_assert!(
            diff <= envelope_ms + 1e-9,
            "foreground flow {} delay diff {} ms exceeds the fluid envelope {} ms (seed {})",
            k,
            diff,
            envelope_ms,
            seed
        );
    }
    Ok(())
}

/// A random classified packet workload with buffers far too generous to
/// drop: a one-way ring plus chords, alternating foreground/background
/// demands (at least one of each), every packet delivered — so per-class
/// delay statistics compare like for like across disciplines.
fn random_classified_inputs(seed: u64) -> (Network, Vec<Demand>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc1a5_51f1);
    let n = rng.gen_range(4usize..9);
    let mut net = Network::new(n);
    for i in 0..n {
        net.add_link(LinkSpec {
            from: i,
            to: (i + 1) % n,
            rate_bps: rng.gen_range(4e6..20e6),
            propagation_s: rng.gen_range(3e-4..4e-3),
            buffer_bytes: 5e6,
        });
    }
    for _ in 0..rng.gen_range(0usize..4) {
        let a = rng.gen_range(0usize..n);
        let b = rng.gen_range(0usize..n);
        if a != b {
            net.add_link(LinkSpec {
                from: a,
                to: b,
                rate_bps: rng.gen_range(4e6..20e6),
                propagation_s: rng.gen_range(3e-4..4e-3),
                buffer_bytes: 5e6,
            });
        }
    }
    let mut demands = Vec::new();
    for k in 0..rng.gen_range(2usize..7) {
        let src = rng.gen_range(0usize..n);
        let dst = (src + rng.gen_range(1..n)) % n;
        let mut d = Demand::new(src, dst, rng.gen_range(5e5..4e6));
        if k % 2 == 1 {
            d.class = TrafficClass::Background;
        }
        demands.push(d);
    }
    // Guarantee both classes are present and contending.
    demands.push(Demand::new(0, n / 2, 2e6));
    let mut bulk = Demand::new(0, n / 2, 4e6);
    bulk.class = TrafficClass::Background;
    demands.push(bulk);
    (net, demands)
}

/// Satellite property: on a classified packet workload that drops nothing,
/// strict priority can only help the foreground class — its mean and P99
/// queueing delay never exceed FIFO's. (Background is packet-simulated here
/// so the two classes genuinely contend at every hop.)
fn check_strict_priority_never_hurts_foreground(seed: u64) -> TestCaseResult {
    let (net, demands) = random_classified_inputs(seed);
    let base = SimConfig {
        duration_s: 0.03,
        seed,
        workers: 1,
        background: BackgroundModel::Packet,
        ..SimConfig::default()
    };
    let run = |discipline| {
        Simulation::new(
            net.clone(),
            demands.clone(),
            SimConfig { discipline, ..base },
        )
        .run()
    };
    let fifo = run(QueueDiscipline::Fifo);
    let sp = run(QueueDiscipline::StrictPriority);
    prop_assert!(
        fifo.dropped == 0 && sp.dropped == 0,
        "generous buffers must prevent drops (seed {seed})"
    );
    let f = fifo
        .per_class
        .expect("classified run must report per-class stats")
        .foreground;
    let s = sp
        .per_class
        .expect("classified run must report per-class stats")
        .foreground;
    prop_assert!(
        f.delivered + f.dropped == s.delivered + s.dropped,
        "foreground packet population changed (seed {seed})"
    );
    prop_assert!(
        s.mean_queue_delay_ms <= f.mean_queue_delay_ms + 1e-9,
        "strict priority raised the foreground mean queueing delay: {} ms vs {} ms (seed {seed})",
        s.mean_queue_delay_ms,
        f.mean_queue_delay_ms
    );
    prop_assert!(
        s.p99_queue_delay_ms <= f.p99_queue_delay_ms + 1e-9,
        "strict priority raised the foreground P99 queueing delay: {} ms vs {} ms (seed {seed})",
        s.p99_queue_delay_ms,
        f.p99_queue_delay_ms
    );
    Ok(())
}

/// `PathStore` round-trip for one random path set: reads back exactly, in
/// order, through both push entry points.
fn check_path_store_roundtrip(seed: u64) -> TestCaseResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let num_paths = rng.gen_range(0usize..14);
    let paths: Vec<Vec<u32>> = (0..num_paths)
        .map(|_| {
            let len = rng.gen_range(0usize..9);
            (0..len).map(|_| rng.gen_range(0u64..500) as u32).collect()
        })
        .collect();
    let total: usize = paths.iter().map(|p| p.len()).sum();
    let mut store = PathStore::with_capacity(num_paths, total);
    for (k, path) in paths.iter().enumerate() {
        // Exercise both entry points.
        let idx = if k % 2 == 0 {
            store.push_path(path)
        } else {
            store.push_path_from(path.iter().copied())
        };
        prop_assert_eq!(idx, k);
    }
    prop_assert_eq!(store.len(), num_paths);
    prop_assert_eq!(store.is_empty(), num_paths == 0);
    prop_assert_eq!(store.total_links(), total);
    for (k, path) in paths.iter().enumerate() {
        prop_assert_eq!(store.path(k), path.as_slice());
        prop_assert_eq!(store.path_len(k), path.len());
    }
    let collected: Vec<Vec<u32>> = store.iter().map(|p| p.to_vec()).collect();
    prop_assert_eq!(collected, paths);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn windowed_and_sharded_engines_match_serial_on_random_networks(seed in 0u64..u64::MAX) {
        check_engines_match_serial(seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn hybrid_engine_is_bit_identical_across_modes_and_within_the_fluid_envelope(
        seed in 0u64..u64::MAX,
    ) {
        check_hybrid_matches_serial_and_packet_envelope(seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn strict_priority_never_hurts_the_foreground_class(seed in 0u64..u64::MAX) {
        check_strict_priority_never_hurts_foreground(seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn path_store_roundtrips_arbitrary_path_sets(seed in 0u64..u64::MAX) {
        check_path_store_roundtrip(seed)?;
    }
}

#[test]
fn fully_disabled_network_leaves_every_demand_unroutable() {
    // Disabling every link a demand could use must yield empty routes — the
    // weather layer's total-failure case — under every scheme.
    let (net, demands) = random_sim_inputs(17);
    let disabled = vec![true; net.num_links()];
    for scheme in [
        RoutingScheme::ShortestPath,
        RoutingScheme::MinMaxUtilization,
        RoutingScheme::ThroughputOptimal,
    ] {
        let table = compute_routes_avoiding(&net, &demands, scheme, &disabled);
        assert_eq!(table.len(), demands.len());
        for k in 0..table.len() {
            assert!(table.route(k).is_empty(), "{scheme:?}, demand {k}");
        }
    }
}

#[test]
fn empty_and_all_false_masks_match_baseline_routes() {
    let (net, demands) = random_sim_inputs(23);
    for scheme in [
        RoutingScheme::ShortestPath,
        RoutingScheme::MinMaxUtilization,
        RoutingScheme::ThroughputOptimal,
    ] {
        let baseline = compute_routes(&net, &demands, scheme);
        let empty_mask = compute_routes_avoiding(&net, &demands, scheme, &[]);
        let false_mask =
            compute_routes_avoiding(&net, &demands, scheme, &vec![false; net.num_links()]);
        assert_eq!(baseline, empty_mask, "{scheme:?}");
        assert_eq!(baseline, false_mask, "{scheme:?}");
    }
}

/// Exact, human-diffable rendering of the golden snapshot: `{:?}` on `f64`
/// prints the shortest decimal that round-trips, so equality of the rendered
/// text is equality of the bits.
fn format_report_snapshot(title: &str, report: &SimReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Golden SimReport of the {title} lowering (serial run)."
    );
    out.push_str("# Regenerate with: CISP_BLESS=1 cargo test --test sim_pipeline_parity golden\n");
    let _ = writeln!(out, "delivered: {}", report.delivered);
    let _ = writeln!(out, "dropped: {}", report.dropped);
    let _ = writeln!(out, "mean_delay_ms: {:?}", report.mean_delay_ms);
    let _ = writeln!(out, "p95_delay_ms: {:?}", report.p95_delay_ms);
    let _ = writeln!(out, "mean_queue_delay_ms: {:?}", report.mean_queue_delay_ms);
    let _ = writeln!(out, "loss_rate: {:?}", report.loss_rate);
    let total_delay_ms: f64 = report
        .flow_mean_delay_ms
        .iter()
        .zip(&report.flow_delivered)
        .map(|(&mean, &n)| mean * n as f64)
        .sum();
    let _ = writeln!(out, "total_delay_ms: {:?}", total_delay_ms);
    let _ = writeln!(
        out,
        "mean_link_utilization: {:?}",
        report.mean_link_utilization
    );
    let _ = writeln!(
        out,
        "max_link_utilization: {:?}",
        report.max_link_utilization
    );
    let _ = writeln!(out, "flows: {}", report.flow_delivered.len());
    for k in 0..report.flow_delivered.len() {
        let _ = writeln!(
            out,
            "flow {k}: delivered {} dropped {} mean_delay_ms {:?}",
            report.flow_delivered[k], report.flow_dropped[k], report.flow_mean_delay_ms[k]
        );
    }
    if let Some(bg) = &report.background {
        let _ = writeln!(out, "background_flows: {}", bg.flows);
        let _ = writeln!(out, "background_offered_bits: {:?}", bg.offered_bits);
        let _ = writeln!(out, "background_delivered_bits: {:?}", bg.delivered_bits);
        let _ = writeln!(out, "background_dropped_bits: {:?}", bg.dropped_bits);
        let _ = writeln!(
            out,
            "background_mean_throughput_bps: {:?}",
            bg.mean_throughput_bps
        );
        let _ = writeln!(
            out,
            "background_mean_backlog_bytes: {:?}",
            bg.mean_backlog_bytes
        );
        let _ = writeln!(
            out,
            "background_peak_backlog_bytes: {:?}",
            bg.peak_backlog_bytes
        );
        let _ = writeln!(out, "background_rate_events: {}", bg.rate_events);
        let _ = writeln!(
            out,
            "background_packet_equivalent_events: {:?}",
            bg.packet_equivalent_events
        );
    }
    out
}

/// What the exact path — every delivery stored, sorted for the quantile,
/// summed in `(time, flow)` order for the mean — reported for both golden
/// workloads before delivery accounting went order-free.
const EXACT_MEAN_DELAY_MS: f64 = 1.6924795942855517;
const EXACT_P95_DELAY_MS: f64 = 3.1247731105952474;
const EXACT_MEAN_QUEUE_DELAY_MS: f64 = 7.759006230470161e-5;

/// The report's delay statistics against the exact path's: quantile within
/// one 2⁻¹⁰ histogram bin, means within 1e-12 relative (only the order of
/// the additions differs).
fn assert_within_a_bin_of_the_exact_path(report: &SimReport) {
    let p95_bin = EXACT_P95_DELAY_MS * 2f64.powi(-10);
    assert!(
        (report.p95_delay_ms - EXACT_P95_DELAY_MS).abs() <= p95_bin,
        "p95_delay_ms {} is more than one bin from {EXACT_P95_DELAY_MS}",
        report.p95_delay_ms
    );
    for (got, exact) in [
        (report.mean_delay_ms, EXACT_MEAN_DELAY_MS),
        (report.mean_queue_delay_ms, EXACT_MEAN_QUEUE_DELAY_MS),
    ] {
        assert!((got - exact).abs() <= exact * 1e-12, "{got} vs {exact}");
    }
}

/// Golden-report regression pin: the serial `SimReport` of the designed
/// backbone, rendered exactly, must match the checked-in snapshot. Any
/// engine refactor that silently changes event order, per-flow summation
/// or float arithmetic fails here even if it stays self-consistent across
/// modes.
#[test]
fn golden_end_to_end_backbone_report_matches_snapshot() {
    let (lowered, _) = lowered_backbone();
    let config = SimConfig {
        duration_s: 0.1,
        seed: 7,
        workers: 1,
        ..SimConfig::default()
    };
    let report = Simulation::new(lowered.network.clone(), lowered.demands.clone(), config).run();
    // On an all-foreground workload every queue discipline degrades to FIFO
    // exactly (`x + 0.0 == x`, `x * 1.0 == x`): the pre-discipline golden
    // pins all three, not just the default.
    for discipline in test_disciplines() {
        let under_discipline = Simulation::new(
            lowered.network.clone(),
            lowered.demands.clone(),
            SimConfig {
                discipline,
                ..config
            },
        )
        .run();
        assert_eq!(
            report, under_discipline,
            "{discipline:?} drifted from FIFO on an unclassified workload"
        );
    }
    assert_within_a_bin_of_the_exact_path(&report);
    let rendered = format_report_snapshot("end_to_end_backbone", &report);
    assert_snapshot_matches(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/end_to_end_backbone_report.txt"
        ),
        &rendered,
    );
}

/// Golden hybrid-report pin: the classified backbone (city traffic
/// foreground, a second aggregate as fluid background) under
/// [`BackgroundModel::Fluid`], serial run — including the background
/// block of the snapshot. Guards the fluid solver's arithmetic the same
/// way the packet golden guards the event engine's.
#[test]
fn golden_hybrid_backbone_report_matches_snapshot() {
    let scenario = Scenario::build(&ScenarioConfig::tiny_test());
    let outcome = scenario.design(300.0);
    let traffic = population_product_traffic(scenario.cities());
    let config = EvaluateConfig {
        design_aggregate_gbps: 4.0,
        load_fraction: 0.6,
        sim: SimConfig {
            duration_s: 0.1,
            ..SimConfig::default()
        },
        ..EvaluateConfig::default()
    };
    let lowered = lower_classified(&outcome.topology, &traffic, &traffic, 2.0, &config);
    let report = Simulation::new(
        lowered.network.clone(),
        lowered.demands.clone(),
        SimConfig {
            duration_s: 0.1,
            seed: 7,
            workers: 1,
            background: BackgroundModel::Fluid,
            ..SimConfig::default()
        },
    )
    .run();
    let bg = report
        .background
        .as_ref()
        .expect("classified lowering must produce fluid background stats");
    assert!(
        !bg.truncated && bg.truncated_horizon_s == 0.0,
        "fluid safety valve fired on the pinned hybrid workload"
    );
    assert!(report.delivered > 0);
    assert_within_a_bin_of_the_exact_path(&report);
    let rendered = format_report_snapshot("classified_hybrid_backbone", &report);
    assert_snapshot_matches(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/hybrid_backbone_report.txt"
        ),
        &rendered,
    );
}

/// The hybrid engine's headline workload: the conduit-backed miniature US
/// backbone (12 sites, 1 500 raw towers, regional terrain — the figure
/// binaries' `--tiny` scenario) carrying a million users' worth of bulk
/// background traffic (10⁶ × 140 kbps = 140 Gbps) as fluid next to a 2 Gbps
/// packet-simulated foreground. MW buffers are deep so the fluid backlog's
/// ramp on oversubscribed links shows up as *delay* in delivered foreground
/// packets, not only as drops: with the default shallow buffer the backlog
/// pins at the ceiling and FIFO's foreground queueing is all-or-nothing.
#[test]
fn million_user_hybrid_backbone() {
    let scenario = Scenario::build(&ScenarioConfig {
        max_sites: Some(12),
        towers: cisp::data::towers::TowerRegistryConfig {
            raw_count: 1_500,
            ..Default::default()
        },
        ..ScenarioConfig::us_paper(42)
    });
    let outcome = scenario.design(300.0);
    let traffic = population_product_traffic(scenario.cities());
    let lowered = lower_classified(
        &scenario.conduit_backed_topology(&outcome),
        &traffic,
        &traffic,
        140.0,
        &EvaluateConfig {
            design_aggregate_gbps: 4.0,
            load_fraction: 0.5,
            mw_buffer_bytes: 2_000_000.0,
            ..EvaluateConfig::default()
        },
    );
    let base = SimConfig {
        duration_s: 0.05,
        workers: 1,
        background: BackgroundModel::Fluid,
        ..SimConfig::default()
    };
    let simulation =
        |config| Simulation::new(lowered.network.clone(), lowered.demands.clone(), config);
    let mut hybrid_sim = simulation(base);
    let hybrid = hybrid_sim.run();
    let serial_under = |discipline| simulation(SimConfig { discipline, ..base }).run();
    assert_eq!(
        hybrid,
        serial_under(QueueDiscipline::Fifo),
        "explicit Fifo differs from the default config"
    );

    // One report in every execution mode and at every width, under every
    // discipline.
    for discipline in test_disciplines() {
        let serial = serial_under(discipline);
        for workers in test_worker_counts().into_iter().chain([0]) {
            for mode in [ExecMode::ComponentSharded, ExecMode::windowed_auto()] {
                let report = simulation(SimConfig {
                    discipline,
                    workers,
                    mode,
                    ..base
                })
                .run();
                assert_eq!(
                    serial, report,
                    "{discipline:?}, workers {workers}, {mode:?}"
                );
            }
        }
    }

    let bg = hybrid.background.as_ref().expect("background stats");
    assert!(!bg.truncated, "the fluid solver's safety valve fired");
    // The fluid model stands in for at least ten times the events the
    // hybrid run itself processes (one per transmit attempt, forwarded or
    // dropped, plus one per delivery).
    let forwarded: u64 = hybrid_sim.network().states().packets_forwarded.iter().sum();
    let events = forwarded + hybrid.dropped + hybrid.delivered;
    assert!(events > 0);
    assert!(
        bg.packet_equivalent_events >= 10.0 * events as f64,
        "{} packet-equivalent events avoided against {events} processed",
        bg.packet_equivalent_events
    );

    // Strict priority strictly improves the foreground P99 queueing delay
    // while the fluid background keeps delivering within 5 % of FIFO's bits.
    let sp = serial_under(QueueDiscipline::StrictPriority);
    let fg_p99_queue_ms = |r: &SimReport| {
        let per_class = r.per_class.as_ref().expect("per-class stats");
        per_class.foreground.p99_queue_delay_ms
    };
    assert!(
        fg_p99_queue_ms(&sp) < fg_p99_queue_ms(&hybrid),
        "strict priority {} ms vs FIFO {} ms",
        fg_p99_queue_ms(&sp),
        fg_p99_queue_ms(&hybrid)
    );
    let sp_bg = sp.background.as_ref().expect("background stats");
    let bg_ratio = sp_bg.delivered_bits / bg.delivered_bits;
    assert!(
        (bg_ratio - 1.0).abs() <= 0.05,
        "background ratio {bg_ratio}"
    );
}

/// Compare a rendered snapshot against its checked-in golden file, or
/// regenerate the file when `CISP_BLESS=1` is set.
fn assert_snapshot_matches(path: &str, rendered: &str) {
    if std::env::var_os("CISP_BLESS").is_some() {
        std::fs::write(path, rendered).expect("write golden snapshot");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden snapshot missing — run once with CISP_BLESS=1 to create it");
    assert_eq!(
        golden, rendered,
        "SimReport drifted from the golden snapshot; if the change is \
         intentional, regenerate with CISP_BLESS=1"
    );
}

#[test]
fn end_to_end_rtts_are_physical_and_feed_the_app_models() {
    let (lowered, topology) = lowered_backbone();
    let report = lowered.simulation().run();
    let rtts = pair_rtts(&lowered, &report, &topology);
    assert!(!rtts.is_empty());
    for p in &rtts {
        assert!(
            p.simulated_rtt_ms >= p.propagation_rtt_ms - 1e-9,
            "simulated RTT below propagation for pair ({}, {})",
            p.site_a,
            p.site_b
        );
    }
    // The RTT distribution drives the application models end to end.
    let samples: Vec<f64> = rtts.iter().map(|p| p.simulated_rtt_ms).collect();
    let game = cisp::apps::gaming::frame_time_distribution(
        &cisp::apps::gaming::GameModel::default(),
        &samples,
    );
    assert!(game.mean_augmented_ms < game.mean_conventional_ms);
    let rtt_seconds: Vec<f64> = samples.iter().map(|ms| ms / 1e3).collect();
    let corpus = cisp::apps::web::PageCorpus::generate_with_rtts(20, 11, &rtt_seconds);
    let baseline = cisp::apps::web::replay(&corpus, cisp::apps::web::ReplayScenario::Baseline);
    let accelerated = cisp::apps::web::replay(
        &corpus,
        cisp::apps::web::ReplayScenario::Cisp { factor: 1.0 / 3.0 },
    );
    assert!(accelerated.median_plt_ms() < baseline.median_plt_ms());
}

#[test]
fn evaluate_shortcut_matches_manual_chain() {
    let scenario = Scenario::build(&ScenarioConfig::tiny_test());
    let outcome = scenario.design(300.0);
    let traffic = population_product_traffic(scenario.cities());
    let config = EvaluateConfig {
        design_aggregate_gbps: 4.0,
        load_fraction: 0.6,
        sim: SimConfig {
            duration_s: 0.1,
            ..SimConfig::default()
        },
        ..EvaluateConfig::default()
    };
    let report = evaluate(&outcome.topology, &traffic, &config);
    let lowered = lower(&outcome.topology, &traffic, &config);
    let manual = lowered.simulation().run();
    assert_eq!(report.sim, manual);
    assert_eq!(report.pair_rtts.len(), lowered.demands.len() / 2);
    assert!(report.mean_rtt_ms() > 0.0);
}
