//! Micro-benchmarks of the computational kernels the design pipeline leans
//! on: geodesic math, Fresnel/LOS profile evaluation, terrain sampling,
//! Dijkstra over the tower graph, the simplex solver, and the storm-year
//! link-failure sweep.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use std::sync::RwLock;

use cisp_bench::synthetic_design_input;
use cisp_core::design::{DesignInput, Designer};
use cisp_core::engine::{RoundUpdate, ScoreContext, ShardState};
use cisp_core::topology::{mean_stretch_with_link, mean_stretch_with_link_compact, ScoringWeights};
use cisp_data::cities::us_top_cities;
use cisp_data::towers::{TowerRegistry, TowerRegistryConfig};
use cisp_geo::{fresnel, geodesic, GeoPoint};
use cisp_graph::{dijkstra, improve_with_link_tracked, Graph, ImprovedPairs};
use cisp_lp::model::{Problem, VarKind};
use cisp_lp::simplex::solve_lp;
use cisp_terrain::{clutter::ClutterModel, profile, TerrainModel};
use cisp_weather::failures::{failure_sweep, FailureConfig};
use cisp_weather::storms::{StormYear, StormYearConfig};

fn bench_geodesic(c: &mut Criterion) {
    let a = GeoPoint::new(40.7128, -74.0060);
    let b = GeoPoint::new(34.0522, -118.2437);
    c.bench_function("geodesic_distance", |bench| {
        bench.iter(|| geodesic::distance_km(black_box(a), black_box(b)))
    });
    c.bench_function("geodesic_sample_path_64", |bench| {
        bench.iter(|| geodesic::sample_path(black_box(a), black_box(b), 64))
    });
}

fn bench_los_profile(c: &mut Criterion) {
    let terrain = TerrainModel::united_states(42);
    let clutter = ClutterModel::with_seed(42);
    let a = GeoPoint::new(39.5, -105.0);
    let b = GeoPoint::new(39.3, -104.0);
    c.bench_function("terrain_elevation", |bench| {
        bench.iter(|| terrain.elevation_m(black_box(a)))
    });
    c.bench_function("obstruction_profile_90km", |bench| {
        bench.iter(|| profile::obstruction_profile(&terrain, &clutter, a, b, 91))
    });
    let obstacles = profile::obstruction_profile(&terrain, &clutter, a, b, 91);
    c.bench_function("fresnel_clearance_evaluation", |bench| {
        bench.iter(|| {
            let samples =
                fresnel::evaluate_profile(90.0, 2000.0, 2000.0, black_box(&obstacles), 11.0, 1.3);
            fresnel::profile_is_clear(&samples)
        })
    });
}

fn bench_tower_queries(c: &mut Criterion) {
    let cities = us_top_cities(30);
    let registry = TowerRegistry::synthesize(
        7,
        (24.5, 49.5, -125.0, -66.5),
        &cities,
        &TowerRegistryConfig {
            raw_count: 4_000,
            ..TowerRegistryConfig::default()
        },
    );
    let p = GeoPoint::new(39.0, -95.0);
    c.bench_function("towers_within_100km", |bench| {
        bench.iter(|| registry.towers_within(black_box(p), 100.0))
    });
}

fn bench_dijkstra(c: &mut Criterion) {
    // A 60×60 grid graph, similar in size to a regional tower graph.
    let n = 60usize;
    let id = |r: usize, col: usize| r * n + col;
    let mut g = Graph::new(n * n);
    for r in 0..n {
        for col in 0..n {
            if col + 1 < n {
                g.add_undirected_edge(id(r, col), id(r, col + 1), 1.0 + ((r + col) % 7) as f64);
            }
            if r + 1 < n {
                g.add_undirected_edge(id(r, col), id(r + 1, col), 1.0 + ((r * col) % 5) as f64);
            }
        }
    }
    c.bench_function("dijkstra_3600_node_grid", |bench| {
        bench.iter(|| dijkstra::shortest_path(&g, 0, n * n - 1))
    });
}

fn bench_simplex(c: &mut Criterion) {
    // A 20-variable, 30-constraint random-ish LP.
    let mut p = Problem::minimize();
    let vars: Vec<_> = (0..20)
        .map(|i| {
            p.add_var(
                &format!("x{i}"),
                VarKind::Continuous,
                ((i % 7) as f64) - 3.0,
            )
        })
        .collect();
    for k in 0..30 {
        let terms: Vec<_> = vars
            .iter()
            .enumerate()
            .filter(|(i, _)| (i + k) % 3 == 0)
            .map(|(i, &v)| (v, 1.0 + ((i * k) % 5) as f64))
            .collect();
        p.add_le(terms, 50.0 + k as f64);
    }
    for &v in &vars {
        p.add_le(vec![(v, 1.0)], 10.0);
    }
    c.bench_function("simplex_20x30", |bench| {
        bench.iter(|| solve_lp(black_box(&p)).unwrap())
    });
}

/// A dense synthetic design input (`n` sites, all-pairs candidates) for the
/// scoring-kernel benchmarks.
fn scoring_input(n: usize) -> DesignInput {
    synthetic_design_input(n)
}

/// The one-candidate scoring kernel itself: the scalar reference
/// (`mean_stretch_with_link`, branchy per-pair skip tests) against the
/// compact blocked form (`mean_stretch_with_link_compact`, precomputed
/// weight matrix, branchless min/select chains, fixed-lane accumulators).
/// The ratio here is the per-sweep speedup every exact score — the greedy's
/// first round and winner refreshes, the swap trials — inherits.
fn bench_scoring_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("scoring_kernel");
    for &n in &[60usize, 120] {
        let input = scoring_input(n);
        let topology = input.empty_topology();
        let sw = ScoringWeights::compute(
            topology.effective_matrix(),
            topology.geodesic_matrix(),
            topology.traffic(),
        )
        .expect("synthetic input is finite");
        // A mid-pool candidate, so the row spans are representative.
        let pool = input.useful_candidates();
        let l = &input.candidates[pool[pool.len() / 2]];
        group.bench_with_input(BenchmarkId::new("scalar", n), &n, |b, _| {
            b.iter(|| {
                mean_stretch_with_link(
                    topology.effective_matrix(),
                    topology.geodesic_matrix(),
                    topology.traffic(),
                    black_box(l.site_a),
                    black_box(l.site_b),
                    black_box(l.mw_length_km),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("compact", n), &n, |b, _| {
            b.iter(|| {
                mean_stretch_with_link_compact(
                    topology.effective_matrix(),
                    &sw,
                    black_box(l.site_a),
                    black_box(l.site_b),
                    black_box(l.mw_length_km),
                )
            })
        });
    }
    group.finish();
}

/// The greedy inner loop, per accepted link: one shard repairing its cached
/// predictions from the accepted link's improved-pair set
/// (`ShardState::apply`, the largest stage left on `design_us_flat`).
fn bench_incremental_vs_full_rescore(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_vs_full_rescore");
    group.sample_size(10);
    // In `--test` smoke mode only the smallest size runs (the staging below
    // replays a real greedy prefix, which is slow in debug builds).
    let quick =
        std::env::args().any(|a| a == "--test") || std::env::var_os("CISP_BENCH_QUICK").is_some();
    let sizes: &[usize] = if quick { &[30] } else { &[30, 60, 120] };
    for &n in sizes {
        let input = scoring_input(n);
        let pool = input.useful_candidates();

        // Pause the real greedy mid-run: warm the topology with its first
        // selections, then measure the round that accepts the next one — a
        // steady-state round.
        let trajectory = Designer::new(&input).greedy((4 * n) as f64).selected;
        assert!(trajectory.len() >= 2, "trajectory too short at n = {n}");
        let split = trajectory.len() * 2 / 3;
        let accepted = trajectory[split];
        let accepted_pos = pool.iter().position(|&idx| idx == accepted).unwrap();
        let mut topology = input.empty_topology();
        for &idx in &trajectory[..split] {
            topology.add_mw_link(input.candidates[idx].clone());
        }

        // One shard repairs its cached predictions from the accepted link's
        // delta.
        let matrix = RwLock::new(topology.effective_matrix().clone());
        let mut sw = ScoringWeights::compute(
            topology.effective_matrix(),
            topology.geodesic_matrix(),
            topology.traffic(),
        )
        .expect("synthetic input is finite");
        assert!(
            sw.enable_gain_bounds(topology.effective_matrix()),
            "synthetic input is metric"
        );
        let ctx = ScoreContext {
            candidates: &input.candidates,
            pool: &pool,
            geodesic: topology.geodesic_matrix(),
            traffic: topology.traffic(),
            matrix: &matrix,
            sw: &sw,
        };
        let mut state = ShardState::new(0..pool.len());
        state.init_score(&ctx);
        let link = &input.candidates[accepted];
        let mut improved = ImprovedPairs::new(n);
        {
            let mut m = matrix.write().unwrap();
            improve_with_link_tracked(
                &mut m,
                link.site_a,
                link.site_b,
                link.mw_length_km,
                &mut improved,
            );
        }
        let update = RoundUpdate::new(
            improved,
            Some(accepted_pos),
            Vec::new(),
            &matrix.read().unwrap(),
            &sw,
        );
        group.bench_with_input(BenchmarkId::new("incremental", n), &n, |b, _| {
            b.iter(|| {
                let mut shard = state.clone();
                shard.apply(&ctx, &update);
                black_box(shard.values()[0])
            })
        });
    }
    group.finish();
}

/// One storm year over a backbone-sized synthetic topology: the 120
/// scattered sites of `synthetic_design_input` with a direct microwave link
/// on every pair closer than 450 km.
fn bench_failure_sweep(c: &mut Criterion) {
    let input = synthetic_design_input(120);
    let mut topology = input.empty_topology();
    for link in &input.candidates {
        if geodesic::distance_km(input.sites[link.site_a], input.sites[link.site_b]) < 450.0 {
            topology.add_mw_link(link.clone());
        }
    }
    assert!(
        topology.mw_links().len() >= 300,
        "{} links",
        topology.mw_links().len()
    );
    let year = StormYear::generate(42, &StormYearConfig::us_default());
    let config = FailureConfig::default();
    c.bench_function("failure_sweep", |bench| {
        bench.iter(|| {
            let (failed, stats) = failure_sweep(&topology, black_box(year.fields()), &config);
            assert_eq!(stats.by_rain_bound + stats.exact, stats.link_fields);
            black_box(failed)
        })
    });
}

criterion_group!(
    benches,
    bench_geodesic,
    bench_los_profile,
    bench_tower_queries,
    bench_dijkstra,
    bench_simplex,
    bench_scoring_kernel,
    bench_incremental_vs_full_rescore,
    bench_failure_sweep
);
criterion_main!(benches);
