//! Record the design-engine baseline: incremental delta-scoring vs full
//! rescoring, per greedy round and end to end, at n ∈ {30, 60, 120}.
//!
//! Writes `BENCH_design.json` (or the path given as the first non-flag
//! argument) with wall-clock medians and the speedup ratios, and asserts
//! along the way that both engines select identical designs. All
//! measurements are serial (`parallel: false`) so the recorded baseline does
//! not depend on the machine's core count.
//!
//! Output schema v4. v2 added the kernel costs and the `full_scale` object;
//! since v3 the `full_scale` entry has a per-stage `stage_profile` of the pool
//! build (hop sweep / attach / search / extract), the sharded parallel
//! build time (`build_pruned_parallel_ms`, asserted to emit the identical
//! pool), the count of zero-attached sites, and the speedup over the
//! schema-2 recorded baseline (`prior_build_pruned_ms`); `--tiny` emits the
//! miniature scenario's `stage_profile` at the top level so CI can assert
//! the schema. Since the hop-sweep cascade the `stage_profile` also carries
//! a `hop_sweep` object — the count of samples each tier decided and the
//! envelope cells filled (`HopSweepStats`) — and `full_scale` states the
//! runner's `nproc`; both are additions, every schema-3 key keeps its
//! meaning. Schema 4 adds a `swap_polish` object — the polish's wall-clock
//! and its `SwapPolishStats` work counters from `Designer::cisp_profiled` —
//! to `full_scale` and, for the miniature scenario, to the top level of
//! `--tiny`. As before, the pruned pool is asserted bit-identical to the
//! oracle-filtered unpruned pool and both scenarios' selected link
//! sequences asserted identical, *before* anything is timed.
//!
//! Run with: `cargo run --release --bin bench_design_baseline [-- PATH]
//! [--tiny | --full]`. `--tiny` is the CI smoke mode (n = 30 plus the
//! miniature-scenario pruning parity check); `--full` appends the
//! paper-scale entry to the default sizes.

use std::sync::RwLock;
use std::time::Instant;

use cisp_bench::{synthetic_design_input, Scale};
use cisp_core::design::{
    score_candidates, DesignConfig, DesignOutcome, Designer, ScoringEngine, SwapPolishStats,
    AUTO_FULL_RESCORE_MAX_POOL,
};
use cisp_core::engine::{RoundUpdate, ScoreContext, ShardState};
use cisp_core::scenario::{PoolBuildProfile, Scenario, ScenarioConfig};
use cisp_core::topology::{mean_stretch_with_link, mean_stretch_with_link_compact, ScoringWeights};
use cisp_data::towers::TowerRegistryConfig;
use cisp_graph::{improve_with_link_tracked, ImprovedPairs};

/// Median wall-clock milliseconds of `f` over enough repetitions to be
/// stable (at least 3, more for sub-100ms bodies).
fn median_ms(mut f: impl FnMut()) -> f64 {
    let probe = Instant::now();
    f();
    let first_ms = probe.elapsed().as_secs_f64() * 1e3;
    let reps = if first_ms < 1.0 {
        25
    } else if first_ms < 100.0 {
        7
    } else {
        3
    };
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

struct SizeReport {
    n: usize,
    pool: usize,
    round_full_rescore_ms: f64,
    round_incremental_ms: f64,
    greedy_full_rescore_ms: f64,
    greedy_incremental_ms: f64,
    selected_links: usize,
    kernel_scalar_ns_per_pair: f64,
    kernel_compact_ns_per_pair: f64,
    repair_row_skip_ratio: f64,
}

fn measure(n: usize) -> SizeReport {
    let input = synthetic_design_input(n);
    let pool = input.useful_candidates();
    let budget = (4 * n) as f64;
    let incremental_config = DesignConfig {
        parallel: false,
        engine: ScoringEngine::Incremental,
        ..DesignConfig::default()
    };
    let full_config = DesignConfig {
        engine: ScoringEngine::FullRescore,
        ..incremental_config
    };

    // --- Per-round inner loop: pause the real greedy mid-run — warm the
    // topology with its first selections, then measure the round that
    // accepts the next one.
    let trajectory = Designer::with_config(&input, incremental_config)
        .greedy(budget)
        .selected;
    assert!(trajectory.len() >= 2, "trajectory too short at n = {n}");
    let split = trajectory.len() * 2 / 3;
    let accepted = trajectory[split];
    let accepted_pos = pool.iter().position(|&idx| idx == accepted).unwrap();
    let mut topology = input.empty_topology();
    for &idx in &trajectory[..split] {
        topology.add_mw_link(input.candidates[idx].clone());
    }
    let mut after = topology.clone();
    after.add_mw_link(input.candidates[accepted].clone());
    let round_full_rescore_ms =
        median_ms(|| drop(score_candidates(&after, &input.candidates, &pool, false)));

    // --- Kernel cost per scored pair: one sweep of the whole pool against
    // the warm matrix with each kernel, normalised by pool × pair count.
    let pair_evals = (pool.len() * n * (n - 1) / 2) as f64;
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
    let kernel_scalar_ns_per_pair = median_ms(|| {
        let mut acc = 0.0;
        for &idx in &pool {
            let l = &input.candidates[idx];
            acc += mean_stretch_with_link(
                topology.effective_matrix(),
                topology.geodesic_matrix(),
                topology.traffic(),
                l.site_a,
                l.site_b,
                l.mw_length_km,
            );
        }
        std::hint::black_box(acc);
    }) * 1e6
        / pair_evals;
    let kernel_compact_ns_per_pair = median_ms(|| {
        let mut acc = 0.0;
        for &idx in &pool {
            let l = &input.candidates[idx];
            acc += mean_stretch_with_link_compact(
                topology.effective_matrix(),
                &sw,
                l.site_a,
                l.site_b,
                l.mw_length_km,
            );
        }
        std::hint::black_box(acc);
    }) * 1e6
        / pair_evals;

    // --- One incremental repair round, on the same warm state.
    let matrix = RwLock::new(topology.effective_matrix().clone());
    let ctx = ScoreContext {
        candidates: &input.candidates,
        pool: &pool,
        geodesic: topology.geodesic_matrix(),
        traffic: topology.traffic(),
        matrix: &matrix,
        sw: Some(&sw),
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
    let round_incremental_ms = median_ms(|| {
        let mut shard = state.clone();
        shard.apply(&ctx, &update);
    });
    let repair_row_skip_ratio = {
        let mut probe = state.clone();
        probe.apply(&ctx, &update);
        let stats = probe.stats();
        if stats.rows_affected == 0 {
            0.0
        } else {
            stats.rows_skipped as f64 / stats.rows_affected as f64
        }
    };

    // --- End-to-end greedy, both engines, serial.
    let incremental = Designer::with_config(&input, incremental_config).greedy(budget);
    let full = Designer::with_config(&input, full_config).greedy(budget);
    assert_eq!(
        incremental.selected, full.selected,
        "engines diverged at n = {n}"
    );
    let greedy_incremental_ms =
        median_ms(|| drop(Designer::with_config(&input, incremental_config).greedy(budget)));
    let greedy_full_rescore_ms =
        median_ms(|| drop(Designer::with_config(&input, full_config).greedy(budget)));

    SizeReport {
        n,
        pool: pool.len(),
        round_full_rescore_ms,
        round_incremental_ms,
        greedy_full_rescore_ms,
        greedy_incremental_ms,
        selected_links: incremental.selected.len(),
        kernel_scalar_ns_per_pair,
        kernel_compact_ns_per_pair,
        repair_row_skip_ratio,
    }
}

/// Selected links as physical `(site_a, site_b, length)` tuples — the two
/// scenarios' candidate indices differ (the pruned pool omits useless
/// links), so index sequences are not comparable but link sequences are.
fn selected_link_keys(scenario: &Scenario, outcome: &DesignOutcome) -> Vec<(usize, usize, f64)> {
    outcome
        .selected
        .iter()
        .map(|&i| {
            let l = &scenario.design_input().candidates[i];
            (l.site_a, l.site_b, l.mw_length_km)
        })
        .collect()
}

/// Assert that `pruned`'s candidate pool is exactly the oracle-surviving
/// subset of `unpruned`'s, bit-identical link by link, and that both
/// scenarios select identical link sequences at `budget`.
fn assert_pruning_parity(pruned: &Scenario, unpruned: &Scenario, budget: f64) {
    let useful = unpruned.design_input().useful_candidates();
    assert_eq!(
        pruned.design_input().candidates.len(),
        useful.len(),
        "pruned pool size mismatch"
    );
    for (p, &u) in pruned.design_input().candidates.iter().zip(&useful) {
        assert_eq!(
            p,
            &unpruned.design_input().candidates[u],
            "pruned pool diverged from the oracle-filtered unpruned pool"
        );
    }
    let a = pruned.design(budget);
    let b = unpruned.design(budget);
    assert_eq!(
        selected_link_keys(pruned, &a),
        selected_link_keys(unpruned, &b),
        "pruned and unpruned scenarios selected different links"
    );
    assert!(
        (a.mean_stretch - b.mean_stretch).abs() == 0.0,
        "pruned and unpruned scenarios reached different stretch"
    );
}

/// The schema-2 recorded serial pool-build time (PR 8's `BENCH_design.json`,
/// same scenario and seed) — the baseline the CSR-core rebuild is measured
/// against.
const PRIOR_BUILD_PRUNED_MS: f64 = 98_706.5;

struct FullScaleReport {
    sites: usize,
    towers: usize,
    pool: usize,
    budget: f64,
    build_pruned_ms: f64,
    build_unpruned_ms: f64,
    build_pruned_parallel_ms: f64,
    profile: PoolBuildProfile,
    zero_attached_sites: usize,
    generation_prune_ratio: f64,
    pairs_total: u64,
    pairs_bounded_out: u64,
    design_ms: f64,
    greedy_ms: f64,
    greedy_rounds: usize,
    greedy_round_ms: f64,
    selected_links: usize,
    mean_stretch: f64,
    total_towers: usize,
    swap_polish: SwapPolishStats,
}

/// The paper-scale US entry: every quantity measured once (this is the
/// budgeted mode — a full build already takes long enough that medians
/// would triple the cost for little gain on a quiet runner). Builds are
/// timed serial (`pool_workers = 1`) so the recorded numbers don't depend
/// on the runner's core count; the sharded build is timed separately and
/// asserted to emit the identical pool.
fn measure_full_scale() -> FullScaleReport {
    let seed = 42;
    let mut config = ScenarioConfig::us_paper(seed);
    config.towers = TowerRegistryConfig {
        raw_count: Scale::Full.raw_towers(),
        ..TowerRegistryConfig::default()
    };
    config.pool_workers = 1;
    let t = Instant::now();
    let pruned = Scenario::build(&config);
    let build_pruned_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut unpruned_config = config.clone();
    unpruned_config.prune_candidates = false;
    let t = Instant::now();
    let unpruned = Scenario::build(&unpruned_config);
    let build_unpruned_ms = t.elapsed().as_secs_f64() * 1e3;

    let budget = Scale::Full.us_budget_towers();
    // Exactness first, timing second.
    assert_pruning_parity(&pruned, &unpruned, budget);
    let stats = pruned.pool_stats().expect("pruned build records stats");

    // The sharded build must emit the bit-identical pool.
    let mut parallel_config = config.clone();
    parallel_config.pool_workers = 0;
    let t = Instant::now();
    let parallel = Scenario::build(&parallel_config);
    let build_pruned_parallel_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        parallel.design_input().candidates,
        pruned.design_input().candidates,
        "sharded pool build diverged from the serial pool"
    );
    assert_eq!(parallel.pool_stats(), pruned.pool_stats());

    let t = Instant::now();
    let greedy = pruned.design_greedy(budget);
    let greedy_ms = t.elapsed().as_secs_f64() * 1e3;
    // Rounds = one scoring scan per accepted link plus the final scan that
    // finds nothing above `min_gain`.
    let greedy_rounds = greedy.selected.len() + 1;
    let t = Instant::now();
    let (designed, swap_polish) = design_profiled(&pruned, budget);
    let design_ms = t.elapsed().as_secs_f64() * 1e3;

    FullScaleReport {
        sites: pruned.cities().len(),
        towers: pruned.towers().len(),
        pool: pruned.design_input().candidates.len(),
        budget,
        build_pruned_ms,
        build_unpruned_ms,
        build_pruned_parallel_ms,
        profile: pruned.pool_profile(),
        zero_attached_sites: pruned.attachment_report().zero_attached().len(),
        generation_prune_ratio: stats.generation_prune_ratio(),
        pairs_total: stats.pairs_total,
        pairs_bounded_out: stats.bucket_pruned + stats.pair_pruned,
        design_ms,
        greedy_ms,
        greedy_rounds,
        greedy_round_ms: greedy_ms / greedy_rounds as f64,
        selected_links: designed.selected.len(),
        mean_stretch: designed.mean_stretch,
        total_towers: designed.total_towers,
        swap_polish,
    }
}

/// `scenario.design(budget)` with the swap polish's counters.
fn design_profiled(scenario: &Scenario, budget: f64) -> (DesignOutcome, SwapPolishStats) {
    Designer::with_config(scenario.design_input(), scenario.config().design).cisp_profiled(budget)
}

/// Render a [`SwapPolishStats`] as a JSON object at `indent` spaces.
fn swap_polish_entry(s: &SwapPolishStats, indent: usize) -> String {
    let pad = " ".repeat(indent);
    format!(
        concat!(
            "{{\n",
            "{pad}  \"ms\": {:.1},\n",
            "{pad}  \"passes\": {},\n",
            "{pad}  \"swaps_applied\": {},\n",
            "{pad}  \"out_links\": {},\n",
            "{pad}  \"trials_feasible\": {},\n",
            "{pad}  \"trials_scored\": {},\n",
            "{pad}  \"trials_bounded_out\": {},\n",
            "{pad}  \"improve_sweeps\": {}\n",
            "{pad}}}"
        ),
        s.wall_ms,
        s.passes,
        s.swaps_applied,
        s.out_links,
        s.trials_feasible,
        s.trials_scored,
        s.trials_bounded_out,
        s.improve_sweeps,
        pad = pad,
    )
}

fn size_entry(r: &SizeReport) -> String {
    format!(
        concat!(
            "    {{\n",
            "      \"n\": {},\n",
            "      \"pool_candidates\": {},\n",
            "      \"selected_links\": {},\n",
            "      \"round_full_rescore_ms\": {:.4},\n",
            "      \"round_incremental_ms\": {:.4},\n",
            "      \"round_speedup\": {:.2},\n",
            "      \"greedy_full_rescore_ms\": {:.2},\n",
            "      \"greedy_incremental_ms\": {:.2},\n",
            "      \"greedy_speedup\": {:.2},\n",
            "      \"kernel_scalar_ns_per_pair\": {:.3},\n",
            "      \"kernel_compact_ns_per_pair\": {:.3},\n",
            "      \"repair_row_skip_ratio\": {:.4}\n",
            "    }}"
        ),
        r.n,
        r.pool,
        r.selected_links,
        r.round_full_rescore_ms,
        r.round_incremental_ms,
        r.round_full_rescore_ms / r.round_incremental_ms,
        r.greedy_full_rescore_ms,
        r.greedy_incremental_ms,
        r.greedy_full_rescore_ms / r.greedy_incremental_ms,
        r.kernel_scalar_ns_per_pair,
        r.kernel_compact_ns_per_pair,
        r.repair_row_skip_ratio,
    )
}

/// Render a [`PoolBuildProfile`] as a JSON object at `indent` spaces:
/// stage wall-clock, then the count of hop-sweep samples each cascade tier
/// decided (so where the sweep's time went is a count, not an inference).
fn stage_profile_entry(p: &PoolBuildProfile, indent: usize) -> String {
    let pad = " ".repeat(indent);
    let sweep = &p.hop_sweep;
    format!(
        concat!(
            "{{\n",
            "{pad}  \"hop_sweep_ms\": {:.1},\n",
            "{pad}  \"attach_ms\": {:.1},\n",
            "{pad}  \"search_ms\": {:.1},\n",
            "{pad}  \"extract_ms\": {:.1},\n",
            "{pad}  \"total_ms\": {:.1},\n",
            "{pad}  \"hop_sweep\": {{\n",
            "{pad}    \"samples\": {},\n",
            "{pad}    \"by_global_bound\": {},\n",
            "{pad}    \"by_cell_bound\": {},\n",
            "{pad}    \"elevation_only\": {},\n",
            "{pad}    \"exact\": {},\n",
            "{pad}    \"cells_filled\": {},\n",
            "{pad}    \"bound_share\": {:.4}\n",
            "{pad}  }}\n",
            "{pad}}}"
        ),
        p.hop_sweep_ms,
        p.attach_ms,
        p.search_ms,
        p.extract_ms,
        p.total_ms,
        sweep.samples,
        sweep.by_global_bound,
        sweep.by_cell_bound,
        sweep.elevation_only,
        sweep.exact,
        sweep.cells_filled,
        sweep.bound_share(),
        pad = pad,
    )
}

fn full_scale_entry(r: &FullScaleReport) -> String {
    format!(
        concat!(
            "  \"full_scale\": {{\n",
            "    \"scenario\": \"us_paper(42), {} sites, {} towers\",\n",
            "    \"nproc\": {},\n",
            "    \"budget_towers\": {},\n",
            "    \"pool_candidates\": {},\n",
            "    \"build_pruned_ms\": {:.1},\n",
            "    \"build_unpruned_ms\": {:.1},\n",
            "    \"build_pruned_parallel_ms\": {:.1},\n",
            "    \"prior_build_pruned_ms\": {:.1},\n",
            "    \"build_speedup_vs_prior\": {:.2},\n",
            "    \"stage_profile\": {},\n",
            "    \"zero_attached_sites\": {},\n",
            "    \"generation_prune_ratio\": {:.4},\n",
            "    \"pairs_total\": {},\n",
            "    \"pairs_bounded_out\": {},\n",
            "    \"greedy_ms\": {:.1},\n",
            "    \"greedy_rounds\": {},\n",
            "    \"greedy_round_ms\": {:.2},\n",
            "    \"cisp_design_ms\": {:.1},\n",
            "    \"swap_polish\": {},\n",
            "    \"selected_links\": {},\n",
            "    \"total_towers\": {},\n",
            "    \"mean_stretch\": {:.6},\n",
            "    \"pruning_parity\": \"pruned pool == oracle-filtered unpruned pool == sharded pool; identical selections\"\n",
            "  }},\n"
        ),
        r.sites,
        r.towers,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        r.budget,
        r.pool,
        r.build_pruned_ms,
        r.build_unpruned_ms,
        r.build_pruned_parallel_ms,
        PRIOR_BUILD_PRUNED_MS,
        PRIOR_BUILD_PRUNED_MS / r.build_pruned_ms,
        stage_profile_entry(&r.profile, 4),
        r.zero_attached_sites,
        r.generation_prune_ratio,
        r.pairs_total,
        r.pairs_bounded_out,
        r.greedy_ms,
        r.greedy_rounds,
        r.greedy_round_ms,
        r.design_ms,
        swap_polish_entry(&r.swap_polish, 4),
        r.selected_links,
        r.total_towers,
        r.mean_stretch,
    )
}

fn main() {
    let out_path = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .unwrap_or_else(|| "BENCH_design.json".to_string());
    let scale = Scale::from_args();

    let mut tiny_profile = String::new();
    if scale == Scale::Tiny {
        // CI smoke: the miniature scenario's pruning parity, asserted end
        // to end, plus the smallest synthetic measurement. Also checks the
        // sharded build emits the identical pool and exports the stage
        // profile so CI can assert the schema.
        let pruned = Scenario::build(&ScenarioConfig::tiny_test());
        let mut unpruned_config = ScenarioConfig::tiny_test();
        unpruned_config.prune_candidates = false;
        let unpruned = Scenario::build(&unpruned_config);
        assert_pruning_parity(&pruned, &unpruned, 250.0);
        let mut serial_config = ScenarioConfig::tiny_test();
        serial_config.pool_workers = 1;
        let serial = Scenario::build(&serial_config);
        assert_eq!(
            serial.design_input().candidates,
            pruned.design_input().candidates,
            "sharded pool build diverged from the serial pool"
        );
        let (_, swap_polish) = design_profiled(&pruned, 250.0);
        tiny_profile = format!(
            "  \"stage_profile\": {},\n  \"swap_polish\": {},\n",
            stage_profile_entry(&serial.pool_profile(), 2),
            swap_polish_entry(&swap_polish, 2)
        );
        println!("tiny-scenario pruning + shard parity: ok");
    }

    let sizes: &[usize] = if scale == Scale::Tiny {
        &[30]
    } else {
        &[30, 60, 120]
    };
    let mut entries = Vec::new();
    for &n in sizes {
        let r = measure(n);
        println!(
            "n = {:3}: round {:9.3} ms -> {:7.3} ms ({:5.1}x), greedy {:9.1} ms -> {:8.1} ms ({:4.1}x), {} links, kernel {:.2} -> {:.2} ns/pair, row-skip {:.1}%",
            r.n,
            r.round_full_rescore_ms,
            r.round_incremental_ms,
            r.round_full_rescore_ms / r.round_incremental_ms,
            r.greedy_full_rescore_ms,
            r.greedy_incremental_ms,
            r.greedy_full_rescore_ms / r.greedy_incremental_ms,
            r.selected_links,
            r.kernel_scalar_ns_per_pair,
            r.kernel_compact_ns_per_pair,
            r.repair_row_skip_ratio * 100.0,
        );
        entries.push(size_entry(&r));
    }

    let full_scale = if scale == Scale::Full {
        let r = measure_full_scale();
        println!(
            "full scale: {} sites, {} towers, pool {} ({:.1}% of pairs bounded out), build {:.0} ms serial / {:.0} ms sharded ({:.1}x vs prior {:.0} ms; unpruned {:.0} ms), greedy {:.0} ms ({} rounds, {:.1} ms/round), cisp {:.0} ms (swap polish {:.0} ms, {} of {} trials scored, {} sweeps), {} links, stretch {:.4}",
            r.sites,
            r.towers,
            r.pool,
            r.generation_prune_ratio * 100.0,
            r.build_pruned_ms,
            r.build_pruned_parallel_ms,
            PRIOR_BUILD_PRUNED_MS / r.build_pruned_ms,
            PRIOR_BUILD_PRUNED_MS,
            r.build_unpruned_ms,
            r.greedy_ms,
            r.greedy_rounds,
            r.greedy_round_ms,
            r.design_ms,
            r.swap_polish.wall_ms,
            r.swap_polish.trials_scored,
            r.swap_polish.trials_feasible,
            r.swap_polish.improve_sweeps,
            r.selected_links,
            r.mean_stretch,
        );
        full_scale_entry(&r)
    } else {
        String::new()
    };

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"design greedy: incremental delta-scoring vs full rescore\",\n",
            "  \"schema\": 4,\n",
            "  \"input\": \"synthetic_design_input (all-pairs candidates), serial scoring\",\n",
            "  \"command\": \"cargo run --release --bin bench_design_baseline -- [--tiny|--full]\",\n",
            "  \"auto_engine_pool_threshold\": {},\n",
            "{}",
            "{}",
            "  \"sizes\": [\n{}\n  ]\n",
            "}}\n"
        ),
        AUTO_FULL_RESCORE_MAX_POOL,
        tiny_profile,
        full_scale,
        entries.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write baseline file");
    println!("wrote {out_path}");
}
