//! The figures, one function each, and the command line that picks them.
//!
//! Each function prints what the figure plots, at its [`Context`]'s scale,
//! opening with a `# … reproduction — scale: …` header line. [`FIGURES`]
//! lists them in the paper's order under their command-line names.

use std::time::Instant;

use cisp_apps::gaming::{frame_time_sweep, GameModel};
use cisp_apps::value::cost_benefit_table;
use cisp_apps::web::{replay, PageCorpus, ReplayScenario};
use cisp_core::cost::CostModel;
use cisp_core::design::{DesignInput, DesignOutcome, Designer};
use cisp_core::economics::{rank_upgrades, UpgradeConfig};
use cisp_core::evaluate::{lower, lower_classified, EvaluateConfig};
use cisp_core::exact::exact_subset_search;
use cisp_core::hops::HopConfig;
use cisp_core::links::LinkBuilder;
use cisp_core::scenario::{population_product_traffic, Scenario};
use cisp_core::topology::HybridTopology;
use cisp_core::traffic::{perturbed_populations, TrafficComponents, TrafficMix};
use cisp_data::cities::Region;
use cisp_data::datacenters::dc_proxy_sites;
use cisp_geo::geodesic;
use cisp_graph::disjoint::iterative_disjoint_paths;
use cisp_graph::DistMatrix;
use cisp_netsim::flows::ArrivalProcess;
use cisp_netsim::sim::SimConfig;
use cisp_netsim::tcp::{run_speed_mismatch, SpeedMismatchConfig};
use cisp_weather::failures::FailureConfig;
use cisp_weather::reroute::{weather_year_analysis, WeatherSeries};
use cisp_weather::storms::{StormYear, StormYearConfig};

use crate::{cdf_points, fmt, print_series, print_table, Context, Scale};

/// A figure's command-line name and the function that prints it.
pub(crate) type Figure = (&'static str, fn(&Context));

/// Every figure, in the paper's order.
pub const FIGURES: [Figure; 15] = [
    ("fig02", fig02_scaling),
    ("fig03", fig03_us_topology),
    ("fig04a", fig04a_stretch_vs_budget),
    ("fig04b", fig04b_disjoint_paths),
    ("fig04c", fig04c_cost_per_gb),
    ("fig05", fig05_perturbation),
    ("fig06", fig06_speed_mismatch),
    ("fig07", fig07_weather),
    ("fig08", fig08_europe),
    ("fig09", fig09_traffic_models),
    ("fig10", fig10_tower_constraints),
    ("fig11", fig11_traffic_mix),
    ("fig12", fig12_gaming),
    ("fig13", fig13_web),
    ("sec8", sec8_cost_benefit),
];

/// The command line's synopsis.
pub fn usage() -> String {
    let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    format!("usage: figures [--tiny|--full] [{}]...", names.join("|"))
}

/// Parse the arguments after the program name: at most one of `--tiny` and
/// `--full` (default: full), then the figures to run in the order given
/// (default: all of [`FIGURES`]). Anything else is an error.
pub fn parse_args<S: AsRef<str>>(args: &[S]) -> Result<(Scale, Vec<Figure>), String> {
    let mut scale = None;
    let mut figures = Vec::new();
    for arg in args.iter().map(AsRef::as_ref) {
        let flag = match arg {
            "--tiny" => Scale::Tiny,
            "--full" => Scale::Full,
            _ if arg.starts_with('-') => return Err(format!("unknown flag `{arg}`")),
            _ => match FIGURES.iter().find(|(name, _)| *name == arg) {
                Some(&figure) => {
                    figures.push(figure);
                    continue;
                }
                None => return Err(format!("unknown figure `{arg}`")),
            },
        };
        if scale.replace(flag).is_some() {
            return Err("more than one scale flag".into());
        }
    }
    if figures.is_empty() {
        figures = FIGURES.to_vec();
    }
    Ok((scale.unwrap_or(Scale::Full), figures))
}

/// Fig. 2 — design-method scalability and optimality.
///
/// (a) Wall-clock time of the cISP heuristic vs the exact solver as the
///     number of cities grows (the paper's exact ILP, run in Gurobi, fails
///     beyond 50 cities; our exact solver, a combinatorial branch-and-bound
///     over link subsets, hits its wall earlier, which shifts the curve but
///     not its exponential shape).
/// (b) Mean stretch of the heuristic vs the exact optimum where the exact
///     solver finishes: the paper reports agreement to two decimal places.
///
/// Output: one row per city count with both runtimes and both stretches.
pub(crate) fn fig02_scaling(ctx: &Context) {
    ctx.header("Fig. 2");

    let (heuristic_sizes, exact_sizes): (Vec<usize>, Vec<usize>) = match ctx.scale {
        Scale::Tiny => (vec![4, 6, 8, 10], vec![4, 6, 8]),
        Scale::Full => (vec![10, 20, 40, 60, 80, 100, 120], vec![5, 8, 10, 12, 14]),
    };

    // One scenario at the largest size; subsets reuse its candidate links so
    // all sizes see consistent inputs (as the paper's budget-∝-cities setup).
    let scenario = ctx.us();
    let full_input = scenario.design_input();

    let mut rows = Vec::new();
    for &n in &heuristic_sizes {
        let n = n.min(scenario.cities().len());
        // Restrict the design input to the first n sites.
        let mut input = full_input.clone();
        input.sites.truncate(n);
        input.traffic = input.traffic.truncated(n);
        input.fiber_km = input.fiber_km.truncated(n);
        input.candidates.retain(|l| l.site_a < n && l.site_b < n);

        let budget = 25.0 * n as f64; // budget proportional to city count

        let start = Instant::now();
        let heuristic = Designer::new(&input).cisp(budget);
        let heuristic_time = start.elapsed().as_secs_f64();

        let (exact_time, exact_stretch) = if exact_sizes.contains(&n) {
            let start = Instant::now();
            match exact_subset_search(&input, budget, 2_000_000) {
                Ok((outcome, nodes)) => {
                    let t = start.elapsed().as_secs_f64();
                    println!("# exact search explored {nodes} nodes at n = {n}");
                    (Some(t), Some(outcome.mean_stretch))
                }
                Err(_) => (None, None),
            }
        } else {
            (None, None)
        };

        rows.push(vec![
            n.to_string(),
            fmt(heuristic_time, 3),
            exact_time.map(|t| fmt(t, 3)).unwrap_or_else(|| "-".into()),
            fmt(heuristic.mean_stretch, 4),
            exact_stretch
                .map(|s| fmt(s, 4))
                .unwrap_or_else(|| "-".into()),
        ]);
    }

    print_table(
        "Fig. 2(a)+(b): runtime (s) and mean stretch, cISP heuristic vs exact",
        &[
            "cities",
            "cisp_time_s",
            "exact_time_s",
            "cisp_stretch",
            "exact_stretch",
        ],
        &rows,
    );
}

/// Fig. 3 — the headline US topology.
///
/// Designs the US network at the scale's tower budget, provisions it for
/// 100 Gbps, and prints the numbers the paper reports for its Fig. 3 network:
/// mean stretch (paper: 1.05×), the breakdown of built links by how many
/// additional parallel tower series they need (paper: 1660 hops need none,
/// 552 need one, 86 need two), and the amortised cost per GB (paper: $0.81).
/// A last table says how the pipeline got there: what decided the hop
/// sweep's samples, how many sites have no tower to attach to, how the
/// site pairs were resolved and how much work the swap polish did.
pub(crate) fn fig03_us_topology(ctx: &Context) {
    ctx.header("Fig. 3");

    let scenario = ctx.us();
    let budget = ctx.scale.us_budget_towers();
    // `Scenario::design`, keeping the swap polish's counters.
    let design = ctx.us_design();
    let (outcome, polish) = &*design;
    let provisioned = scenario.provision(outcome, 100.0, &CostModel::default());

    let mut rows = design_rows(&scenario, budget, outcome);
    let mw_share = provisioned.augmentation.mw_traffic_fraction;
    rows.push(row("MW traffic fraction", fmt(mw_share, 3)));
    rows.push(row(
        "cost per GB at 100 Gbps ($)",
        fmt(provisioned.cost_per_gb, 2),
    ));
    print_table("Fig. 3: designed US topology", &["metric", "value"], &rows);

    // Link classes by extra parallel series (the blue/green/red classes of
    // the paper's map).
    let hist = provisioned.augmentation.extra_series_histogram();
    let rows: Vec<Vec<String>> = hist
        .iter()
        .enumerate()
        .map(|(extra, count)| vec![extra.to_string(), count.to_string()])
        .collect();
    print_table(
        "Fig. 3: links by number of additional tower series (100 Gbps)",
        &["extra_series", "links"],
        &rows,
    );

    // The built links themselves (the map's edge list).
    let mut link_rows = link_rows(&scenario, outcome);
    for (row, link) in link_rows.iter_mut().zip(&provisioned.augmentation.links) {
        row.push(link.series.to_string());
    }
    print_table(
        "Fig. 3: built MW links",
        &["from", "to", "mw_km", "towers", "series"],
        &link_rows,
    );

    let sweep = scenario.hop_sweep_stats();
    let pool = scenario.pool_stats();
    let zero_attached = scenario.attachment_report().zero_attached().len();
    let count = |name: &str, v: u64| row(name, v.to_string());
    print_table(
        "Fig. 3: pipeline counters",
        &["counter", "value"],
        &[
            count("hop sweep: samples", sweep.samples),
            count("hop sweep: by global bound", sweep.by_global_bound),
            count("hop sweep: by cell bound", sweep.by_cell_bound),
            count("hop sweep: by fine cell bound", sweep.by_fine_bound),
            count("hop sweep: elevation only", sweep.elevation_only),
            count("hop sweep: exact", sweep.exact),
            count("hop sweep: cells filled", sweep.cells_filled),
            count("hop sweep: fine cells filled", sweep.fine_cells_filled),
            count("hop sweep: exact locates", sweep.exact_locates),
            count("pool build: zero-attached sites", zero_attached as u64),
            count("pool: pairs", pool.pairs_total),
            count("pool: unreachable", pool.unreachable),
            count("pool: oracle dropped", pool.oracle_dropped),
            count("pool: emitted", pool.emitted),
            count("swap polish: passes", polish.passes),
            count("swap polish: swaps applied", polish.swaps_applied),
            count("swap polish: trials feasible", polish.trials_feasible),
            count("swap polish: trials scored", polish.trials_scored),
            count("swap polish: trials bounded out", polish.trials_bounded_out),
            count("swap polish: improve sweeps", polish.improve_sweeps),
        ],
    );
}

/// A `metric, value` table row.
fn row(name: &str, value: String) -> Vec<String> {
    vec![name.to_string(), value]
}

/// The first rows of a designed network's summary table (Figs. 3 and 8).
fn design_rows(scenario: &Scenario, budget: f64, outcome: &DesignOutcome) -> Vec<Vec<String>> {
    vec![
        row("sites", scenario.cities().len().to_string()),
        row(
            "candidate MW links",
            scenario.design_input().candidates.len().to_string(),
        ),
        row("tower budget", fmt(budget, 0)),
        row("towers used", outcome.total_towers.to_string()),
        row("MW links built", outcome.selected.len().to_string()),
        row("mean stretch", fmt(outcome.mean_stretch, 3)),
    ]
}

/// One row per built MW link: its end sites' names, its length in km and
/// its towers (Figs. 3 and 8, the map's edge list).
fn link_rows(scenario: &Scenario, outcome: &DesignOutcome) -> Vec<Vec<String>> {
    let name = |site: usize| scenario.cities()[site].name.clone();
    let links = outcome.topology.mw_links().iter();
    links
        .map(|l| {
            vec![
                name(l.site_a),
                name(l.site_b),
                fmt(l.mw_length_km, 0),
                l.tower_count.to_string(),
            ]
        })
        .collect()
}

/// Fig. 4(a) — mean stretch vs tower budget, for 100 km and 70 km hops.
///
/// A single greedy design run at the largest budget produces the whole curve:
/// every greedy step records the cumulative tower cost and the mean stretch
/// at that point. Two curves are produced, one per maximum hop length.
pub(crate) fn fig04a_stretch_vs_budget(ctx: &Context) {
    ctx.header("Fig. 4(a)");

    let max_budget = ctx.scale.us_budget_towers() * 2.5;
    for &range_km in &[100.0, 70.0] {
        let scenario = ctx.scenario(Region::UnitedStates, HopConfig::restricted(range_km, 1.0));
        let outcome = scenario.design_greedy(max_budget);

        let mut points = vec![(0.0, scenario.design_input().empty_topology().mean_stretch())];
        points.extend(
            outcome
                .history
                .iter()
                .map(|s| (s.cumulative_towers as f64, s.mean_stretch)),
        );
        print_series(
            &format!("stretch vs budget, {range_km:.0} km hops"),
            &points,
        );
    }
}

/// Fig. 4(b) — stretch of successive tower-disjoint microwave paths.
///
/// The paper takes its longest built link (Illinois–California, ~2700 km),
/// repeatedly finds the shortest purely-microwave tower path, removes the
/// towers it used, and repeats 20 times; even the 20th path has stretch ~1.15,
/// far below fiber's 1.75. Here we pick the longest candidate link of the
/// scenario and run the same iteration over the feasible-hop graph.
pub(crate) fn fig04b_disjoint_paths(ctx: &Context) {
    ctx.header("Fig. 4(b)");

    let scenario = ctx.us();
    let input = scenario.design_input();

    // Longest candidate link by geodesic distance between its endpoints.
    let longest = input
        .candidates
        .iter()
        .max_by(|a, b| {
            let da = geodesic::distance_km(input.sites[a.site_a], input.sites[a.site_b]);
            let db = geodesic::distance_km(input.sites[b.site_a], input.sites[b.site_b]);
            da.total_cmp(&db)
        })
        .expect("scenario has candidate links");
    let a = longest.site_a;
    let b = longest.site_b;
    let geo = geodesic::distance_km(input.sites[a], input.sites[b]);
    println!(
        "# longest link: {} – {} ({:.0} km geodesic)",
        scenario.cities()[a].name,
        scenario.cities()[b].name,
        geo
    );

    // Rebuild the tower+site graph (the scenario's own world and parameters),
    // the sweep on every core: its hop list is the same for every width.
    let config = scenario.config();
    let hops = scenario
        .world()
        .hop_feasibility(config.hops)
        .all_feasible_hops_with(0);
    let builder = LinkBuilder::new(&input.sites, scenario.towers(), &hops, config.links);

    let max_paths = 20;
    let result = iterative_disjoint_paths(
        builder.csr_graph(),
        builder.site_node(a),
        builder.site_node(b),
        max_paths,
    );

    let points: Vec<(f64, f64)> = result
        .paths
        .iter()
        .enumerate()
        .map(|(i, p)| ((i + 1) as f64, p.cost / geo))
        .collect();
    print_series("stretch of k-th tower-disjoint MW path", &points);

    let fiber_stretch = input.fiber_km[a][b] / geo;
    println!("# fiber stretch for this pair: {fiber_stretch:.2}");
    println!("# disjoint MW paths found: {}", result.len());
}

/// Fig. 4(c) — cost per GB vs aggregate throughput (city-city traffic).
///
/// One design at the scale's tower budget, provisioned for a sweep of
/// aggregate throughputs; the cost per GB falls as throughput rises because
/// the (fixed) latency-driven build is amortised over more traffic, then
/// flattens once bandwidth augmentation dominates. The paper sweeps up to
/// 1 Tbps and reports $0.81/GB at 100 Gbps.
pub(crate) fn fig04c_cost_per_gb(ctx: &Context) {
    ctx.header("Fig. 4(c)");

    let scenario = ctx.us();
    let outcome = &ctx.us_design().0;
    let cost_model = CostModel::default();

    let throughputs: Vec<f64> = match ctx.scale {
        Scale::Tiny => vec![5.0, 10.0, 25.0, 50.0, 100.0],
        Scale::Full => vec![
            5.0, 10.0, 25.0, 50.0, 100.0, 200.0, 300.0, 400.0, 600.0, 800.0, 1000.0,
        ],
    };

    let points: Vec<(f64, f64)> = throughputs
        .iter()
        .map(|&gbps| {
            let provisioned = scenario.provision(outcome, gbps, &cost_model);
            (gbps, provisioned.cost_per_gb)
        })
        .collect();
    print_series("cost per GB ($) vs aggregate throughput (Gbps)", &points);
    println!(
        "# design: {} MW links, {} towers, mean stretch {:.3}",
        outcome.selected.len(),
        outcome.total_towers,
        outcome.mean_stretch
    );
}

/// Fig. 5 — delay and loss under population perturbation.
///
/// The network is designed and provisioned for the nominal population-product
/// matrix; the offered traffic then follows a *perturbed* matrix (each city's
/// population re-weighted by U[1−γ, 1+γ], γ ∈ {0.1, 0.3, 0.5}) at aggregate
/// loads from 10 % to 100 % of the design capacity. The paper finds mean
/// delay moves by < 0.1 ms and loss stays ≈0 up to ~70 % load even with plain
/// shortest-path routing.
pub(crate) fn fig05_perturbation(ctx: &Context) {
    ctx.header("Fig. 5");

    let scenario = ctx.us();
    let outcome = &ctx.us_design().0;
    let loads = [0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 1.0];

    for &gamma in &[0.0, 0.1, 0.3, 0.5] {
        let (cities, label) = if gamma == 0.0 {
            (scenario.cities().to_vec(), "matching TM".to_string())
        } else {
            let perturbed = perturbed_populations(scenario.cities(), gamma, 7);
            (perturbed, format!("gamma = {gamma}"))
        };
        let offered = population_product_traffic(&cities);
        load_sweep(ctx, &outcome.topology, &offered, &loads, 11, &label);
    }
}

/// Simulate `offered` traffic on `topology`, provisioned for the scale's
/// design aggregate, for 0.3 s at each of `loads` (fractions of that
/// aggregate), and print the mean-delay and loss series, titled by `label`.
fn load_sweep(
    ctx: &Context,
    topology: &HybridTopology,
    offered: &DistMatrix,
    loads: &[f64],
    seed: u64,
    label: &str,
) {
    // Design-time aggregate: keep the simulation small enough to run at all
    // scales; the *shape* (flat until ~70 %, then queueing/loss) is what the
    // figures show and it is load-fraction-, not absolute-rate-, driven.
    let design_gbps = match ctx.scale {
        Scale::Tiny => 2.0,
        Scale::Full => 20.0,
    };
    let mut delay_points = Vec::new();
    let mut loss_points = Vec::new();
    for &load in loads {
        // Provisioned for `design_gbps` on the designed-for traffic, offered
        // `load × design_gbps` of this one.
        let lowered = lower(
            topology,
            offered,
            &EvaluateConfig {
                design_aggregate_gbps: design_gbps,
                load_fraction: load,
                sim: SimConfig {
                    duration_s: 0.3,
                    seed,
                    ..SimConfig::default()
                },
                ..EvaluateConfig::default()
            },
        );
        let report = lowered.simulation().run();
        delay_points.push((load * 100.0, report.mean_delay_ms));
        loss_points.push((load * 100.0, report.loss_rate * 100.0));
    }
    print_series(
        &format!("mean delay (ms) vs load %, {label}"),
        &delay_points,
    );
    print_series(&format!("loss (%) vs load %, {label}"), &loss_points);
}

/// Fig. 6 — the speed-mismatch TCP experiment.
///
/// Ten sources send 100 KB TCP flows through a shared cISP ingress to a sink
/// over a 100 Mbps bottleneck, with edge links of 100 Mbps (control) or
/// 10 Gbps (mismatch), with and without pacing. The paper's finding: without
/// pacing the mismatch inflates the ingress queue (especially its 95th
/// percentile); with pacing queueing is back to the control level, and flow
/// completion times are unaffected either way.
pub(crate) fn fig06_speed_mismatch(ctx: &Context) {
    ctx.header("Fig. 6");

    let (runs, duration_s) = match ctx.scale {
        Scale::Tiny => (5, 2.0),
        Scale::Full => (100, 10.0),
    };

    let control: fn(bool, u64) -> SpeedMismatchConfig = SpeedMismatchConfig::control_100mbps;
    let mismatch: fn(bool, u64) -> SpeedMismatchConfig = SpeedMismatchConfig::mismatch_10gbps;
    let cases = [
        ("100M edge", control, false),
        ("10G edge, no pacing", mismatch, false),
        ("10G edge, pacing", mismatch, true),
    ];

    let mut rows = Vec::new();
    for (label, make_config, pacing) in cases {
        // Aggregate the per-run medians/p95s across `runs` seeds, as the
        // paper aggregates over 100 runs.
        let mut med_q = Vec::new();
        let mut p95_q = Vec::new();
        let mut med_fct = Vec::new();
        let mut p95_fct = Vec::new();
        for seed in 0..runs {
            let report = run_speed_mismatch(&SpeedMismatchConfig {
                duration_s,
                ..make_config(pacing, seed as u64 + 1)
            });
            med_q.push(report.median_queue_pkts);
            p95_q.push(report.p95_queue_pkts);
            med_fct.push(report.median_fct_ms);
            p95_fct.push(report.p95_fct_ms);
        }
        let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
        rows.push(vec![
            label.to_string(),
            fmt(mean(&med_q), 1),
            fmt(mean(&p95_q), 1),
            fmt(mean(&med_fct), 1),
            fmt(mean(&p95_fct), 1),
        ]);
    }

    print_table(
        "Fig. 6: ingress queue occupancy (packets) and flow completion time (ms)",
        &[
            "configuration",
            "median_queue",
            "p95_queue",
            "median_fct_ms",
            "p95_fct_ms",
        ],
        &rows,
    );
}

/// Fig. 7 — stretch across city pairs over a year of weather.
///
/// The designed US network is subjected to the synthetic precipitation year;
/// for each daily 30-minute interval the rain-failed links are removed and
/// every pair falls back to its shortest surviving route. Output: the four
/// CDFs the paper plots — best (fair weather), 99th percentile, worst, and
/// fiber-only stretch — over all city pairs.
pub(crate) fn fig07_weather(ctx: &Context) {
    ctx.header("Fig. 7");

    let scenario = ctx.us();
    let outcome = &ctx.us_design().0;

    let days = match ctx.scale {
        Scale::Tiny => 60,
        Scale::Full => 365,
    };
    let year = StormYear::generate(
        scenario.config().seed,
        &StormYearConfig {
            days,
            ..StormYearConfig::us_default()
        },
    );

    let report = weather_year_analysis(&outcome.topology, &year, &FailureConfig::default());
    println!(
        "# intervals: {}, mean failed links per interval: {:.2}",
        report.intervals, report.mean_failed_links
    );
    println!("# failure sweep: {}", report.failure_sweep);
    println!(
        "# {} distinct failure sets, {} one-link closure sweeps",
        report.distinct_failure_sets, report.closure_sweeps
    );

    for (series, label) in [
        (WeatherSeries::Best, "best"),
        (WeatherSeries::P99, "99th percentile"),
        (WeatherSeries::Worst, "worst"),
        (WeatherSeries::FiberOnly, "fiber"),
    ] {
        let sorted = report.sorted_series(series);
        print_series(
            &format!("CDF of stretch over geodesic, {label}"),
            &cdf_points(&sorted),
        );
        println!("# median {label}: {:.3}", report.median(series));
    }
}

/// Fig. 8 — a cISP for Europe (§6.2).
///
/// The same design methodology applied to European cities with population
/// above 300 k, using crowd-sourced-style synthetic towers and the US fiber
/// inflation assumption. The paper reports a network of similar cost (~3 k
/// towers) achieving 1.04× mean stretch at the same 100 Gbps aggregate.
pub(crate) fn fig08_europe(ctx: &Context) {
    ctx.header("Fig. 8");

    let scenario = ctx.scenario(Region::Europe, HopConfig::paper_baseline());
    let budget = ctx.scale.us_budget_towers();
    let outcome = &ctx.design(&scenario, budget).0;
    let provisioned = scenario.provision(outcome, 100.0, &CostModel::default());

    let mut rows = design_rows(&scenario, budget, outcome);
    rows.push(row(
        "cost per GB at 100 Gbps ($)",
        fmt(provisioned.cost_per_gb, 2),
    ));
    print_table(
        "Fig. 8: designed European topology",
        &["metric", "value"],
        &rows,
    );
    print_table(
        "Fig. 8: built MW links",
        &["from", "to", "mw_km", "towers"],
        &link_rows(&scenario, outcome),
    );
}

/// Fig. 9 — cost per GB under different traffic models (§6.3).
///
/// Three deployment scenarios are designed with the same methodology and
/// budget, then provisioned across a throughput sweep:
///
/// * **City–City** — the population-product matrix (the default, and the most
///   expensive because its footprint is the widest);
/// * **DC–DC** — equal traffic between the six Google US data-center sites
///   (represented by the population centers closest to them);
/// * **City–DC** — every city exchanges traffic with its closest data center,
///   proportional to its population.
///
/// All three are `TrafficComponents::new` over the scenario's cities. The
/// paper finds both DC scenarios cost less per GB than City–City.
pub(crate) fn fig09_traffic_models(ctx: &Context) {
    ctx.header("Fig. 9");

    let scenario = ctx.us();
    let base_input = scenario.design_input();
    let dcs = dc_proxy_sites(&base_input.sites);
    println!(
        "# data-center proxy sites: {:?}",
        dcs.iter()
            .map(|&i| scenario.cities()[i].name.clone())
            .collect::<Vec<_>>()
    );

    // The three traffic models over the same site set.
    let TrafficComponents {
        city_city,
        city_dc,
        dc_dc,
    } = TrafficComponents::new(scenario.cities());

    let budget = ctx.scale.us_budget_towers();
    let throughputs: Vec<f64> = vec![5.0, 10.0, 25.0, 50.0, 100.0, 150.0, 200.0];
    let cost_model = CostModel::default();

    for (label, traffic) in [
        ("City-City", city_city),
        ("DC-DC", dc_dc),
        ("City-DC", city_dc),
    ] {
        let input = DesignInput {
            traffic,
            ..base_input.clone()
        };
        let outcome = Designer::new(&input).cisp(budget);
        let points: Vec<(f64, f64)> = throughputs
            .iter()
            .map(|&gbps| {
                let provisioned = scenario.provision(&outcome, gbps, &cost_model);
                (gbps, provisioned.cost_per_gb)
            })
            .collect();
        println!(
            "# {label}: {} links, {} towers, stretch {:.3}",
            outcome.selected.len(),
            outcome.total_towers,
            outcome.mean_stretch
        );
        print_series(&format!("cost per GB ($) vs Gbps, {label}"), &points);
    }
}

/// Cost per GB at 100 Gbps and mean stretch of the US design at the scale's
/// budget under `range_km` hops and `height_fraction` usable tower height.
fn build_and_evaluate(ctx: &Context, range_km: f64, height_fraction: f64) -> (f64, f64) {
    let scenario = ctx.scenario(
        Region::UnitedStates,
        HopConfig::restricted(range_km, height_fraction),
    );
    let outcome = &ctx.design(&scenario, ctx.scale.us_budget_towers()).0;
    let provisioned = scenario.provision(outcome, 100.0, &CostModel::default());
    (provisioned.cost_per_gb, outcome.mean_stretch)
}

/// Fig. 10 — sensitivity to tower height availability and maximum hop range
/// (§6.5).
///
/// The baseline design uses tower tops (usable height fraction 1.0) and a
/// 100 km maximum hop. This experiment re-runs hop feasibility, link
/// construction, design and provisioning under restricted combinations of
/// (range, usable height fraction) and reports the percentage increase in
/// cost per GB and in mean stretch relative to the baseline. The paper's
/// worst combination costs 11 % more and stretches 10 % more.
pub(crate) fn fig10_tower_constraints(ctx: &Context) {
    ctx.header("Fig. 10");

    // (range km, usable height fraction), ordered as in the paper's x-axis.
    let combos: Vec<(f64, f64)> = match ctx.scale {
        Scale::Tiny => vec![(100.0, 0.65), (70.0, 1.0), (60.0, 0.45)],
        Scale::Full => vec![
            (100.0, 0.85),
            (80.0, 1.0),
            (100.0, 0.65),
            (70.0, 1.0),
            (100.0, 0.45),
            (70.0, 0.45),
            (60.0, 1.0),
            (60.0, 0.65),
            (60.0, 0.45),
        ],
    };

    let (base_cost, base_stretch) = build_and_evaluate(ctx, 100.0, 1.0);
    println!("# baseline (100 km, height 1.0): cost/GB ${base_cost:.2}, stretch {base_stretch:.3}");

    let mut rows = Vec::new();
    for &(range, height) in &combos {
        let (cost, stretch) = build_and_evaluate(ctx, range, height);
        rows.push(vec![
            format!("{range:.0}, {height}"),
            fmt((cost / base_cost - 1.0) * 100.0, 1),
            fmt((stretch / base_stretch - 1.0) * 100.0, 1),
            fmt(cost, 2),
            fmt(stretch, 3),
        ]);
    }
    print_table(
        "Fig. 10: % increase vs baseline under (range km, usable height)",
        &[
            "range,height",
            "cost_increase_%",
            "stretch_increase_%",
            "cost_per_gb",
            "stretch",
        ],
        &rows,
    );
}

/// Fig. 11 — delay and loss under traffic-mix mismatch (§6.4).
///
/// The network is designed and provisioned for a 4:3:3 mix of city-city,
/// city-DC and DC-DC traffic; the offered traffic then follows the mixes
/// 4:3:3 (matching), 5:3:3, 4:3:4 and 4:4:3 at aggregate loads from 10 % to
/// 100 % of the design capacity. Each mix is `TrafficMix::matrix` over the
/// three §6.3 models of the scenario's cities. The paper finds less than
/// 0.05 ms of mean delay difference and near-zero loss up to ~70 % load.
pub(crate) fn fig11_traffic_mix(ctx: &Context) {
    ctx.header("Fig. 11");

    let scenario = ctx.us();
    let base = scenario.design_input();
    let components = TrafficComponents::new(scenario.cities());

    // Design for the 4:3:3 mix.
    let input = DesignInput {
        traffic: TrafficMix::designed().matrix(&components),
        ..base.clone()
    };
    let outcome = Designer::new(&input).cisp(ctx.scale.us_budget_towers());
    println!(
        "# designed for 4:3:3 — {} links, stretch {:.3}",
        outcome.selected.len(),
        outcome.mean_stretch
    );

    let loads = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0];
    for (label, offered) in TrafficMix::paper_variants() {
        let label = format!("mix {label}");
        let offered = offered.matrix(&components);
        load_sweep(ctx, &outcome.topology, &offered, &loads, 13, &label);
    }
}

/// Fig. 12 — thin-client gaming frame time vs conventional latency.
///
/// Frame time (input → observed output) for a speculative-execution
/// thin-client game, with conventional connectivity only and with a parallel
/// low-latency augmentation carrying the "which speculation branch happened"
/// messages at one third of the conventional RTT.
pub(crate) fn fig12_gaming(ctx: &Context) {
    ctx.header("Fig. 12");

    let model = GameModel::default();
    println!(
        "# processing {} ms, speculation hit rate {}, low-latency RTT fraction {:.2}, bandwidth overhead {}x",
        model.processing_ms, model.speculation_hit_rate, model.lowlat_rtt_fraction, model.bandwidth_overhead
    );
    let rows = frame_time_sweep(&model, 300.0, 25.0);

    let conventional: Vec<(f64, f64)> = rows.iter().map(|&(r, c, _)| (r, c)).collect();
    let augmented: Vec<(f64, f64)> = rows.iter().map(|&(r, _, a)| (r, a)).collect();
    print_series(
        "frame time (ms), conventional connectivity only",
        &conventional,
    );
    print_series("frame time (ms), with low-latency augmentation", &augmented);
}

/// Fig. 13 — web page load times and object load times under cISP.
///
/// Replays the synthetic 80-page corpus under three scenarios — baseline,
/// cISP (all RTTs × 0.33), and cISP-selective (client→server leg only) — and
/// prints the PLT and object-load-time CDFs plus the median improvements the
/// paper quotes (31 % / 27 % median PLT reduction, 49 % object reduction,
/// ~8.5 % of bytes on cISP for the selective variant).
pub(crate) fn fig13_web(ctx: &Context) {
    ctx.header("Fig. 13");

    let pages = match ctx.scale {
        Scale::Tiny => 20,
        Scale::Full => 80,
    };
    let corpus = PageCorpus::generate(pages, 42);

    let scenarios = [
        ("baseline", ReplayScenario::Baseline),
        ("cISP", ReplayScenario::Cisp { factor: 0.33 }),
        (
            "cISP-selective",
            ReplayScenario::CispSelective { factor: 0.33 },
        ),
    ];

    let mut medians = Vec::new();
    for (label, scenario) in scenarios {
        let report = replay(&corpus, scenario);
        let sorted_ms = |seconds: &[f64]| {
            let mut ms: Vec<f64> = seconds.iter().map(|&s| s * 1e3).collect();
            ms.sort_by(f64::total_cmp);
            ms
        };
        let plt_ms = sorted_ms(&report.page_load_times_s);
        let obj_ms = sorted_ms(&report.object_load_times_s);
        print_series(&format!("PLT CDF (ms), {label}"), &cdf_points(&plt_ms));
        print_series(
            &format!("object load time CDF (ms), {label}"),
            &cdf_points(&obj_ms),
        );
        medians.push((label, report.median_plt_ms(), report.median_object_ms()));
        if label == "baseline" {
            println!(
                "# client→server byte fraction: {:.3}",
                report.client_to_server_byte_fraction
            );
        }
    }

    let baseline = medians[0];
    for &(label, plt, obj) in &medians[1..] {
        println!(
            "# {label}: median PLT {plt:.0} ms ({:.0}% reduction), median object {obj:.0} ms ({:.0}% reduction)",
            (1.0 - plt / baseline.1) * 100.0,
            (1.0 - obj / baseline.2) * 100.0
        );
    }
}

/// §8 — the cost-benefit table, plus the marginal upgrade loop.
///
/// Designs and prices the US network at the chosen scale, then prints the
/// paper's value-per-GB estimates (web search, e-commerce, gaming) next to
/// the measured cost per GB. The paper's conclusion — the value exceeds the
/// ~$0.81/GB cost by multiples in every setting — should survive any
/// reasonable re-parameterisation.
///
/// The second table asks the marginal question behind §8's SLA pitch:
/// given the designed backbone carrying foreground plus background traffic
/// in the designed §6.4 mix's split (`TrafficMix::background_share`, the
/// DC–DC share 3/10), which microwave-link capacity upgrade buys the most
/// foreground P99 latency per dollar-km?
/// (`cisp_core::economics::rank_upgrades`, grounded in simulation rather
/// than propagation arithmetic.)
pub(crate) fn sec8_cost_benefit(ctx: &Context) {
    ctx.header("§8");

    let scenario = ctx.us();
    let outcome = &ctx.us_design().0;
    let provisioned = scenario.provision(outcome, 100.0, &CostModel::default());
    let cost_per_gb = provisioned.cost_per_gb;
    println!("# measured cost per GB at 100 Gbps: ${cost_per_gb:.2} (paper: $0.81)");

    let rows: Vec<Vec<String>> = cost_benefit_table(cost_per_gb)
        .into_iter()
        .map(|(estimate, cost)| {
            vec![
                estimate.setting.clone(),
                fmt(estimate.low_usd_per_gb, 2),
                fmt(estimate.high_usd_per_gb, 2),
                fmt(cost, 2),
                fmt(estimate.low_usd_per_gb / cost, 1),
                estimate.note.clone(),
            ]
        })
        .collect();
    print_table(
        "§8: value per GB vs cost per GB",
        &[
            "setting",
            "value_low_$/GB",
            "value_high_$/GB",
            "cost_$/GB",
            "min_value/cost",
            "assumptions",
        ],
        &rows,
    );

    // The marginal question: with the backbone carrying both classes,
    // which MW-link upgrade most improves the foreground class's simulated
    // P99 per dollar-km? The background class is the DC–DC replication
    // matrix between the DC proxies, its aggregate sized from the designed
    // mix's DC-replication share of the combined offered load, so the
    // simulated class split matches the mix's split.
    let bg_share = TrafficMix::designed().background_share();
    let traffic = population_product_traffic(scenario.cities());
    let eval_config = EvaluateConfig {
        design_aggregate_gbps: 4.0,
        // Offered load beyond the design point (the Fig. 5/11 regime) so
        // the hottest links actually queue and an upgrade has milliseconds
        // to buy; at or below the design target the augmented capacities
        // absorb the load and every gain reads ~0.
        load_fraction: 1.4,
        sim: SimConfig {
            duration_s: 0.05,
            // Bursty arrivals: the P99 is a *queueing* tail question, and
            // under constant-bit-rate pacing sub-unity utilisation never
            // queues at all.
            arrivals: ArrivalProcess::Poisson,
            ..SimConfig::default()
        },
        ..EvaluateConfig::default()
    };
    let fg_gbps = eval_config.design_aggregate_gbps * eval_config.load_fraction;
    let bg_gbps = fg_gbps * bg_share / (1.0 - bg_share);
    let dc_dc = TrafficComponents::new(scenario.cities()).dc_dc;
    let lowered = lower_classified(&outcome.topology, &traffic, &dc_dc, bg_gbps, &eval_config);
    let ranking = rank_upgrades(
        &outcome.topology,
        &lowered,
        &CostModel::default(),
        &UpgradeConfig::default(),
    );
    println!(
        "# upgrade loop — foreground {fg_gbps:.1} Gbps + background {bg_gbps:.1} Gbps ({:.0}% bulk share), baseline foreground P99 queueing delay: {:.4} ms",
        bg_share * 100.0,
        ranking.baseline_fg_p99_ms,
    );
    let upgrade_rows: Vec<Vec<String>> = ranking
        .options
        .iter()
        .map(|o| {
            vec![
                format!("{}-{}", o.site_a, o.site_b),
                fmt(o.length_km, 0),
                fmt(o.baseline_utilization, 3),
                fmt(o.upgrade_cost_usd / 1e6, 2),
                fmt(o.upgraded_fg_p99_ms, 4),
                fmt(o.improvement_ms, 4),
                fmt(o.improvement_per_musd_km, 5),
            ]
        })
        .collect();
    print_table(
        "§8 marginal: MW-link upgrades ranked by fg-P99-queueing improvement per $M-km",
        &[
            "link(sites)",
            "km",
            "util",
            "cost_$M",
            "fg_P99q_ms",
            "gain_ms",
            "gain/($M·km)",
        ],
        &upgrade_rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(figures: &[Figure]) -> Vec<&str> {
        figures.iter().map(|(name, _)| *name).collect()
    }

    #[test]
    fn no_arguments_run_every_figure_at_paper_scale() {
        let (scale, figures) = parse_args::<&str>(&[]).unwrap();
        assert_eq!(scale, Scale::Full);
        assert_eq!(names(&figures), names(&FIGURES));
    }

    #[test]
    fn a_scale_flag_and_names_pick_the_scale_and_the_figures() {
        let (scale, figures) = parse_args(&["sec8", "--tiny", "fig04a"]).unwrap();
        assert_eq!(scale, Scale::Tiny);
        assert_eq!(names(&figures), ["sec8", "fig04a"]);
        assert_eq!(parse_args(&["--full"]).unwrap().0, Scale::Full);
    }

    #[test]
    fn unknown_flags_and_names_and_two_scale_flags_are_rejected() {
        for args in [
            &["--reduced"][..],
            &["-t"],
            &["fig04"],
            &["fig02", "fig99"],
            &["--tiny", "--full"],
            &["--full", "--full"],
        ] {
            assert!(parse_args(args).is_err(), "{args:?}");
        }
    }
}
