//! Fig. 3 — the headline US topology.
//!
//! Designs the US network at the scale's tower budget, provisions it for
//! 100 Gbps, and prints the numbers the paper reports for its Fig. 3 network:
//! mean stretch (paper: 1.05×), the breakdown of built links by how many
//! additional parallel tower series they need (paper: 1660 hops need none,
//! 552 need one, 86 need two), and the amortised cost per GB (paper: $0.81).
//! A last table says how the pipeline got there: what decided the hop
//! sweep's samples, where the pool build's time went, how the site pairs
//! were resolved and how much work the swap polish did.

use cisp_bench::{fmt, print_table, us_scenario, Scale};
use cisp_core::cost::CostModel;
use cisp_core::design::Designer;

fn main() {
    let scale = Scale::from_args();
    println!("# Fig. 3 reproduction — scale: {}", scale.label());

    let scenario = us_scenario(scale, 42);
    let budget = scale.us_budget_towers();
    // `Scenario::design`, keeping the swap polish's counters.
    let (outcome, polish) =
        Designer::with_config(scenario.design_input(), scenario.config().design)
            .cisp_profiled(budget);
    let provisioned = scenario.provision(&outcome, 100.0, &CostModel::default());

    print_table(
        "Fig. 3: designed US topology",
        &["metric", "value"],
        &[
            vec!["sites".into(), scenario.cities().len().to_string()],
            vec![
                "candidate MW links".into(),
                scenario.design_input().candidates.len().to_string(),
            ],
            vec!["tower budget".into(), fmt(budget, 0)],
            vec!["towers used".into(), outcome.total_towers.to_string()],
            vec!["MW links built".into(), outcome.selected.len().to_string()],
            vec!["mean stretch".into(), fmt(outcome.mean_stretch, 3)],
            vec![
                "MW traffic fraction".into(),
                fmt(provisioned.augmentation.mw_traffic_fraction, 3),
            ],
            vec![
                "cost per GB at 100 Gbps ($)".into(),
                fmt(provisioned.cost_per_gb, 2),
            ],
        ],
    );

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
    let mut link_rows = Vec::new();
    for (idx, link) in outcome.topology.mw_links().iter().enumerate() {
        let a = &scenario.cities()[link.site_a];
        let b = &scenario.cities()[link.site_b];
        let series = provisioned.augmentation.links[idx].series;
        link_rows.push(vec![
            a.name.clone(),
            b.name.clone(),
            fmt(link.mw_length_km, 0),
            link.tower_count.to_string(),
            series.to_string(),
        ]);
    }
    print_table(
        "Fig. 3: built MW links",
        &["from", "to", "mw_km", "towers", "series"],
        &link_rows,
    );

    let profile = scenario.pool_profile();
    let sweep = profile.hop_sweep;
    let pool = scenario.pool_stats();
    let zero_attached = scenario.attachment_report().zero_attached().len();
    let count = |name: &str, v: u64| vec![name.to_string(), v.to_string()];
    let ms = |name: &str, v: f64| vec![name.to_string(), fmt(v, 1)];
    print_table(
        "Fig. 3: pipeline counters",
        &["counter", "value"],
        &[
            count("hop sweep: samples", sweep.samples),
            count("hop sweep: by global bound", sweep.by_global_bound),
            count("hop sweep: by cell bound", sweep.by_cell_bound),
            count("hop sweep: elevation only", sweep.elevation_only),
            count("hop sweep: exact", sweep.exact),
            count("hop sweep: cells filled", sweep.cells_filled),
            ms("pool build: hop sweep ms", profile.hop_sweep_ms),
            ms("pool build: attach ms", profile.attach_ms),
            ms("pool build: search ms", profile.search_ms),
            ms("pool build: extract ms", profile.extract_ms),
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
