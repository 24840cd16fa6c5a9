//! How much of cISP's latency advantage survives bad weather?
//!
//! Designs the miniature US network, then subjects it to a synthetic year of
//! precipitation (one 30-minute interval per day): each interval's rain field
//! fails the microwave links whose attenuation exceeds their fade margin, and
//! traffic falls back to the best surviving microwave/fiber route. Prints the
//! median and worst-case stretch per pair class, mirroring the paper's §6.1
//! finding that the 99th-percentile latency is nearly the fair-weather one —
//! and then replays the same storm year through the packet simulator
//! (`cisp_weather::simulate`) over the *conduit-backed* topology, so the
//! reported numbers include queueing and loss on the narrowed network (with
//! fiber fallbacks sharing physical conduit capacity), not just geodesic
//! stretch. Finally, the failure mode microwave weather cannot cause:
//! severing the most-loaded fiber conduit segments
//! (`cisp_weather::simulate::conduit_cut_analysis`, re-run from the uncut
//! lowering's routes).
//!
//! Run with: `cargo run --release --example weather_resilience`

use cisp::core::evaluate::{lower, EvaluateConfig};
use cisp::core::scenario::{population_product_traffic, Scenario, ScenarioConfig};
use cisp::netsim::sim::SimConfig;
use cisp::weather::failures::{link_failures, FailureConfig, FailureGeometry};
use cisp::weather::reroute::{weather_year_analysis, WeatherSeries};
use cisp::weather::simulate::{
    conduit_cut_analysis, most_loaded_conduits, storm_queueing_analysis,
};
use cisp::weather::storms::{StormYear, StormYearConfig};

fn main() {
    println!("designing the miniature US network…");
    let scenario = Scenario::build(&ScenarioConfig::tiny_test());
    let outcome = scenario.design(300.0);
    println!(
        "  {} MW links, fair-weather mean stretch {:.3}",
        outcome.selected.len(),
        outcome.mean_stretch
    );

    println!("simulating a year of storms (365 × 30-minute intervals)…");
    let year = StormYear::generate(7, &StormYearConfig::us_default());
    let report = weather_year_analysis(&outcome.topology, &year, &FailureConfig::default());
    println!(
        "  mean microwave links down per interval: {:.2}",
        report.mean_failed_links
    );
    println!("  failure sweep: {}", report.failure_sweep);
    println!(
        "  {} distinct failure sets, {} one-link closure sweeps",
        report.distinct_failure_sets, report.closure_sweeps
    );

    // The year sweep reuses one storm-independent geometry across all 365
    // fields; the one-shot call builds its own per field. Same code path,
    // so the failure sets must agree field by field.
    let failure_config = FailureConfig::default();
    let mut geometry = FailureGeometry::new(&outcome.topology, &failure_config);
    for (day, field) in year.fields().iter().enumerate() {
        assert_eq!(
            geometry.failures(field),
            link_failures(&outcome.topology, field, &failure_config),
            "reused geometry and one-shot link_failures disagree on day {day}"
        );
    }
    assert_eq!(geometry.stats(), report.failure_sweep);

    println!("\nstretch across city pairs (median over pairs):");
    for (series, label) in [
        (WeatherSeries::Best, "fair weather     "),
        (WeatherSeries::P99, "99th percentile  "),
        (WeatherSeries::Worst, "worst interval   "),
        (WeatherSeries::FiberOnly, "fiber only       "),
    ] {
        println!("  {label} {:.3}", report.median(series));
    }

    println!("\npairs hit hardest in their worst interval:");
    let mut pairs = report.pairs.clone();
    pairs.sort_by(|a, b| b.worst.partial_cmp(&a.worst).unwrap());
    for p in pairs.iter().take(5) {
        println!(
            "  {:<14} ↔ {:<14} best {:.2}  worst {:.2}  fiber {:.2}",
            scenario.cities()[p.site_a].name,
            scenario.cities()[p.site_b].name,
            p.best,
            p.worst,
            p.fiber_only
        );
    }

    println!("\nreplaying the storm year through the packet simulator (conduit-backed fiber)…");
    let conduit_topo = scenario.conduit_backed_topology(&outcome);
    let traffic = population_product_traffic(scenario.cities());
    let config = EvaluateConfig {
        design_aggregate_gbps: 3.0,
        load_fraction: 0.5,
        sim: SimConfig {
            duration_s: 0.05,
            ..SimConfig::default()
        },
        ..EvaluateConfig::default()
    };
    let queueing = storm_queueing_analysis(
        &conduit_topo,
        &traffic,
        year.fields(),
        &FailureConfig::default(),
        &config,
    );
    println!(
        "  delivered mean delay: fair weather {:.3} ms, median interval {:.3} ms, p99 {:.3} ms, worst {:.3} ms",
        queueing.fair.mean_delay_ms,
        queueing.mean_delay_quantile_ms(0.5),
        queueing.mean_delay_quantile_ms(0.99),
        queueing.worst_mean_delay_ms()
    );
    println!(
        "  worst interval loss {:.3} % (fair weather {:.3} %), mean MW links down {:.2}",
        queueing.worst_loss_rate() * 100.0,
        queueing.fair.loss_rate * 100.0,
        queueing.mean_failed_links()
    );

    println!("\ncutting fiber conduits (the failure weather cannot cause)…");
    // A sparse MW spine leaves real traffic on the conduits, so cuts bite;
    // fiber capacity in demand range makes the survivors congestible.
    let sparse = scenario.design(80.0);
    let sparse_conduit = scenario.conduit_backed_topology(&sparse);
    let cut_config = EvaluateConfig {
        fiber_rate_bps: 2e9,
        ..config
    };
    let lowered = lower(&sparse_conduit, &traffic, &cut_config);
    let baseline = lowered.simulation().run();
    let ranked = most_loaded_conduits(&lowered, &baseline);
    let scenarios: Vec<Vec<usize>> = (1..=3.min(ranked.len()))
        .map(|k| ranked.iter().copied().take(k).collect())
        .collect();
    let cuts = conduit_cut_analysis(&lowered, &scenarios);
    println!(
        "  sparse spine ({} MW links, {} conduit segments), uncut: mean delay {:.3} ms, loss {:.3} %",
        sparse.selected.len(),
        sparse_conduit.conduits().unwrap().num_segments(),
        cuts.baseline.mean_delay_ms,
        cuts.baseline.loss_rate * 100.0
    );
    for cut in &cuts.cuts {
        println!(
            "  cut {} most-loaded segment(s): mean delay {:.3} ms, loss {:.3} %, {} demands unroutable",
            cut.cut_segments,
            cut.mean_delay_ms,
            cut.loss_rate * 100.0,
            cut.unroutable_demands
        );
        assert!(
            cut.mean_delay_ms > cuts.baseline.mean_delay_ms
                || cut.loss_rate > cuts.baseline.loss_rate,
            "severing a loaded conduit must degrade delivery"
        );
    }
}
