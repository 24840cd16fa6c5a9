//! Cross-crate integration tests: the full design pipeline from synthetic
//! datasets through design, augmentation, pricing, weather analysis and
//! packet simulation, exercised end to end through the facade crate.

use cisp::core::cost::CostModel;
use cisp::core::scenario::{population_product_traffic, Scenario, ScenarioConfig};
use cisp::data::cities::{population_coverage, us_population_centers, us_top_cities};
use cisp::geo::latency;
use cisp::netsim::network::{LinkSpec, Network};
use cisp::netsim::routing::Demand;
use cisp::netsim::sim::{SimConfig, Simulation};
use cisp::weather::failures::FailureConfig;
use cisp::weather::reroute::{weather_year_analysis, WeatherSeries};
use cisp::weather::storms::{StormYear, StormYearConfig};

/// The shared miniature scenario (built once per test; cheap at tiny scale).
fn tiny_scenario() -> Scenario {
    Scenario::build(&ScenarioConfig::tiny_test())
}

/// §2: the paper's 120 US population centres hold 85 % of the population
/// within 100 km. Over every tabulated city the coalesced centres must
/// reach that share at least.
#[test]
fn us_population_centers_cover_the_paper_share() {
    let centers = us_population_centers();
    let coverage = population_coverage(&centers, &us_top_cities(usize::MAX), 100.0);
    assert!(coverage >= 0.85, "coverage = {coverage}");
}

#[test]
fn design_beats_fiber_and_respects_physics() {
    let scenario = tiny_scenario();
    let fiber_only = scenario.design_input().empty_topology().mean_stretch();
    let outcome = scenario.design(300.0);

    // The designed network is better than fiber but cannot beat physics.
    assert!(outcome.mean_stretch < fiber_only);
    assert!(outcome.mean_stretch >= 1.0);

    // Every pair's latency is sandwiched between c-latency and fiber latency.
    let topo = &outcome.topology;
    for i in 0..topo.num_sites() {
        for j in (i + 1)..topo.num_sites() {
            let geo = topo.geodesic_km(i, j);
            if geo <= 0.0 {
                continue;
            }
            let achieved = topo.latency_ms(i, j);
            assert!(achieved >= latency::c_latency_ms(geo) - 1e-9);
            assert!(achieved <= latency::c_latency_ms(topo.fiber_km(i, j)) + 1e-9);
        }
    }
}

#[test]
fn budget_monotonicity_across_the_pipeline() {
    let scenario = tiny_scenario();
    let budgets = [0.0, 100.0, 300.0, 600.0];
    let mut last = f64::INFINITY;
    for &b in &budgets {
        let outcome = scenario.design(b);
        assert!(outcome.total_towers as f64 <= b);
        assert!(
            outcome.mean_stretch <= last + 1e-9,
            "stretch should not increase with budget"
        );
        last = outcome.mean_stretch;
    }
}

#[test]
fn provisioning_cost_decreases_with_scale_and_covers_loads() {
    let scenario = tiny_scenario();
    let outcome = scenario.design(300.0);
    let cost_model = CostModel::default();
    let mut last_cost = f64::INFINITY;
    for &gbps in &[5.0, 20.0, 80.0] {
        let provisioned = scenario.provision(&outcome, gbps, &cost_model);
        assert!(provisioned.cost_per_gb < last_cost);
        last_cost = provisioned.cost_per_gb;
        // Every link's provisioned capacity covers its routed load.
        for link in &provisioned.augmentation.links {
            assert!(
                (link.series * link.series) as f64 >= link.load_gbps - 1e-9,
                "link under-provisioned"
            );
        }
    }
}

#[test]
fn weather_analysis_is_bounded_by_fiber() {
    let scenario = tiny_scenario();
    let outcome = scenario.design(300.0);
    let year = StormYear::generate(
        3,
        &StormYearConfig {
            days: 45,
            ..StormYearConfig::us_default()
        },
    );
    let report = weather_year_analysis(&outcome.topology, &year, &FailureConfig::default());
    assert_eq!(report.intervals, 45);
    assert!(!report.pairs.is_empty());
    for p in &report.pairs {
        assert!(p.best <= p.p99 + 1e-9);
        assert!(p.p99 <= p.worst + 1e-9);
        assert!(p.worst <= p.fiber_only + 1e-9);
    }
    // The designed network keeps most of its advantage through the year.
    assert!(report.median(WeatherSeries::P99) <= report.median(WeatherSeries::FiberOnly));
}

#[test]
fn designed_topology_simulates_with_low_queueing_at_moderate_load() {
    let scenario = tiny_scenario();
    let outcome = scenario.design(300.0);
    let topo = &outcome.topology;
    let traffic = population_product_traffic(scenario.cities());

    // Build a small simulation by hand: MW links at 10 Gbps each (ample for
    // the offered load), fiber everywhere else.
    let n = topo.num_sites();
    let mut network = Network::new(n);
    for link in topo.mw_links() {
        network.add_bidirectional_link(LinkSpec {
            from: link.site_a,
            to: link.site_b,
            rate_bps: 10e9,
            propagation_s: link.mw_length_km / 299_792.458,
            buffer_bytes: 100_000.0,
        });
    }
    for i in 0..n {
        for j in (i + 1)..n {
            network.add_bidirectional_link(LinkSpec {
                from: i,
                to: j,
                rate_bps: 100e9,
                propagation_s: topo.fiber_km(i, j) / 299_792.458,
                buffer_bytes: 1_000_000.0,
            });
        }
    }
    // 2 Gbps aggregate split over pairs proportional to traffic.
    let total: f64 = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .map(|(i, j)| traffic[i][j])
        .sum();
    let mut demands = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let gbps = 2.0 * traffic[i][j] / total;
            if gbps > 0.0 {
                demands.push(Demand::new(i, j, gbps * 1e9));
            }
        }
    }
    let mut sim = Simulation::new(
        network,
        demands,
        SimConfig {
            duration_s: 0.2,
            ..SimConfig::default()
        },
    );
    let report = sim.run();
    assert!(report.delivered > 0);
    assert_eq!(report.dropped, 0, "moderate load should not drop packets");
    assert!(report.mean_queue_delay_ms < 1.0);
    // Mean delay is in the right ballpark for regional distances (< 20 ms).
    assert!(report.mean_delay_ms > 0.5 && report.mean_delay_ms < 20.0);
}

#[test]
fn europe_and_us_pipelines_both_work() {
    // A tiny European configuration exercising the other region end to end.
    let mut config = ScenarioConfig::europe_paper(5);
    config.max_sites = Some(10);
    config.towers = cisp::data::towers::TowerRegistryConfig {
        raw_count: 1_500,
        ..cisp::data::towers::TowerRegistryConfig::default()
    };
    let scenario = Scenario::build(&config);
    assert!(scenario.cities().len() >= 5);
    let outcome = scenario.design(250.0);
    assert!(outcome.mean_stretch >= 1.0);
    assert!(outcome.mean_stretch < scenario.design_input().empty_topology().mean_stretch() + 1e-9);
}
