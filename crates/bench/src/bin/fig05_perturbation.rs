//! Fig. 5 — delay and loss under population perturbation.
//!
//! The network is designed and provisioned for the nominal population-product
//! matrix; the offered traffic then follows a *perturbed* matrix (each city's
//! population re-weighted by U[1−γ, 1+γ], γ ∈ {0.1, 0.3, 0.5}) at aggregate
//! loads from 10 % to 100 % of the design capacity. The paper finds mean
//! delay moves by < 0.1 ms and loss stays ≈0 up to ~70 % load even with plain
//! shortest-path routing.

use cisp_bench::{print_series, us_scenario, Scale};
use cisp_core::evaluate::{lower, EvaluateConfig};
use cisp_core::scenario::population_product_traffic;
use cisp_netsim::sim::SimConfig;
use cisp_traffic::perturb::perturbed_populations;

fn main() {
    let scale = Scale::from_args();
    println!("# Fig. 5 reproduction — scale: {}", scale.label());

    let scenario = us_scenario(scale, 42);
    let outcome = scenario.design(scale.us_budget_towers());
    // Design-time aggregate: keep the simulation small enough to run at all
    // scales; the *shape* (flat until ~70 %, then queueing/loss) is what the
    // figure shows and it is load-fraction-, not absolute-rate-, driven.
    let design_gbps = match scale {
        Scale::Tiny => 2.0,
        Scale::Reduced => 5.0,
        Scale::Full => 20.0,
    };
    let loads: Vec<f64> = vec![0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 1.0];
    let duration_s = 0.3;

    for &gamma in &[0.0, 0.1, 0.3, 0.5] {
        let offered = if gamma == 0.0 {
            population_product_traffic(scenario.cities())
        } else {
            let perturbed = perturbed_populations(scenario.cities(), gamma, 7);
            population_product_traffic(&perturbed)
        };
        let mut delay_points = Vec::new();
        let mut loss_points = Vec::new();
        for &load in &loads {
            // Provisioned for `design_gbps` on the designed-for matrix,
            // offered `load × design_gbps` of the perturbed one.
            let lowered = lower(
                &outcome.topology,
                &offered,
                &EvaluateConfig {
                    design_aggregate_gbps: design_gbps,
                    load_fraction: load,
                    sim: SimConfig {
                        duration_s,
                        seed: 11,
                        ..SimConfig::default()
                    },
                    ..EvaluateConfig::default()
                },
            );
            let report = lowered.simulation().run();
            delay_points.push((load * 100.0, report.mean_delay_ms));
            loss_points.push((load * 100.0, report.loss_rate * 100.0));
        }
        let label = if gamma == 0.0 {
            "matching TM".to_string()
        } else {
            format!("gamma = {gamma}")
        };
        print_series(
            &format!("mean delay (ms) vs load %, {label}"),
            &delay_points,
        );
        print_series(&format!("loss (%) vs load %, {label}"), &loss_points);
    }
}
