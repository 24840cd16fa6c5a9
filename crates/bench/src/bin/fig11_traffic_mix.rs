//! Fig. 11 — delay and loss under traffic-mix mismatch (§6.4).
//!
//! The network is designed and provisioned for a 4:3:3 mix of city-city,
//! city-DC and DC-DC traffic; the offered traffic then follows the mixes
//! 4:3:3 (matching), 5:3:3, 4:3:4 and 4:4:3 at aggregate loads from 10 % to
//! 100 % of the design capacity. The paper finds less than 0.05 ms of mean
//! delay difference and near-zero loss up to ~70 % load.

use cisp_bench::{print_series, us_scenario, Scale};
use cisp_core::design::{DesignInput, Designer};
use cisp_core::evaluate::{lower, EvaluateConfig};
use cisp_core::scenario::population_product_traffic;
use cisp_data::datacenters::google_us_datacenters;
use cisp_geo::geodesic;
use cisp_graph::DistMatrix;
use cisp_netsim::sim::SimConfig;
use cisp_traffic::matrix::TrafficMatrix;

/// Build the three component matrices over the scenario's sites, using the
/// population centers closest to the six Google DCs as DC proxies.
fn component_matrices(
    cities: &[cisp_data::cities::City],
    sites: &[cisp_geo::GeoPoint],
) -> (TrafficMatrix, TrafficMatrix, TrafficMatrix) {
    let n = sites.len();
    let dcs: Vec<usize> = google_us_datacenters()
        .iter()
        .map(|dc| {
            (0..n)
                .min_by(|&a, &b| {
                    geodesic::distance_km(sites[a], dc.location)
                        .partial_cmp(&geodesic::distance_km(sites[b], dc.location))
                        .unwrap()
                })
                .unwrap()
        })
        .collect();
    let city_city = TrafficMatrix::from_dist_matrix(population_product_traffic(cities));
    let mut dc_dc = DistMatrix::zeros(n);
    for &a in &dcs {
        for &b in &dcs {
            if a != b {
                dc_dc.set(a, b, 1.0);
            }
        }
    }
    let mut city_dc = DistMatrix::zeros(n);
    for i in 0..n {
        let closest = *dcs
            .iter()
            .min_by(|&&a, &&b| {
                geodesic::distance_km(sites[i], sites[a])
                    .partial_cmp(&geodesic::distance_km(sites[i], sites[b]))
                    .unwrap()
            })
            .unwrap();
        if closest != i {
            let pop = cities[i].population as f64;
            city_dc.set(i, closest, city_dc.get(i, closest) + pop);
            city_dc.set(closest, i, city_dc.get(closest, i) + pop);
        }
    }
    (
        city_city,
        TrafficMatrix::from_dist_matrix(city_dc),
        TrafficMatrix::from_dist_matrix(dc_dc),
    )
}

/// Combine components with the given shares via the shared traffic engine
/// (each component is normalised to unit total before weighting).
fn mix(components: &[(f64, &TrafficMatrix)]) -> DistMatrix {
    TrafficMatrix::mix(components).into_matrix()
}

fn main() {
    let scale = Scale::from_args();
    println!("# Fig. 11 reproduction — scale: {}", scale.label());

    let scenario = us_scenario(scale, 42);
    let base = scenario.design_input();
    let (cc, cdc, dcdc) = component_matrices(scenario.cities(), &base.sites);

    // Design for the 4:3:3 mix.
    let designed_mix = mix(&[(4.0, &cc), (3.0, &cdc), (3.0, &dcdc)]);
    let input = DesignInput {
        sites: base.sites.clone(),
        traffic: designed_mix,
        fiber_km: base.fiber_km.clone(),
        candidates: base.candidates.clone(),
    };
    let outcome = Designer::new(&input).cisp(scale.us_budget_towers());
    println!(
        "# designed for 4:3:3 — {} links, stretch {:.3}",
        outcome.selected.len(),
        outcome.mean_stretch
    );

    let design_gbps = match scale {
        Scale::Tiny => 2.0,
        Scale::Reduced => 5.0,
        Scale::Full => 20.0,
    };
    let loads = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0];

    let offered_mixes: Vec<(&str, DistMatrix)> = vec![
        ("4:3:3", mix(&[(4.0, &cc), (3.0, &cdc), (3.0, &dcdc)])),
        ("5:3:3", mix(&[(5.0, &cc), (3.0, &cdc), (3.0, &dcdc)])),
        ("4:3:4", mix(&[(4.0, &cc), (3.0, &cdc), (4.0, &dcdc)])),
        ("4:4:3", mix(&[(4.0, &cc), (4.0, &cdc), (3.0, &dcdc)])),
    ];

    for (label, offered) in &offered_mixes {
        let mut delay_points = Vec::new();
        let mut loss_points = Vec::new();
        for &load in &loads {
            // Provisioned for `design_gbps` on the designed-for mix, offered
            // `load × design_gbps` of this one.
            let lowered = lower(
                &outcome.topology,
                offered,
                &EvaluateConfig {
                    design_aggregate_gbps: design_gbps,
                    load_fraction: load,
                    sim: SimConfig {
                        duration_s: 0.3,
                        seed: 13,
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
            &format!("mean delay (ms) vs load %, mix {label}"),
            &delay_points,
        );
        print_series(&format!("loss (%) vs load %, mix {label}"), &loss_points);
    }
}
