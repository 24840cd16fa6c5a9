//! Per-op invariant checks and the determinism digest.
//!
//! No bit-pinned goldens here (`tests/golden/` owns those): an op passes
//! when its result obeys the invariants below and repeats the first op's
//! digest, so a legitimate behaviour fix does not brick the benchmark.

use cisp::core::design::DesignInput;
use cisp::core::topology::HybridTopology;
use cisp::data::towers::TowerRegistry;
use cisp::geo::geodesic;
use cisp::netsim::SimReport;
use cisp::weather::reroute::WeatherSeries;
use cisp::weather::StormYearConfig;

use crate::workloads::{Backbone, Prepared, Product, Scale};

/// Slack on "a microwave path is no shorter than the geodesic", km.
const GEODESIC_SLACK_KM: f64 = 1e-6;
/// Relative slack on "a simulated RTT is no shorter than propagation".
const RTT_SLACK: f64 = 1e-6;
const MAX_LOSS_RATE: f64 = 0.01;

/// FNV-1a over the 64-bit words of a result.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn float(&mut self, value: f64) {
        self.word(value.to_bits());
    }

    pub fn floats(&mut self, values: &[f64]) {
        self.word(values.len() as u64);
        values.iter().for_each(|&v| self.float(v));
    }

    pub fn words(&mut self, values: impl ExactSizeIterator<Item = u64>) {
        self.word(values.len() as u64);
        values.for_each(|v| self.word(v));
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Named invariant checks of one op; the failed names are reported.
#[derive(Default)]
pub struct Checks {
    failed: Vec<&'static str>,
}

impl Checks {
    pub fn require(&mut self, name: &'static str, holds: bool) {
        if !holds && !self.failed.contains(&name) {
            self.failed.push(name);
        }
    }

    pub fn failed(&self) -> &[&'static str] {
        &self.failed
    }
}

/// A latency ratio (latency over its reference) as percent above 1.
fn excess_pct(ratio: f64) -> f64 {
    100.0 * (ratio - 1.0)
}

/// What the untimed inspection of one op's product yields.
pub struct OpOutput {
    /// The `latency_inflation_pct` metric: by how much the latency the op
    /// produced exceeds the workload's reference latency.
    pub inflation_pct: f64,
    /// Further result quantities and work counts, `(name, value, unit)`.
    pub results: Vec<(&'static str, f64, &'static str)>,
    pub digest: u64,
    pub failed: Vec<&'static str>,
}

pub fn inspect(product: &Product, prepared: &Prepared, scale: &Scale) -> OpOutput {
    let mut checks = Checks::default();
    let mut digest = Digest::new();
    let (inflation_pct, results) = match (product, prepared) {
        (Product::Built(scenario), Prepared::Pool(_)) => inspect_pool(
            scenario.towers(),
            scenario.design_input(),
            &mut checks,
            &mut digest,
        ),
        (Product::Pool { towers, input }, Prepared::Pool(_)) => {
            inspect_pool(towers, input, &mut checks, &mut digest)
        }
        (Product::Design(outcome), Prepared::Design(scenario)) => {
            let fiber_only = scenario.design_input().empty_topology().mean_stretch();
            checks.require(
                "design_within_budget",
                outcome.total_towers as f64 <= scale.budget_towers,
            );
            checks.require(
                "design_stretch_between_1_and_fiber_only",
                (1.0..=fiber_only).contains(&outcome.mean_stretch),
            );
            digest.words(outcome.selected.iter().map(|&i| i as u64));
            digest.float(outcome.mean_stretch);
            (
                excess_pct(outcome.mean_stretch),
                vec![
                    ("mean_stretch", outcome.mean_stretch, "ratio"),
                    ("fiber_only_stretch", fiber_only, "ratio"),
                    ("selected_links", outcome.selected.len() as f64, "count"),
                    ("total_towers", outcome.total_towers as f64, "count"),
                ],
            )
        }
        (
            Product::Sim {
                eval,
                game,
                web_baseline,
                web_cisp,
            },
            Prepared::Sim(b),
        ) => {
            check_backbone(b, scale, &mut checks);
            let sim = &eval.sim;
            checks.require("sim_moved_packets", sim.delivered + sim.dropped > 0);
            checks.require("sim_loss_below_1_percent", sim.loss_rate < MAX_LOSS_RATE);
            checks.require(
                "sim_rtt_at_least_propagation",
                eval.pair_rtts
                    .iter()
                    .all(|p| p.simulated_rtt_ms >= p.propagation_rtt_ms * (1.0 - RTT_SLACK)),
            );
            digest_report(sim, &mut digest);
            digest.float(game.mean_augmented_ms);
            digest.float(web_baseline.median_plt_ms());
            digest.float(web_cisp.median_plt_ms());
            // What the simulator adds — queueing and transmission — to the
            // zero-load RTT of the routes, offered-load-weighted. The
            // design's own stretch is a constant of set-up, and next to it
            // queueing would be a rounding error (≈0.01 of 5.4 points).
            let (mut simulated_ms, mut unloaded_ms) = (0.0, 0.0);
            for p in &eval.pair_rtts {
                simulated_ms += p.offered_bps * p.simulated_rtt_ms;
                unloaded_ms += p.offered_bps * p.propagation_rtt_ms;
            }
            (
                excess_pct(simulated_ms / unloaded_ms),
                vec![
                    ("packets", (sim.delivered + sim.dropped) as f64, "count"),
                    ("mean_stretch", b.designed.mean_stretch, "ratio"),
                    ("sim_mean_delay_ms", sim.mean_delay_ms, "ms"),
                    ("sim_p95_delay_ms", sim.p95_delay_ms, "ms"),
                    ("sim_mean_queue_delay_ms", sim.mean_queue_delay_ms, "ms"),
                    ("sim_loss_rate", sim.loss_rate, "ratio"),
                    ("gaming_mean_frame_ms", game.mean_augmented_ms, "ms"),
                    ("web_median_plt_ms", web_cisp.median_plt_ms(), "ms"),
                    (
                        "web_baseline_median_plt_ms",
                        web_baseline.median_plt_ms(),
                        "ms",
                    ),
                ],
            )
        }
        (Product::Storm { year, sweep }, Prepared::Storm(b)) => {
            check_backbone(b, scale, &mut checks);
            let best = year.median(WeatherSeries::Best);
            let p99 = year.median(WeatherSeries::P99);
            let worst = year.median(WeatherSeries::Worst);
            checks.require(
                "storm_year_has_every_interval",
                year.intervals == StormYearConfig::us_default().days,
            );
            checks.require(
                "storm_sweep_has_every_interval",
                sweep.intervals.len() == scale.storm_fields.len(),
            );
            checks.require(
                "storm_stretch_ordered",
                1.0 <= best && best <= p99 && p99 <= worst,
            );
            for value in [best, p99, worst, year.mean_failed_links] {
                digest.float(value);
            }
            for i in std::iter::once(&sweep.fair).chain(&sweep.intervals) {
                digest.word(i.failed_links as u64);
                for value in [
                    i.mean_delay_ms,
                    i.p95_delay_ms,
                    i.mean_queue_delay_ms,
                    i.loss_rate,
                ] {
                    digest.float(value);
                }
            }
            (
                excess_pct(p99),
                vec![
                    ("year_intervals", year.intervals as f64, "count"),
                    ("sweep_intervals", sweep.intervals.len() as f64, "count"),
                    ("mean_stretch", b.designed.mean_stretch, "ratio"),
                    ("storm_p99_stretch", p99, "ratio"),
                    ("storm_worst_stretch", worst, "ratio"),
                    ("storm_mean_failed_links", year.mean_failed_links, "count"),
                    (
                        "storm_worst_mean_delay_ms",
                        sweep.worst_mean_delay_ms(),
                        "ms",
                    ),
                ],
            )
        }
        _ => panic!("product does not belong to this workload"),
    };
    OpOutput {
        inflation_pct,
        results,
        digest: digest.finish(),
        failed: checks.failed().to_vec(),
    }
}

/// The op's `latency_inflation_pct` and its further results.
type Inspected = (f64, Vec<(&'static str, f64, &'static str)>);

fn inspect_pool(
    towers: &TowerRegistry,
    input: &DesignInput,
    checks: &mut Checks,
    digest: &mut Digest,
) -> Inspected {
    checks.require("pool_not_empty", !input.candidates.is_empty());
    let mut all_built: HybridTopology = input.empty_topology();
    let fiber_only = all_built.mean_stretch();
    for link in &input.candidates {
        let geodesic_km = geodesic::distance_km(input.sites[link.site_a], input.sites[link.site_b]);
        checks.require(
            "pool_link_at_least_geodesic",
            link.mw_length_km >= geodesic_km - GEODESIC_SLACK_KM,
        );
        digest.word(link.site_a as u64);
        digest.word(link.site_b as u64);
        digest.float(link.mw_length_km);
        digest.word(link.tower_count as u64);
        digest.words(link.tower_path.iter().map(|&t| t as u64));
        all_built.add_mw_link(link.clone());
    }
    // The stretch no design over this pool can beat: every candidate built.
    let floor = all_built.mean_stretch();
    checks.require(
        "pool_stretch_between_1_and_fiber_only",
        (1.0..=fiber_only).contains(&floor),
    );
    (
        excess_pct(floor),
        vec![
            ("all_built_stretch", floor, "ratio"),
            ("fiber_only_stretch", fiber_only, "ratio"),
            ("towers", towers.len() as f64, "count"),
            ("candidates", input.candidates.len() as f64, "count"),
        ],
    )
}

fn check_backbone(b: &Backbone, scale: &Scale, checks: &mut Checks) {
    checks.require(
        "conduit_matrix_equals_designed",
        b.topology.effective_matrix() == b.designed.topology.effective_matrix(),
    );
    checks.require(
        "design_within_budget",
        b.designed.total_towers as f64 <= scale.budget_towers,
    );
}

fn digest_report(report: &SimReport, digest: &mut Digest) {
    for value in [
        report.mean_delay_ms,
        report.p95_delay_ms,
        report.mean_queue_delay_ms,
        report.loss_rate,
        report.mean_link_utilization,
        report.max_link_utilization,
    ] {
        digest.float(value);
    }
    digest.word(report.delivered);
    digest.word(report.dropped);
    digest.floats(&report.flow_mean_delay_ms);
    digest.words(report.flow_delivered.iter().copied());
    digest.words(report.flow_dropped.iter().copied());
    digest.floats(&report.link_utilizations);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_values_and_lengths() {
        let of = |f: &dyn Fn(&mut Digest)| {
            let mut d = Digest::new();
            f(&mut d);
            d.finish()
        };
        assert_eq!(of(&|d| d.float(1.5)), of(&|d| d.float(1.5)));
        assert_ne!(of(&|d| d.float(1.5)), of(&|d| d.float(-1.5)));
        assert_ne!(of(&|d| d.float(0.0)), of(&|d| d.float(-0.0)));
        // [1][2] and [1, 2] hash apart because lengths are hashed too.
        assert_ne!(
            of(&|d| {
                d.floats(&[1.0]);
                d.floats(&[2.0]);
            }),
            of(&|d| d.floats(&[1.0, 2.0]))
        );
    }

    #[test]
    fn checks_report_each_failed_name_once() {
        let mut checks = Checks::default();
        checks.require("a", true);
        checks.require("b", false);
        checks.require("b", false);
        checks.require("c", false);
        assert_eq!(checks.failed(), ["b", "c"]);
    }
}
