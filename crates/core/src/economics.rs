//! The capacity-expansion loop: which microwave link to upgrade next, and
//! what the upgrade buys in *delivered* foreground latency (§8 cost-benefit,
//! grounded in simulation instead of propagation-only arithmetic).
//!
//! cISP's pitch is selling a low-latency service tier alongside bulk
//! transit, so the money question is marginal: given a designed topology and
//! a classified traffic mix, which link upgrade most improves the foreground
//! class's P99 delivered latency per dollar spent? This module closes the
//! design → simulate → economics loop:
//!
//! 1. simulate the lowered network once (the baseline) and read the
//!    foreground P99 *queueing* delay from [`SimReport::per_class`] — the
//!    component of delivered latency an upgrade can actually buy
//!    (propagation is fixed by geometry, and a P99 over the full delivered
//!    latency is dominated by route-length diversity, not congestion);
//! 2. shortlist the microwave links with the highest simulated utilisation —
//!    queueing lives where utilisation does, so these are the only upgrades
//!    that can move a delay quantile;
//! 3. re-simulate once per shortlisted link with that link's rate multiplied
//!    (both directions) through [`LoweredNetwork::rerun`], re-routed from
//!    the baseline's table — under shortest-path routing a rate cannot move
//!    a route, and the load-aware schemes recompute on the upgraded
//!    network — pricing the upgrade as one extra parallel radio
//!    series over the link's tower path ([`CostModel::hop_cost_1gbps_usd`]
//!    per tower-to-tower hop — the same marginal cost the augmentation step
//!    charges for added series);
//! 4. rank by P99 improvement per (million dollars × km) — improvement per
//!    $-km, so a short cheap upgrade that buys the same milliseconds beats a
//!    long expensive one.
//!
//! Everything is deterministic: the same lowering, seed and simulation
//! configuration are used for the baseline and every candidate, candidate
//! order follows the topology's MW-link order, and ties rank by that index.
//!
//! [`SimReport::per_class`]: cisp_netsim::SimReport::per_class

use cisp_netsim::SimReport;

use crate::cost::CostModel;
use crate::evaluate::LoweredNetwork;
use crate::topology::HybridTopology;

/// Knobs of the upgrade search.
#[derive(Debug, Clone, Copy)]
pub struct UpgradeConfig {
    /// Factor applied to an upgraded link's rate in both directions.
    /// The default `2.0` models one extra parallel radio series.
    pub rate_multiplier: f64,
    /// How many of the most-utilised microwave links to re-simulate. Each
    /// candidate costs one full simulation run; the utilisation shortlist
    /// keeps the loop affordable on paper-scale lowerings.
    pub max_candidates: usize,
}

impl Default for UpgradeConfig {
    fn default() -> Self {
        Self {
            rate_multiplier: 2.0,
            max_candidates: 8,
        }
    }
}

/// One evaluated upgrade: what it costs, and what it buys.
#[derive(Debug, Clone, Copy)]
pub struct UpgradeOption {
    /// Index into `topology.mw_links()` / `lowered.mw_link_ids`.
    pub mw_link_index: usize,
    /// Endpoint site indices.
    pub site_a: usize,
    /// Endpoint site indices.
    pub site_b: usize,
    /// Microwave path length, km.
    pub length_km: f64,
    /// Baseline simulated utilisation of the link (max over directions).
    pub baseline_utilization: f64,
    /// Price of one extra parallel radio series over the link's tower path.
    pub upgrade_cost_usd: f64,
    /// Foreground P99 queueing delay with this link upgraded, ms.
    pub upgraded_fg_p99_ms: f64,
    /// Baseline P99 queueing delay minus upgraded (positive = the upgrade
    /// helps), ms.
    pub improvement_ms: f64,
    /// The ranking score: `improvement_ms / (cost_M$ × length_km)` —
    /// milliseconds of foreground P99 bought per million dollars per km.
    pub improvement_per_musd_km: f64,
}

/// The ranked outcome of one [`rank_upgrades`] search.
#[derive(Debug, Clone)]
pub struct UpgradeRanking {
    /// Baseline foreground P99 queueing delay, ms.
    pub baseline_fg_p99_ms: f64,
    /// Evaluated upgrades, best score first (ties broken by MW-link index).
    pub options: Vec<UpgradeOption>,
}

/// Foreground P99 queueing delay of a report: the per-class vector on
/// classified runs; on an unclassified set every packet is foreground, so
/// the global mean queueing delay is the closest available statistic
/// (documented fallback — the economics loop is meant to run on classified
/// mixes).
fn foreground_p99_ms(report: &SimReport) -> f64 {
    report.per_class.map_or(report.mean_queue_delay_ms, |pc| {
        pc.foreground.p99_queue_delay_ms
    })
}

/// Tower-to-tower hops along a built MW link: `tower_count − 1` segments of
/// the stored tower path (a 1-tower degenerate path still installs one
/// radio pair, so it is floored at one hop).
fn link_hops(tower_count: usize) -> usize {
    tower_count.saturating_sub(1).max(1)
}

/// Rank candidate microwave-link capacity upgrades by simulated foreground
/// P99 improvement per $-km. See the module docs for the loop's shape; the
/// returned options are sorted best-first and include every shortlisted
/// candidate (negative improvements too — a ranking that silently dropped
/// "upgrade did nothing" rows would overstate the tail's sensitivity).
/// The two P99s subtracted are histogram quantiles (2⁻¹⁰ relative bins):
/// bins are monotone, so an upgrade that lowers every delay never reads as
/// a loss, and two upgrades whose P99s fall inside one bin tie and rank by
/// MW-link index like any other tie.
pub fn rank_upgrades(
    topology: &HybridTopology,
    lowered: &LoweredNetwork,
    cost_model: &CostModel,
    config: &UpgradeConfig,
) -> UpgradeRanking {
    assert!(config.rate_multiplier > 1.0, "an upgrade must add capacity");
    let mw_links = topology.mw_links();
    assert_eq!(
        mw_links.len(),
        lowered.mw_link_ids.len(),
        "lowering does not match the topology's MW links"
    );

    let mut baseline_sim = lowered.simulation();
    let baseline = baseline_sim.run();
    let baseline_fg_p99_ms = foreground_p99_ms(&baseline);

    // Shortlist by simulated utilisation (max over the two directions),
    // ties by MW-link index for determinism.
    let mut shortlist: Vec<(usize, f64)> = lowered
        .mw_link_ids
        .iter()
        .enumerate()
        .filter(|&(_, &(fwd, _))| fwd != usize::MAX)
        .map(|(idx, &(fwd, rev))| {
            let u = baseline.link_utilizations[fwd].max(baseline.link_utilizations[rev]);
            (idx, u)
        })
        .collect();
    shortlist.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    shortlist.truncate(config.max_candidates);

    let mut options = lowered.rerun(
        baseline_sim,
        shortlist.len(),
        |j, network| {
            let (fwd, rev) = lowered.mw_link_ids[shortlist[j].0];
            for id in [fwd, rev] {
                network.set_link_rate(id, network.link(id).rate_bps * config.rate_multiplier);
            }
            Vec::new()
        },
        |j, sim| {
            let (idx, utilization) = shortlist[j];
            let link = &mw_links[idx];
            let upgraded_fg_p99_ms = foreground_p99_ms(&sim.run());
            let improvement_ms = baseline_fg_p99_ms - upgraded_fg_p99_ms;
            let upgrade_cost_usd =
                link_hops(link.tower_count) as f64 * cost_model.hop_cost_1gbps_usd;
            let cost_musd_km = (upgrade_cost_usd / 1e6) * link.mw_length_km.max(1.0);
            UpgradeOption {
                mw_link_index: idx,
                site_a: link.site_a,
                site_b: link.site_b,
                length_km: link.mw_length_km,
                baseline_utilization: utilization,
                upgrade_cost_usd,
                upgraded_fg_p99_ms,
                improvement_ms,
                improvement_per_musd_km: improvement_ms / cost_musd_km,
            }
        },
    );
    options.sort_by(|a, b| {
        b.improvement_per_musd_km
            .total_cmp(&a.improvement_per_musd_km)
            .then(a.mw_link_index.cmp(&b.mw_link_index))
    });

    UpgradeRanking {
        baseline_fg_p99_ms,
        options,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::{lower_classified, EvaluateConfig};
    use crate::links::CandidateLink;
    use cisp_geo::{geodesic, GeoPoint};
    use cisp_netsim::flows::ArrivalProcess;
    use cisp_netsim::sim::SimConfig;

    /// Four sites, MW chain 0–1–2 and spur 1–3, fiber at 1.9× geodesic —
    /// the same shape as the evaluate-layer fixture.
    fn test_topology() -> HybridTopology {
        let sites = vec![
            GeoPoint::new(41.9, -87.6),
            GeoPoint::new(39.1, -94.6),
            GeoPoint::new(32.8, -96.8),
            GeoPoint::new(39.7, -105.0),
        ];
        topology_over(sites, &[(0, 1), (1, 2), (1, 3)])
    }

    /// `sites` joined by the MW links `mw`, fiber at 1.9× geodesic.
    fn topology_over(sites: Vec<GeoPoint>, mw: &[(usize, usize)]) -> HybridTopology {
        let n = sites.len();
        let traffic = vec![vec![1.0; n]; n];
        let fiber: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| geodesic::distance_km(sites[i], sites[j]) * 1.9)
                    .collect()
            })
            .collect();
        let mut topo = HybridTopology::new(sites.clone(), traffic, fiber);
        for &(a, b) in mw {
            let geo = geodesic::distance_km(sites[a], sites[b]);
            topo.add_mw_link(CandidateLink {
                site_a: a.min(b),
                site_b: a.max(b),
                mw_length_km: geo * 1.04,
                tower_count: (geo / 80.0).ceil() as usize,
                tower_path: vec![0; 3],
            });
        }
        topo
    }

    fn classified_lowering(topo: &HybridTopology) -> LoweredNetwork {
        let config = EvaluateConfig {
            design_aggregate_gbps: 4.0,
            // Heavy load so the MW spine actually queues and an upgrade has
            // something to improve.
            load_fraction: 0.9,
            sim: SimConfig {
                duration_s: 0.05,
                // Bursty arrivals so sub-unity utilisation still queues —
                // the statistic the ranking moves is the queueing tail.
                arrivals: ArrivalProcess::Poisson,
                ..SimConfig::default()
            },
            ..EvaluateConfig::default()
        };
        lower_classified(topo, topo.traffic(), topo.traffic(), 2.0, &config)
    }

    #[test]
    fn ranking_is_deterministic_and_complete() {
        let topo = test_topology();
        let lowered = classified_lowering(&topo);
        let a = rank_upgrades(
            &topo,
            &lowered,
            &CostModel::default(),
            &UpgradeConfig::default(),
        );
        let b = rank_upgrades(
            &topo,
            &lowered,
            &CostModel::default(),
            &UpgradeConfig::default(),
        );
        assert_eq!(a.options.len(), 3, "all three MW links shortlisted");
        assert!(a.baseline_fg_p99_ms > 0.0);
        for (x, y) in a.options.iter().zip(&b.options) {
            assert_eq!(x.mw_link_index, y.mw_link_index);
            assert_eq!(
                x.improvement_per_musd_km.to_bits(),
                y.improvement_per_musd_km.to_bits()
            );
        }
        // Sorted best-first.
        for w in a.options.windows(2) {
            assert!(w[0].improvement_per_musd_km >= w[1].improvement_per_musd_km);
        }
        // Every option priced: at least one hop at the 1 Gbps hop cost.
        for o in &a.options {
            assert!(o.upgrade_cost_usd >= CostModel::default().hop_cost_1gbps_usd);
            assert!(o.length_km > 0.0);
        }
    }

    #[test]
    fn an_upgrade_that_lowers_every_delay_never_ranks_as_a_loss() {
        // Two sites, one MW link: every packet crosses exactly one queue,
        // with the same arrival times before and after the upgrade (same
        // seed), so by Lindley's recursion halving the service time lowers
        // every waiting time that was positive and raises none. A binned
        // P99 must keep that order.
        let sites = vec![GeoPoint::new(41.9, -87.6), GeoPoint::new(39.1, -94.6)];
        let topo = topology_over(sites, &[(0, 1)]);
        let lowered = classified_lowering(&topo);
        let ranking = rank_upgrades(
            &topo,
            &lowered,
            &CostModel::default(),
            &UpgradeConfig::default(),
        );
        assert_eq!(ranking.options.len(), 1);
        let only = &ranking.options[0];
        assert!(ranking.baseline_fg_p99_ms > 0.0);
        assert!(only.upgraded_fg_p99_ms < ranking.baseline_fg_p99_ms);
        assert!(only.improvement_ms > 0.0 && only.improvement_per_musd_km > 0.0);
    }

    #[test]
    fn shortlist_cap_limits_the_simulated_candidates() {
        let topo = test_topology();
        let lowered = classified_lowering(&topo);
        let config = UpgradeConfig {
            max_candidates: 1,
            ..UpgradeConfig::default()
        };
        let ranking = rank_upgrades(&topo, &lowered, &CostModel::default(), &config);
        assert_eq!(ranking.options.len(), 1);
    }

    #[test]
    #[should_panic]
    fn non_expanding_multiplier_is_rejected() {
        let topo = test_topology();
        let lowered = classified_lowering(&topo);
        let config = UpgradeConfig {
            rate_multiplier: 1.0,
            ..UpgradeConfig::default()
        };
        rank_upgrades(&topo, &lowered, &CostModel::default(), &config);
    }
}
