//! Queueing-aware weather analysis: storms pushed through the packet
//! simulator.
//!
//! The geodesic rerouting analysis ([`crate::reroute`]) answers "how much
//! *propagation* latency does bad weather cost?". This module answers the
//! operational question behind it: when microwave links fail and their
//! traffic is re-routed onto the surviving (narrower) network, what happens
//! to *delivered* latency and loss once queueing is accounted for? Each
//! storm interval's failed links are mapped onto the lowered site-level
//! network via [`LoweredNetwork::mw_link_ids`], the fair-weather routes that
//! cross them are re-routed ([`reroute_avoiding`]: ≈5 % of the demands per
//! interval at paper scale, every other route is kept), and the same demand
//! set is replayed through the packet engine.
//!
//! # What runs where
//!
//! A sweep is one lowered network and many short, independent runs, so its
//! parallelism is *across* runs. The fair-weather run comes first, under the
//! caller's [`SimConfig`]. The failure sets of all fields are then computed
//! ([`failure_sweep`](crate::failures::failure_sweep)'s cascade, fields
//! drained in parallel), and the *jobs* are the distinct stormy neighbours:
//! a calm interval is a copy of the fair-weather row, an interval whose
//! failure set equals the previous stormy one is a copy of that row (2 of
//! the 133 stormy intervals of the paper-scale sweep; a memo keyed by
//! failure set finds no further repeat), and every other interval is a job.
//! The jobs go to [`LoweredNetwork::rerun`], the one what-if path, together
//! with the fair-weather simulation itself: the sweep builds none of its
//! own. It spends [`SimConfig::workers`] across the jobs (resolved as the
//! engine resolves it, `0` = one per core; [`Simulation::into_sweep`]): the
//! fair-weather simulation serves one worker, warm engine and first-emission
//! list included, and each other worker runs a clone of it. Before the
//! fan-out every demand source's fair-weather shortest-path tree is built,
//! once, and the workers share them read-only. Each job turns its worker's
//! simulation into its variant — restore the link rates, repair the trees
//! under the failed links (a storm variant re-solves ≈ 700 nodes over all
//! sources, where searching each source that owns a broken route settled
//! ≈ 7 900) — then simulates on the worker's warm engine and reduces to a
//! row. Whenever more than one job is in flight a job runs with
//! `workers: 1`: one shard over every active flow, no partition. A 6 ms
//! variant does not pay for the engine's windowed gang, so on more workers
//! it would run on that same serial engine; whole components spread over
//! threads of its own, an execution the engine no longer has, lost
//! 0.9–1.3 ms of wall clock on it (paper-scale storm variants, each run
//! both ways three times, alternating, on two cores). `workers: 1` is
//! therefore the fully serial sweep, and every width returns its rows bit
//! for bit ([`SimReport`] does not depend on `workers`, jobs share nothing
//! they write, rows are placed by job index). [`conduit_cut_analysis`]
//! runs its cut scenarios through the same method, and so does
//! `cisp_core::economics::rank_upgrades` its upgrade candidates.
//!
//! [`reroute_avoiding`]: cisp_netsim::routing::reroute_avoiding
//! [`SimConfig`]: cisp_netsim::sim::SimConfig
//! [`SimConfig::workers`]: cisp_netsim::sim::SimConfig::workers

use cisp_core::evaluate::{lower, EvaluateConfig, LoweredNetwork};
use cisp_core::topology::HybridTopology;
use cisp_graph::DistMatrix;
use cisp_netsim::sim::Simulation;
use cisp_netsim::SimReport;

use crate::failures::{failure_sweep_on, FailureConfig};
use crate::storms::StormField;

/// One interval's queueing-aware outcome.
#[derive(Debug, Clone)]
pub struct IntervalQueueing {
    /// Number of microwave links down this interval.
    pub failed_links: usize,
    /// Mean delivered one-way delay, milliseconds.
    pub mean_delay_ms: f64,
    /// 95th-percentile delivered one-way delay, milliseconds.
    pub p95_delay_ms: f64,
    /// Mean queueing delay per packet, milliseconds.
    pub mean_queue_delay_ms: f64,
    /// Fraction of offered packets lost.
    pub loss_rate: f64,
}

impl IntervalQueueing {
    fn from_report(report: &SimReport, failed_links: usize) -> Self {
        Self {
            failed_links,
            mean_delay_ms: report.mean_delay_ms,
            p95_delay_ms: report.p95_delay_ms,
            mean_queue_delay_ms: report.mean_queue_delay_ms,
            loss_rate: report.loss_rate,
        }
    }
}

/// The queueing-aware weather report: the fair-weather baseline plus one
/// entry per analysed storm interval.
#[derive(Debug, Clone)]
pub struct QueueingWeatherReport {
    /// All-links-up baseline.
    pub fair: IntervalQueueing,
    /// Per-interval outcomes, in interval order.
    pub intervals: Vec<IntervalQueueing>,
}

impl QueueingWeatherReport {
    /// Worst mean delivered delay across intervals (the fair baseline when
    /// no intervals were analysed).
    pub fn worst_mean_delay_ms(&self) -> f64 {
        self.intervals
            .iter()
            .map(|i| i.mean_delay_ms)
            .fold(self.fair.mean_delay_ms, f64::max)
    }

    /// The `q`-quantile of the per-interval mean delivered delay.
    pub fn mean_delay_quantile_ms(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q));
        if self.intervals.is_empty() {
            return self.fair.mean_delay_ms;
        }
        let mut sorted: Vec<f64> = self.intervals.iter().map(|i| i.mean_delay_ms).collect();
        sorted.sort_by(f64::total_cmp);
        sorted[((sorted.len() - 1) as f64 * q).round() as usize]
    }

    /// Worst per-interval loss rate.
    pub fn worst_loss_rate(&self) -> f64 {
        self.intervals
            .iter()
            .map(|i| i.loss_rate)
            .fold(self.fair.loss_rate, f64::max)
    }

    /// Mean number of failed links per interval.
    pub fn mean_failed_links(&self) -> f64 {
        if self.intervals.is_empty() {
            return 0.0;
        }
        self.intervals
            .iter()
            .map(|i| i.failed_links as f64)
            .sum::<f64>()
            / self.intervals.len() as f64
    }
}

/// Run the queueing-aware weather analysis: lower the designed topology
/// once, then for every storm field fail the affected links, re-route the
/// demands around them, and replay the traffic through the packet engine.
/// `evaluate_config.sim.workers` runs are in flight at a time (see the
/// [module documentation](self)); the report does not depend on it.
pub fn storm_queueing_analysis(
    topology: &HybridTopology,
    offered_traffic: &DistMatrix,
    fields: &[StormField],
    failure_config: &FailureConfig,
    evaluate_config: &EvaluateConfig,
) -> QueueingWeatherReport {
    let lowered = lower(topology, offered_traffic, evaluate_config);
    let mut fair_sim = lowered.simulation();
    let fair = IntervalQueueing::from_report(&fair_sim.run(), 0);

    let workers = lowered.config.sim.workers;
    let failures = failure_sweep_on(topology, fields, failure_config, workers).0;
    // The distinct stormy neighbours, and per interval the job whose row it
    // takes (`None` = calm, the fair-weather row).
    let mut jobs: Vec<&[usize]> = Vec::new();
    let row_of: Vec<Option<usize>> = failures
        .iter()
        .map(|failed| {
            if failed.is_empty() {
                return None;
            }
            if jobs.last() != Some(&failed.as_slice()) {
                jobs.push(failed);
            }
            Some(jobs.len() - 1)
        })
        .collect();

    let rows = lowered.rerun(
        fair_sim,
        jobs.len(),
        |j, _| lowered.disabled_mask(jobs[j]),
        |j, sim| IntervalQueueing::from_report(&sim.run(), jobs[j].len()),
    );

    let intervals = row_of
        .into_iter()
        .map(|job| job.map_or_else(|| fair.clone(), |j| rows[j].clone()))
        .collect();
    QueueingWeatherReport { fair, intervals }
}

/// The delivered outcome of one conduit-cut scenario (or the uncut
/// baseline).
#[derive(Debug, Clone)]
pub struct ConduitCutOutcome {
    /// Number of conduit segments cut in this scenario.
    pub cut_segments: usize,
    /// Demands (of those with distinct endpoints) left with no surviving
    /// route at all.
    pub unroutable_demands: usize,
    /// Mean delivered one-way delay, milliseconds.
    pub mean_delay_ms: f64,
    /// 95th-percentile delivered one-way delay, milliseconds.
    pub p95_delay_ms: f64,
    /// Mean queueing delay per packet, milliseconds.
    pub mean_queue_delay_ms: f64,
    /// Fraction of offered packets lost.
    pub loss_rate: f64,
    /// Packets delivered.
    pub delivered: u64,
}

/// The conduit-cut report: the uncut baseline plus one outcome per cut
/// scenario, in scenario order.
#[derive(Debug, Clone)]
pub struct ConduitCutReport {
    /// All-conduits-up baseline.
    pub baseline: ConduitCutOutcome,
    /// Per-scenario outcomes.
    pub cuts: Vec<ConduitCutOutcome>,
}

impl ConduitCutReport {
    /// Worst mean delivered delay across cut scenarios (the baseline when
    /// none were analysed).
    pub fn worst_mean_delay_ms(&self) -> f64 {
        self.cuts
            .iter()
            .map(|c| c.mean_delay_ms)
            .fold(self.baseline.mean_delay_ms, f64::max)
    }

    /// Worst loss rate across cut scenarios.
    pub fn worst_loss_rate(&self) -> f64 {
        self.cuts
            .iter()
            .map(|c| c.loss_rate)
            .fold(self.baseline.loss_rate, f64::max)
    }
}

/// Conduit segments ranked by how much traffic their simulator links
/// carried in `report` (most-loaded first, zero-utilisation segments
/// omitted) — the natural pick for "cut a loaded conduit" scenarios.
pub fn most_loaded_conduits(lowered: &LoweredNetwork, report: &SimReport) -> Vec<usize> {
    let mut ranked: Vec<(usize, f64)> = lowered
        .conduit_link_ids
        .iter()
        .enumerate()
        .filter(|&(_, &(fwd, _))| fwd != usize::MAX)
        .map(|(s, &(fwd, rev))| {
            (
                s,
                report.link_utilizations[fwd].max(report.link_utilizations[rev]),
            )
        })
        .filter(|&(_, u)| u > 0.0)
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.into_iter().map(|(s, _)| s).collect()
}

fn conduit_outcome(sim: &mut Simulation, cut_segments: usize) -> ConduitCutOutcome {
    let unroutable = sim
        .demands()
        .iter()
        .enumerate()
        .filter(|&(k, d)| d.src != d.dst && sim.routes().route(k).is_empty())
        .count();
    let report = sim.run();
    ConduitCutOutcome {
        cut_segments,
        unroutable_demands: unroutable,
        mean_delay_ms: report.mean_delay_ms,
        p95_delay_ms: report.p95_delay_ms,
        mean_queue_delay_ms: report.mean_queue_delay_ms,
        loss_rate: report.loss_rate,
        delivered: report.delivered,
    }
}

/// Fiber-cut analysis over a conduit-backed lowering: for every scenario
/// (a set of conduit segment indices to sever), disable the affected
/// simulator links, re-route the demands that crossed them — surviving
/// traffic re-routes over the remaining conduits and the microwave spine —
/// and replay the same demand set through the packet engine. This is the
/// scenario family the paper's conduit grounding motivates and a
/// pre-flattened fiber matrix cannot express: cutting one physical
/// segment severs *every* route that shares it. Taking the lowering (e.g.
/// the one [`most_loaded_conduits`] ranked segments on) means ranking and
/// cutting cannot run under mismatched configurations.
///
/// Panics unless `lowered` is conduit-backed
/// ([`HybridTopology::with_conduits`]).
pub fn conduit_cut_analysis(
    lowered: &LoweredNetwork,
    cut_scenarios: &[Vec<usize>],
) -> ConduitCutReport {
    assert!(
        !lowered.conduit_link_ids.is_empty(),
        "conduit cut analysis needs a conduit-backed lowering \
         (HybridTopology::with_conduits)"
    );
    let mut fair = lowered.simulation();
    let baseline = conduit_outcome(&mut fair, 0);
    let cuts = lowered.rerun(
        fair,
        cut_scenarios.len(),
        |j, _| lowered.conduit_disabled_mask(&cut_scenarios[j]),
        |j, sim| conduit_outcome(sim, cut_scenarios[j].len()),
    );
    ConduitCutReport { baseline, cuts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storms::Storm;
    use cisp_core::links::CandidateLink;
    use cisp_geo::{geodesic, GeoPoint};
    use cisp_netsim::sim::SimConfig;

    /// A 4-site topology with MW links on a chain, fiber at 1.9×.
    fn test_topology() -> HybridTopology {
        let sites = vec![
            GeoPoint::new(41.9, -87.6),  // Chicago
            GeoPoint::new(39.1, -94.6),  // Kansas City
            GeoPoint::new(32.8, -96.8),  // Dallas
            GeoPoint::new(39.7, -105.0), // Denver
        ];
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
        for (a, b) in [(0usize, 1usize), (1, 2), (1, 3)] {
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

    fn fast_config() -> EvaluateConfig {
        EvaluateConfig {
            design_aggregate_gbps: 4.0,
            load_fraction: 0.4,
            sim: SimConfig {
                duration_s: 0.05,
                ..SimConfig::default()
            },
            ..EvaluateConfig::default()
        }
    }

    #[test]
    fn storms_raise_queueing_aware_latency_but_calm_skies_do_not() {
        let topo = test_topology();
        let calm = StormField::default();
        // A violent storm over Kansas City knocks out its links.
        let violent = StormField {
            storms: vec![Storm {
                center: GeoPoint::new(39.1, -94.6),
                radius_km: 400.0,
                peak_mm_h: 100.0,
            }],
        };
        let fields = vec![calm.clone(), violent.clone(), violent, calm];
        let report = storm_queueing_analysis(
            &topo,
            topo.traffic(),
            &fields,
            &FailureConfig::default(),
            &fast_config(),
        );
        assert_eq!(report.intervals.len(), 4);
        // Calm intervals equal the fair baseline exactly (memoised).
        assert_eq!(report.intervals[0].mean_delay_ms, report.fair.mean_delay_ms);
        assert_eq!(report.intervals[3].failed_links, 0);
        // The stormy intervals failed links and pay latency for it.
        assert!(report.intervals[1].failed_links > 0);
        assert!(report.intervals[1].mean_delay_ms > report.fair.mean_delay_ms);
        // Identical consecutive failure sets are memoised to identical rows.
        assert_eq!(
            report.intervals[1].mean_delay_ms,
            report.intervals[2].mean_delay_ms
        );
        assert!(report.worst_mean_delay_ms() >= report.fair.mean_delay_ms);
        assert!(report.mean_failed_links() > 0.0);
        assert!(report.mean_delay_quantile_ms(0.5) >= report.fair.mean_delay_ms);
        assert!(report.worst_loss_rate() >= 0.0);
    }

    /// The 4-site topology conduit-backed: a conduit chain through Kansas
    /// City plus a direct Chicago–Denver conduit, no MW spine — every
    /// demand rides the conduits, so cuts bite.
    fn conduit_topology() -> HybridTopology {
        use cisp_core::topology::{FiberLink, FiberNetwork};
        let sites = vec![
            GeoPoint::new(41.9, -87.6),  // Chicago
            GeoPoint::new(39.1, -94.6),  // Kansas City
            GeoPoint::new(32.8, -96.8),  // Dallas
            GeoPoint::new(39.7, -105.0), // Denver
        ];
        let n = sites.len();
        let seg = |a: usize, b: usize, factor: f64| FiberLink {
            a,
            b,
            route_km: cisp_geo::geodesic::distance_km(sites[a], sites[b]) * factor,
        };
        let fiber = FiberNetwork::from_parts(
            sites.clone(),
            vec![
                seg(0, 1, 1.25),
                seg(1, 2, 1.25),
                seg(1, 3, 1.25),
                seg(0, 3, 1.4),
            ],
        );
        let traffic = vec![vec![1.0; n]; n];
        HybridTopology::with_conduits(sites, traffic, &fiber)
    }

    #[test]
    fn cutting_a_loaded_conduit_strictly_degrades_delivery() {
        let topo = conduit_topology();
        let config = EvaluateConfig {
            design_aggregate_gbps: 4.0,
            load_fraction: 0.5,
            // Fiber capacity in demand range, so re-routed traffic both
            // lengthens paths and congests the survivors.
            fiber_rate_bps: 2e9,
            sim: SimConfig {
                duration_s: 0.05,
                ..SimConfig::default()
            },
            ..EvaluateConfig::default()
        };
        let lowered = lower(&topo, topo.traffic(), &config);
        let baseline_report = lowered.simulation().run();
        let ranked = most_loaded_conduits(&lowered, &baseline_report);
        assert!(!ranked.is_empty(), "baseline must load some conduit");

        // Cut the most-loaded conduit alone, then the two most-loaded.
        let scenarios = vec![vec![ranked[0]], ranked.iter().copied().take(2).collect()];
        let report = conduit_cut_analysis(&lowered, &scenarios);
        assert_eq!(report.baseline.cut_segments, 0);
        assert_eq!(report.baseline.unroutable_demands, 0);
        assert!(report.baseline.delivered > 0);
        assert_eq!(report.cuts.len(), 2);
        for cut in &report.cuts {
            assert!(cut.delivered > 0, "the conduit graph survives these cuts");
            // Severing a loaded conduit must strictly worsen delivered
            // latency or loss — the acceptance invariant.
            assert!(
                cut.mean_delay_ms > report.baseline.mean_delay_ms
                    || cut.loss_rate > report.baseline.loss_rate,
                "cutting {} loaded segment(s) did not degrade delivery \
                 (delay {} vs {}, loss {} vs {})",
                cut.cut_segments,
                cut.mean_delay_ms,
                report.baseline.mean_delay_ms,
                cut.loss_rate,
                report.baseline.loss_rate
            );
        }
        assert!(report.worst_mean_delay_ms() >= report.baseline.mean_delay_ms);
        assert!(report.worst_loss_rate() >= report.baseline.loss_rate);
    }

    #[test]
    fn cutting_every_conduit_leaves_demands_unroutable() {
        let topo = conduit_topology();
        let config = fast_config();
        let all: Vec<usize> = (0..topo.conduits().unwrap().num_segments()).collect();
        let report = conduit_cut_analysis(&lower(&topo, topo.traffic(), &config), &[all]);
        let cut = &report.cuts[0];
        assert_eq!(cut.cut_segments, 4);
        // No MW spine and no conduits: every distinct-endpoint demand dies.
        assert_eq!(cut.unroutable_demands, 12);
        assert_eq!(cut.delivered, 0);
        assert_eq!(cut.mean_delay_ms, 0.0);
    }

    #[test]
    #[should_panic(expected = "conduit-backed")]
    fn conduit_cut_analysis_rejects_matrix_backed_topologies() {
        let topo = test_topology();
        conduit_cut_analysis(&lower(&topo, topo.traffic(), &fast_config()), &[]);
    }
}
