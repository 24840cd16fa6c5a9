//! The what-if sweeps fan their runs out over `SimConfig::workers`
//! (`cisp::netsim::jobs::drain_jobs`); every width must return what a serial
//! loop returns, bit for bit.
//!
//! The oracles here share only public calls with the code under test — they
//! are the loops a user would write (and `cisp_benchmark`'s decomposed storm
//! op does write): `lower`, `lowered.simulation().run()`, then per variant
//! the failure or cut mask, `compute_routes_avoiding`, and
//! `Simulation::with_routes(..).run()` at `workers: 1`; per upgrade, the
//! rate-scaled network through `Simulation::new(..).run()`, which routes
//! from scratch. No memo, no job list, no `reroute_avoiding`, no
//! `LoweredNetwork::rerun`.
//!
//! The widths swept come from `CISP_TEST_WORKERS` (comma-separated, default
//! `1,2,4`, as in `tests/sim_pipeline_parity.rs`), plus `0` — the machine's
//! parallelism — always.

use cisp::core::cost::CostModel;
use cisp::core::economics::{rank_upgrades, UpgradeConfig, UpgradeRanking};
use cisp::core::evaluate::{lower, lower_classified, EvaluateConfig, LoweredNetwork};
use cisp::core::links::CandidateLink;
use cisp::core::scenario::{population_product_traffic, Scenario, ScenarioConfig};
use cisp::core::topology::{FiberLink, FiberNetwork, HybridTopology};
use cisp::geo::{geodesic, GeoPoint};
use cisp::graph::DistMatrix;
use cisp::netsim::flows::ArrivalProcess;
use cisp::netsim::jobs::test_widths;
use cisp::netsim::routing::{compute_routes_avoiding, RoutingScheme};
use cisp::netsim::sim::{SimConfig, Simulation};
use cisp::netsim::{Network, SimReport};
use cisp::weather::failures::{failure_sweep, link_failures, FailureConfig, FailureGeometry};
use cisp::weather::simulate::{
    conduit_cut_analysis, ConduitCutOutcome, ConduitCutReport, IntervalQueueing,
};
use cisp::weather::storms::{Storm, StormField, StormYear, StormYearConfig};
use cisp::weather::{storm_queueing_analysis, QueueingWeatherReport};

/// `CISP_TEST_WORKERS` (comma-separated) or `1,2,4`, then `0`.
fn widths_then_machine() -> Vec<usize> {
    let mut widths = test_widths(&[1, 2, 4]);
    widths.push(0);
    widths
}

fn with_workers(config: &EvaluateConfig, workers: usize) -> EvaluateConfig {
    EvaluateConfig {
        sim: SimConfig {
            workers,
            ..config.sim
        },
        ..*config
    }
}

const SITES: [(f64, f64); 4] = [
    (41.9, -87.6),  // Chicago
    (39.1, -94.6),  // Kansas City
    (32.8, -96.8),  // Dallas
    (39.7, -105.0), // Denver
];

fn sites() -> Vec<GeoPoint> {
    SITES.map(|(lat, lon)| GeoPoint::new(lat, lon)).to_vec()
}

/// Four sites, MW links Chicago–Kansas City–Dallas and Kansas City–Denver,
/// fiber at 1.9× geodesic.
fn chain_topology() -> HybridTopology {
    let sites = sites();
    let n = sites.len();
    let fiber: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| geodesic::distance_km(sites[i], sites[j]) * 1.9)
                .collect()
        })
        .collect();
    let mut topology = HybridTopology::new(sites.clone(), vec![vec![1.0; n]; n], fiber);
    for (a, b) in [(0usize, 1usize), (1, 2), (1, 3)] {
        let geo = geodesic::distance_km(sites[a], sites[b]);
        topology.add_mw_link(CandidateLink {
            site_a: a,
            site_b: b,
            mw_length_km: geo * 1.04,
            tower_count: (geo / 80.0).ceil() as usize,
            tower_path: vec![0; 3],
        });
    }
    topology
}

fn chain_config() -> EvaluateConfig {
    EvaluateConfig {
        design_aggregate_gbps: 4.0,
        load_fraction: 0.4,
        sim: SimConfig {
            duration_s: 0.03,
            ..SimConfig::default()
        },
        ..EvaluateConfig::default()
    }
}

fn storm_at(site: usize, radius_km: f64) -> StormField {
    let (lat, lon) = SITES[site];
    StormField {
        storms: vec![Storm {
            center: GeoPoint::new(lat, lon),
            radius_km,
            peak_mm_h: 120.0,
        }],
    }
}

fn interval(report: &SimReport, failed_links: usize) -> IntervalQueueing {
    IntervalQueueing {
        failed_links,
        mean_delay_ms: report.mean_delay_ms,
        p95_delay_ms: report.p95_delay_ms,
        mean_queue_delay_ms: report.mean_queue_delay_ms,
        loss_rate: report.loss_rate,
    }
}

/// A fresh simulation of `lowered` whose every route is recomputed around
/// the masked links.
fn run_avoiding(lowered: &LoweredNetwork, disabled: &[bool]) -> Simulation {
    let routes = compute_routes_avoiding(
        &lowered.network,
        &lowered.demands,
        lowered.config.sim.routing,
        disabled,
    );
    Simulation::with_routes(
        lowered.network.clone(),
        lowered.demands.clone(),
        routes,
        lowered.config.sim,
    )
}

/// The serial storm sweep from public calls: every stormy field is a fresh
/// re-route of every demand and a fresh run.
fn serial_storm_sweep(
    topology: &HybridTopology,
    traffic: &DistMatrix,
    fields: &[StormField],
    failure: &FailureConfig,
    config: &EvaluateConfig,
) -> QueueingWeatherReport {
    let config = with_workers(config, 1);
    let lowered = lower(topology, traffic, &config);
    let fair = interval(&lowered.simulation().run(), 0);
    let intervals = fields
        .iter()
        .map(|field| {
            let failed = link_failures(topology, field, failure);
            if failed.is_empty() {
                return fair.clone();
            }
            let report = run_avoiding(&lowered, &lowered.disabled_mask(&failed)).run();
            interval(&report, failed.len())
        })
        .collect();
    QueueingWeatherReport { fair, intervals }
}

fn interval_bits(i: &IntervalQueueing) -> (usize, [u64; 4]) {
    (
        i.failed_links,
        [
            i.mean_delay_ms,
            i.p95_delay_ms,
            i.mean_queue_delay_ms,
            i.loss_rate,
        ]
        .map(f64::to_bits),
    )
}

/// `storm_queueing_analysis` at every width against the serial oracle;
/// returns the oracle's report for fixture-specific asserts.
fn assert_storm_parity(
    topology: &HybridTopology,
    traffic: &DistMatrix,
    fields: &[StormField],
    config: &EvaluateConfig,
    widths: &[usize],
) -> QueueingWeatherReport {
    let failure = FailureConfig::default();
    let expected = serial_storm_sweep(topology, traffic, fields, &failure, config);
    assert_eq!(expected.intervals.len(), fields.len());
    for &workers in widths {
        let got = storm_queueing_analysis(
            topology,
            traffic,
            fields,
            &failure,
            &with_workers(config, workers),
        );
        assert_eq!(
            interval_bits(&got.fair),
            interval_bits(&expected.fair),
            "fair-weather row, workers {workers}"
        );
        assert_eq!(got.intervals.len(), fields.len(), "workers {workers}");
        for (k, (g, e)) in got.intervals.iter().zip(&expected.intervals).enumerate() {
            assert_eq!(
                interval_bits(g),
                interval_bits(e),
                "interval {k}, workers {workers}"
            );
        }
    }
    expected
}

#[test]
fn storm_sweep_matches_the_serial_oracle_on_the_chain() {
    let topology = chain_topology();
    let config = chain_config();
    let widths = widths_then_machine();
    let calm = StormField::default;
    let check = |fields: &[StormField]| {
        assert_storm_parity(&topology, topology.traffic(), fields, &config, &widths)
    };

    // All calm: every row is the fair-weather one, no job at all.
    let report = check(&[calm(), calm(), calm()]);
    for row in &report.intervals {
        assert_eq!(interval_bits(row), interval_bits(&report.fair));
    }
    check(&[]);

    // One stormy interval: one job, whatever the width.
    let report = check(&[calm(), storm_at(3, 150.0), calm()]);
    assert_eq!(report.intervals[1].failed_links, 1, "Denver's link alone");
    assert!(report.intervals[1].mean_delay_ms > report.fair.mean_delay_ms);

    // A set repeated by its neighbour (a copy of the first's row) and the
    // same set again after a calm gap; one more distinct set after it.
    let report = check(&[
        storm_at(2, 150.0),
        storm_at(2, 150.0),
        calm(),
        storm_at(2, 150.0),
        storm_at(3, 150.0),
        storm_at(2, 150.0),
    ]);
    for k in [1, 3, 5] {
        assert_eq!(
            interval_bits(&report.intervals[k]),
            interval_bits(&report.intervals[0]),
            "interval {k} has interval 0's failure set"
        );
    }
    assert_ne!(
        interval_bits(&report.intervals[4]),
        interval_bits(&report.intervals[0])
    );

    // A storm that fails every MW link: all traffic falls back to fiber.
    let report = check(&[storm_at(1, 2_000.0), calm()]);
    assert_eq!(report.intervals[0].failed_links, 3);
    assert!(report.intervals[0].mean_delay_ms > report.fair.mean_delay_ms);

    // Many distinct neighbours, so every width has jobs for every worker.
    let many: Vec<StormField> = (0..12)
        .map(|k| match k % 4 {
            0 => storm_at(0, 150.0),
            1 => storm_at(2, 150.0),
            2 => storm_at(3, 150.0),
            _ => storm_at(1, 150.0),
        })
        .collect();
    check(&many);
}

#[test]
fn storm_sweep_with_more_workers_than_jobs() {
    let topology = chain_topology();
    let fields = [storm_at(2, 150.0), storm_at(3, 150.0)];
    assert_storm_parity(
        &topology,
        topology.traffic(),
        &fields,
        &chain_config(),
        &[3, 16, 64],
    );
}

#[test]
fn storm_sweep_matches_the_serial_oracle_on_the_designed_backbone() {
    let scenario = Scenario::build(&ScenarioConfig::tiny_test());
    let topology = scenario.design(300.0).topology;
    let traffic = population_product_traffic(scenario.cities());
    let config = EvaluateConfig {
        design_aggregate_gbps: 4.0,
        load_fraction: 0.6,
        sim: SimConfig {
            duration_s: 0.02,
            ..SimConfig::default()
        },
        ..EvaluateConfig::default()
    };

    // The 30 consecutive fields of the year that fail links most often.
    let year = StormYear::generate(2_024, &StormYearConfig::us_default());
    let failure = FailureConfig::default();
    let stormy: Vec<bool> = failure_sweep(&topology, year.fields(), &failure)
        .0
        .iter()
        .map(|failed| !failed.is_empty())
        .collect();
    let stormy_in = |start: usize| stormy[start..start + 30].iter().filter(|&&s| s).count();
    let start = (0..=year.len() - 30)
        .max_by_key(|&s| stormy_in(s))
        .expect("a year has 30 fields");
    assert!(
        stormy_in(start) >= 4,
        "only {} stormy intervals in the slice",
        stormy_in(start)
    );

    let fields = &year.fields()[start..start + 30];
    let report = assert_storm_parity(&topology, &traffic, fields, &config, &widths_then_machine());
    assert!(report.worst_mean_delay_ms() >= report.fair.mean_delay_ms);
}

/// The chain's sites conduit-backed: conduits Chicago–Kansas City–Dallas,
/// Kansas City–Denver and Chicago–Denver, no MW spine.
fn conduit_topology() -> HybridTopology {
    let sites = sites();
    let n = sites.len();
    let seg = |a: usize, b: usize, factor: f64| FiberLink {
        a,
        b,
        route_km: geodesic::distance_km(sites[a], sites[b]) * factor,
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
    HybridTopology::with_conduits(sites, vec![vec![1.0; n]; n], &fiber)
}

fn serial_conduit_outcome(mut run: Simulation, cut_segments: usize) -> ConduitCutOutcome {
    let unroutable_demands = (0..run.demands().len())
        .filter(|&k| {
            let d = &run.demands()[k];
            d.src != d.dst && run.routes().route(k).is_empty()
        })
        .count();
    let report = run.run();
    ConduitCutOutcome {
        cut_segments,
        unroutable_demands,
        mean_delay_ms: report.mean_delay_ms,
        p95_delay_ms: report.p95_delay_ms,
        mean_queue_delay_ms: report.mean_queue_delay_ms,
        loss_rate: report.loss_rate,
        delivered: report.delivered,
    }
}

fn outcome_bits(o: &ConduitCutOutcome) -> (usize, usize, u64, [u64; 4]) {
    (
        o.cut_segments,
        o.unroutable_demands,
        o.delivered,
        [
            o.mean_delay_ms,
            o.p95_delay_ms,
            o.mean_queue_delay_ms,
            o.loss_rate,
        ]
        .map(f64::to_bits),
    )
}

#[test]
fn conduit_cuts_match_the_serial_oracle_at_every_width() {
    let topology = conduit_topology();
    let config = EvaluateConfig {
        fiber_rate_bps: 2e9,
        load_fraction: 0.5,
        ..chain_config()
    };
    let every: Vec<usize> = (0..topology.conduits().unwrap().num_segments()).collect();
    let scenario_sets: [Vec<Vec<usize>>; 4] = [
        vec![],
        vec![vec![0]],
        vec![vec![1], vec![0, 3]],
        vec![vec![2], every.clone(), vec![], vec![0], vec![3, 1], every],
    ];

    let serial = lower(&topology, topology.traffic(), &with_workers(&config, 1));
    for scenarios in &scenario_sets {
        let expected = ConduitCutReport {
            baseline: serial_conduit_outcome(serial.simulation(), 0),
            cuts: scenarios
                .iter()
                .map(|cut| {
                    let run = run_avoiding(&serial, &serial.conduit_disabled_mask(cut));
                    serial_conduit_outcome(run, cut.len())
                })
                .collect(),
        };
        for workers in widths_then_machine() {
            let lowered = lower(
                &topology,
                topology.traffic(),
                &with_workers(&config, workers),
            );
            let got = conduit_cut_analysis(&lowered, scenarios);
            assert_eq!(
                outcome_bits(&got.baseline),
                outcome_bits(&expected.baseline)
            );
            assert_eq!(got.cuts.len(), scenarios.len());
            for (k, (g, e)) in got.cuts.iter().zip(&expected.cuts).enumerate() {
                assert_eq!(
                    outcome_bits(g),
                    outcome_bits(e),
                    "scenario {k} of {}, workers {workers}",
                    scenarios.len()
                );
            }
        }
    }
    // The fixture bites: cutting everything strands every demand.
    let all_cut = serial_conduit_outcome(
        run_avoiding(&serial, &serial.conduit_disabled_mask(&[0, 1, 2, 3])),
        4,
    );
    assert_eq!((all_cut.unroutable_demands, all_cut.delivered), (12, 0));
}

/// Every float of a report as its bits, and every count: equal tuples are
/// equal reports field for field, per-flow vectors and link utilisations
/// included.
#[allow(clippy::type_complexity)]
fn report_bits(r: &SimReport) -> ([u64; 6], [u64; 2], Vec<u64>, Vec<u64>, Vec<u64>, Vec<u64>) {
    (
        [
            r.mean_delay_ms,
            r.p95_delay_ms,
            r.mean_queue_delay_ms,
            r.loss_rate,
            r.mean_link_utilization,
            r.max_link_utilization,
        ]
        .map(f64::to_bits),
        [r.delivered, r.dropped],
        r.flow_mean_delay_ms.iter().map(|v| v.to_bits()).collect(),
        r.flow_delivered.clone(),
        r.flow_dropped.clone(),
        r.link_utilizations.iter().map(|v| v.to_bits()).collect(),
    )
}

/// A sweep whose variants alternate the three things a variant can be —
/// a mask that strands demands, every link up, one MW link at four times
/// its rate — so each worker's one simulation is turned from each kind into
/// each other kind. Every row must be the report of a cold
/// `Simulation::with_routes(..).run()` over routes computed from scratch.
#[test]
fn alternating_variants_match_cold_runs_field_for_field() {
    let topology = chain_topology();
    for routing in [
        RoutingScheme::ShortestPath,
        RoutingScheme::MinMaxUtilization,
    ] {
        let config = EvaluateConfig {
            // Fiber in the MW links' rate range, so min-max routing loads
            // the MW links and sees an upgrade.
            fiber_rate_bps: 2e9,
            sim: SimConfig {
                arrivals: ArrivalProcess::Poisson,
                routing,
                ..chain_config().sim
            },
            ..chain_config()
        };
        let serial = lower(&topology, topology.traffic(), &with_workers(&config, 1));
        // Denver (site 3) cut off: every link at it down.
        let stranded: Vec<bool> = serial
            .network
            .links()
            .iter()
            .map(|l| l.from == 3 || l.to == 3)
            .collect();
        let scale = |v: usize, network: &mut Network| {
            let (fwd, rev) = serial.mw_link_ids[(v / 3) % serial.mw_link_ids.len()];
            for id in [fwd, rev] {
                network.set_link_rate(id, network.link(id).rate_bps * 4.0);
            }
        };
        let variant = |v: usize, network: &mut Network| match v % 3 {
            0 => stranded.clone(),
            1 => Vec::new(),
            _ => {
                scale(v, network);
                Vec::new()
            }
        };
        const VARIANTS: usize = 9;
        let cold: Vec<SimReport> = (0..VARIANTS)
            .map(|v| {
                let mut network = serial.network.clone();
                let disabled = variant(v, &mut network);
                let routes = compute_routes_avoiding(&network, &serial.demands, routing, &disabled);
                Simulation::with_routes(network, serial.demands.clone(), routes, serial.config.sim)
                    .run()
            })
            .collect();
        // The fixture bites: the cut strands Denver's demands, the other
        // kinds deliver every flow, and the upgrade moves the report.
        assert!(cold[0].flow_delivered.contains(&0));
        assert!(cold[1].flow_delivered.iter().all(|&d| d > 0));
        assert_ne!(report_bits(&cold[1]), report_bits(&cold[2]), "{routing:?}");

        for workers in [1, 2] {
            let lowered = lower(
                &topology,
                topology.traffic(),
                &with_workers(&config, workers),
            );
            let rows = lowered.rerun(lowered.simulation(), VARIANTS, variant, |_, sim| sim.run());
            for (v, (got, want)) in rows.iter().zip(&cold).enumerate() {
                assert_eq!(
                    report_bits(got),
                    report_bits(want),
                    "{routing:?}, workers {workers}, variant {v}"
                );
                assert_eq!(got, want, "{routing:?}, workers {workers}, variant {v}");
            }
        }
    }
}

fn classified_lowering(
    topology: &HybridTopology,
    routing: RoutingScheme,
    workers: usize,
) -> LoweredNetwork {
    let config = EvaluateConfig {
        load_fraction: 0.9,
        // Fiber in the MW links' rate range, so min-max routing weighs the
        // two and an upgraded MW link draws routes onto itself.
        fiber_rate_bps: 2e9,
        sim: SimConfig {
            duration_s: 0.05,
            arrivals: ArrivalProcess::Poisson,
            routing,
            workers,
            ..SimConfig::default()
        },
        ..chain_config()
    };
    lower_classified(
        topology,
        topology.traffic(),
        topology.traffic(),
        2.0,
        &config,
    )
}

fn ranking_bits(r: &UpgradeRanking) -> (u64, Vec<(usize, [u64; 6])>) {
    (
        r.baseline_fg_p99_ms.to_bits(),
        r.options
            .iter()
            .map(|o| {
                (
                    o.mw_link_index,
                    [
                        o.baseline_utilization,
                        o.upgrade_cost_usd,
                        o.upgraded_fg_p99_ms,
                        o.improvement_ms,
                        o.improvement_per_musd_km,
                        o.length_km,
                    ]
                    .map(f64::to_bits),
                )
            })
            .collect(),
    )
}

#[test]
fn upgrade_ranking_is_the_same_at_every_width() {
    let topology = chain_topology();
    let upgrade = UpgradeConfig::default();
    let cost = CostModel::default();
    for routing in [
        RoutingScheme::ShortestPath,
        RoutingScheme::MinMaxUtilization,
    ] {
        let serial = classified_lowering(&topology, routing, 1);
        let expected = rank_upgrades(&topology, &serial, &cost, &upgrade);
        assert_eq!(expected.options.len(), 3);

        // Each option's re-simulation, from public calls, routed from
        // scratch on the upgraded network.
        let base = serial.simulation().routes().clone();
        let mut moved_routes = 0;
        for option in &expected.options {
            let (fwd, rev) = serial.mw_link_ids[option.mw_link_index];
            let mut network = serial.network.clone();
            for id in [fwd, rev] {
                network.set_link_rate(id, network.link(id).rate_bps * upgrade.rate_multiplier);
            }
            let mut run = Simulation::new(network, serial.demands.clone(), serial.config.sim);
            moved_routes += usize::from(*run.routes() != base);
            let p99 = run.run().per_class.unwrap().foreground.p99_queue_delay_ms;
            assert_eq!(
                option.upgraded_fg_p99_ms.to_bits(),
                p99.to_bits(),
                "{routing:?}, link {}",
                option.mw_link_index
            );
        }
        // Under shortest-path routing a rate moves no route; under min-max
        // an upgrade does, so a ranking that kept the base routes fails.
        match routing {
            RoutingScheme::ShortestPath => assert_eq!(moved_routes, 0),
            _ => assert!(moved_routes > 0, "{routing:?}: no upgrade moved a route"),
        }

        for workers in widths_then_machine() {
            let lowered = classified_lowering(&topology, routing, workers);
            let got = rank_upgrades(&topology, &lowered, &cost, &upgrade);
            assert_eq!(
                ranking_bits(&got),
                ranking_bits(&expected),
                "{routing:?}, workers {workers}"
            );
        }
    }
}

#[test]
fn failure_sweep_matches_per_field_calls_and_one_geometry() {
    let topology = chain_topology();
    let config = FailureConfig::default();
    let fields: Vec<StormField> = (0..40)
        .map(|k| match k % 5 {
            0 => StormField::default(),
            1 => storm_at(k % 4, 150.0),
            2 => storm_at(k % 4, 600.0),
            3 => storm_at(1, 2_000.0),
            _ => storm_at((k + 1) % 4, 40.0),
        })
        .collect();

    let (sets, stats) = failure_sweep(&topology, &fields, &config);
    let mut geometry = FailureGeometry::new(&topology, &config);
    for (k, field) in fields.iter().enumerate() {
        assert_eq!(
            sets[k],
            link_failures(&topology, field, &config),
            "field {k}"
        );
        assert_eq!(sets[k], geometry.failures(field), "field {k}");
    }
    assert_eq!(stats, geometry.stats());
    assert!(stats.failed > 0 && stats.by_rain_bound > 0, "{stats}");

    let (none, empty) = failure_sweep(&topology, &[], &config);
    assert!(none.is_empty());
    assert_eq!(empty.link_fields, 0);
}
