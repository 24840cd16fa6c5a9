//! Record the packet-engine baseline: events per second — serial vs
//! component-sharded vs time-windowed.
//!
//! Five workloads:
//!
//! * `disjoint_pairs` — many independent bottleneck pairs (one component per
//!   pair), the component-sharding-friendly regime;
//! * `us_backbone` — the designed miniature US backbone lowered through
//!   `cisp_core::evaluate` with the O(n²) per-pair fiber mesh (components
//!   follow the real traffic structure);
//! * `us_backbone_conduit` — the same backbone conduit-backed: one
//!   simulator link per physical conduit segment instead of per pair
//!   (asserted strictly smaller than the mesh — the lowering's scaling
//!   win), with fiber fallbacks sharing conduit capacity;
//! * `single_component_ring` — one heavy shared-link mesh (a congested
//!   one-way ring with crossing flows), the regime where component sharding
//!   degenerates to serial and only the time-windowed engine parallelises.
//! * `us_backbone_million_user` — the hybrid fluid/packet engine's
//!   headline: the conduit-backed backbone carrying a million users' worth
//!   of bulk background traffic (10⁶ × 140 kbps = 140 Gbps) as fluid next
//!   to the packet-simulated foreground. Records the wall-clock speedup
//!   over simulating the same demand set purely packet-by-packet and the
//!   packet-equivalent events the fluid model avoided, after asserting
//!   hybrid cross-mode bit-identity and foreground-delay agreement within
//!   the documented buffer-drain envelope.
//!
//! Writes `BENCH_sim.json` (or the path given as the first argument) with
//! wall-clock medians, event throughputs, the serial per-event cost, the
//! serial run's event-queue occupancy and resize statistics, and the
//! per-mode speedups, asserting along the way that serial,
//! component-sharded and time-windowed runs produce bit-identical reports.
//! The file states the hardware it was recorded on (`available_parallelism`
//! and the CPU model): on a single-core runner the parallel numbers degrade
//! to roughly serial (thread scheduling and barrier overhead aside) — the
//! recorded speedups are hardware-dependent by nature.
//!
//! Run with: `cargo run --release --bin bench_sim_baseline`

use std::time::Instant;

use cisp_bench::us_scenario;
use cisp_core::evaluate::{lower, lower_classified, EvaluateConfig};
use cisp_core::scenario::population_product_traffic;
use cisp_netsim::network::{LinkSpec, Network};
use cisp_netsim::routing::{compute_routes, Demand};
use cisp_netsim::sim::{ExecMode, SimConfig, Simulation};
use cisp_netsim::{BackgroundModel, ClassReport, QueueDiscipline, QueueStats, SimReport};

/// Median wall-clock milliseconds of `f` over enough repetitions to be
/// stable.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let probe = Instant::now();
    f();
    let first_ms = probe.elapsed().as_secs_f64() * 1e3;
    let reps = if first_ms < 1.0 {
        25
    } else if first_ms < 100.0 {
        7
    } else {
        3
    };
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Total events a finished run processed: one per transmit attempt
/// (forwarded or dropped) plus one per delivery.
fn events_processed(sim: &Simulation, delivered: u64, dropped: u64) -> u64 {
    let forwarded: u64 = sim.network().states().packets_forwarded.iter().sum();
    forwarded + dropped + delivered
}

/// `pairs` independent 10 Mbps bottlenecks at 80 % load.
fn disjoint_pairs(pairs: usize) -> (Network, Vec<Demand>) {
    let mut net = Network::new(2 * pairs);
    let mut demands = Vec::new();
    for p in 0..pairs {
        net.add_link(LinkSpec {
            from: 2 * p,
            to: 2 * p + 1,
            rate_bps: 10e6,
            propagation_s: 0.002 + p as f64 * 1e-4,
            buffer_bytes: 50_000.0,
        });
        demands.push(Demand::new(2 * p, 2 * p + 1, 8e6));
    }
    (net, demands)
}

/// One heavy single-component mesh: a congested one-way ring of `nodes`
/// links with crossing multi-hop flows, so every route shares links with
/// others. Component sharding degenerates to serial here — this is the
/// workload the time-windowed engine exists for.
fn single_component_ring(nodes: usize) -> (Network, Vec<Demand>) {
    let mut net = Network::new(nodes);
    for i in 0..nodes {
        net.add_link(LinkSpec {
            from: i,
            to: (i + 1) % nodes,
            rate_bps: 40e6,
            propagation_s: 0.001 + (i as f64) * 2e-4,
            buffer_bytes: 60_000.0,
        });
    }
    let mut demands = Vec::new();
    for i in 0..nodes {
        demands.push(Demand::new(i, (i + nodes / 2) % nodes, 2.5e6));
    }
    (net, demands)
}

struct WorkloadReport {
    name: &'static str,
    events: u64,
    links: usize,
    serial_ms: f64,
    sharded_ms: f64,
    windowed_ms: f64,
    components: usize,
    /// Event-queue statistics of the serial run.
    queue: QueueStats,
}

fn measure(
    name: &'static str,
    network: Network,
    demands: Vec<Demand>,
    base: SimConfig,
) -> WorkloadReport {
    let serial_config = SimConfig { workers: 1, ..base };
    let sharded_config = SimConfig { workers: 0, ..base };
    let windowed_config = SimConfig {
        workers: 0,
        mode: ExecMode::windowed_auto(),
        ..base
    };

    // Parity check + event count (identical between modes by
    // construction, asserted here).
    let mut serial_sim = Simulation::new(network.clone(), demands.clone(), serial_config);
    let serial_report = serial_sim.run();
    let mut sharded_sim = Simulation::new(network.clone(), demands.clone(), sharded_config);
    let sharded_report = sharded_sim.run();
    assert_eq!(
        serial_report, sharded_report,
        "{name}: serial and sharded reports must be bit-identical"
    );
    let mut windowed_sim = Simulation::new(network.clone(), demands.clone(), windowed_config);
    let windowed_report = windowed_sim.run();
    assert_eq!(
        serial_report, windowed_report,
        "{name}: serial and time-windowed reports must be bit-identical"
    );
    let events = events_processed(&serial_sim, serial_report.delivered, serial_report.dropped);

    let serial_ms = median_ms(|| {
        serial_sim.run();
    });
    let sharded_ms = median_ms(|| {
        sharded_sim.run();
    });
    let windowed_ms = median_ms(|| {
        windowed_sim.run();
    });

    let components = serial_sim.num_components();

    WorkloadReport {
        name,
        events,
        links: serial_sim.network().num_links(),
        serial_ms,
        sharded_ms,
        windowed_ms,
        components,
        queue: serial_sim.queue_stats(),
    }
}

struct HybridReport {
    events_packet: u64,
    events_hybrid: u64,
    packet_equivalent_events_avoided: f64,
    pure_packet_ms: f64,
    hybrid_ms: f64,
    background_flows: usize,
    foreground_flows: usize,
    /// Foreground class statistics of the same hybrid workload under each
    /// queue discipline, in `[Fifo, StrictPriority, WeightedFair]` order.
    discipline_fg: [ClassReport; 3],
    /// Background delivered bits under the same disciplines, same order.
    discipline_bg_bits: [f64; 3],
}

/// Run the hybrid workload: same network and demand set, once with the
/// background class as fluid and once purely packet-by-packet. Asserts the
/// hybrid report is bit-identical across execution modes and that hybrid
/// foreground delays agree with the pure-packet run within the documented
/// envelope (the summed buffer-drain time along each flow's route) before
/// timing either engine.
fn measure_hybrid(network: Network, demands: Vec<Demand>, base: SimConfig) -> HybridReport {
    let hybrid_config = SimConfig {
        workers: 1,
        background: BackgroundModel::Fluid,
        ..base
    };
    let packet_config = SimConfig {
        workers: 1,
        background: BackgroundModel::Packet,
        ..base
    };

    let mut hybrid_sim = Simulation::new(network.clone(), demands.clone(), hybrid_config);
    let hybrid = hybrid_sim.run();
    // Hybrid reports obey the same cross-mode bit-identity contract as pure
    // packet runs: the fluid solution is computed once, up front.
    for config in [
        SimConfig {
            workers: 0,
            ..hybrid_config
        },
        SimConfig {
            workers: 0,
            mode: ExecMode::windowed_auto(),
            ..hybrid_config
        },
    ] {
        let parallel = Simulation::new(network.clone(), demands.clone(), config).run();
        assert_eq!(
            hybrid, parallel,
            "hybrid reports must be bit-identical across execution modes"
        );
    }

    let mut packet_sim = Simulation::new(network.clone(), demands.clone(), packet_config);
    let packet = packet_sim.run();

    // Foreground agreement: per-flow mean delays match the pure-packet run
    // within the fluid model's envelope — the drain time of every buffer
    // along the flow's route (class interleaving below the packet scale is
    // exactly what the fluid abstraction trades away).
    let routes = compute_routes(&network, &demands, base.routing);
    for (k, d) in demands.iter().enumerate() {
        if d.is_background() || hybrid.flow_delivered[k] == 0 || packet.flow_delivered[k] == 0 {
            continue;
        }
        let envelope_ms: f64 = routes
            .route(k)
            .iter()
            .map(|&l| {
                let spec = network.link(l as usize);
                spec.buffer_bytes * 8.0 / spec.rate_bps * 1e3
            })
            .sum();
        let diff = (hybrid.flow_mean_delay_ms[k] - packet.flow_mean_delay_ms[k]).abs();
        assert!(
            diff <= envelope_ms + 1e-9,
            "foreground flow {k}: hybrid {} ms vs packet {} ms exceeds the {envelope_ms} ms envelope",
            hybrid.flow_mean_delay_ms[k],
            packet.flow_mean_delay_ms[k],
        );
    }

    let bg = hybrid
        .background
        .expect("hybrid run must report background stats");
    assert!(
        !bg.truncated,
        "the fluid solver's safety valve must not fire on the benchmark workload"
    );

    // Per-discipline foreground tail on the same hybrid workload. An
    // explicit `Fifo` config must reproduce the default-config report
    // bit-identically (asserted before any timing below), and strict
    // priority must strictly improve the foreground P99 queueing delay
    // while the fluid background keeps delivering within 5% of FIFO's bits.
    let discipline_report = |discipline: QueueDiscipline| {
        Simulation::new(
            network.clone(),
            demands.clone(),
            SimConfig {
                discipline,
                ..hybrid_config
            },
        )
        .run()
    };
    let fifo = discipline_report(QueueDiscipline::Fifo);
    assert_eq!(
        hybrid, fifo,
        "an explicit Fifo discipline must be bit-identical to the default config"
    );
    let sp = discipline_report(QueueDiscipline::StrictPriority);
    let wfq = discipline_report(QueueDiscipline::WeightedFair);
    let fg_class = |r: &SimReport| {
        r.per_class
            .expect("classified hybrid run must report per-class stats")
            .foreground
    };
    let bg_bits = |r: &SimReport| {
        r.background
            .expect("hybrid run must report background stats")
            .delivered_bits
    };
    let (fifo_fg, sp_fg, wfq_fg) = (fg_class(&fifo), fg_class(&sp), fg_class(&wfq));
    assert!(
        sp_fg.p99_queue_delay_ms < fifo_fg.p99_queue_delay_ms,
        "strict priority must strictly improve the foreground P99 queueing delay: {} ms vs FIFO's {} ms",
        sp_fg.p99_queue_delay_ms,
        fifo_fg.p99_queue_delay_ms,
    );
    let bg_ratio = bg_bits(&sp) / bg_bits(&fifo);
    assert!(
        (bg_ratio - 1.0).abs() <= 0.05,
        "strict priority must keep background delivered bits within 5% of FIFO's, got ratio {bg_ratio}"
    );

    let events_hybrid = events_processed(&hybrid_sim, hybrid.delivered, hybrid.dropped);
    let events_packet = events_processed(&packet_sim, packet.delivered, packet.dropped);

    let hybrid_ms = median_ms(|| {
        hybrid_sim.run();
    });
    let pure_packet_ms = median_ms(|| {
        packet_sim.run();
    });

    HybridReport {
        events_packet,
        events_hybrid,
        packet_equivalent_events_avoided: bg.packet_equivalent_events,
        pure_packet_ms,
        hybrid_ms,
        background_flows: bg.flows,
        foreground_flows: demands.iter().filter(|d| !d.is_background()).count(),
        discipline_fg: [fifo_fg, sp_fg, wfq_fg],
        discipline_bg_bits: [bg_bits(&fifo), bg_bits(&sp), bg_bits(&wfq)],
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sim.json".to_string());

    let mut reports = Vec::new();

    {
        let (net, demands) = disjoint_pairs(16);
        let config = SimConfig {
            duration_s: 1.0,
            ..SimConfig::default()
        };
        reports.push(measure("disjoint_pairs_16", net, demands, config));
    }

    {
        let scenario = us_scenario(cisp_bench::Scale::Tiny, 42);
        let outcome = scenario.design(300.0);
        let traffic = population_product_traffic(scenario.cities());
        let eval_config = EvaluateConfig {
            design_aggregate_gbps: 4.0,
            load_fraction: 0.7,
            ..EvaluateConfig::default()
        };
        let lowered = lower(&outcome.topology, &traffic, &eval_config);
        let conduit_topo = scenario.conduit_backed_topology(&outcome);
        let conduit_lowered = lower(&conduit_topo, &traffic, &eval_config);
        // The conduit lowering's structural invariants: one simulator link
        // per conduit segment (plus the MW spine) — strictly fewer links
        // than the O(n²) pair mesh and below n² outright — over a
        // bit-identical effective distance matrix.
        let n = scenario.cities().len();
        assert_eq!(
            conduit_topo.effective_matrix(),
            outcome.topology.effective_matrix(),
            "conduit-backed topology must match the designed matrix bit for bit"
        );
        assert_eq!(
            conduit_lowered.network.num_links(),
            2 * (outcome.topology.mw_links().len() + scenario.fiber().links().len())
        );
        assert!(
            conduit_lowered.network.num_links() < lowered.network.num_links(),
            "conduit lowering must emit fewer links than the pair mesh"
        );
        assert!(conduit_lowered.network.num_links() < n * n);
        let config = SimConfig {
            duration_s: 0.3,
            ..SimConfig::default()
        };
        reports.push(measure(
            "us_backbone_tiny",
            lowered.network,
            lowered.demands,
            config,
        ));
        reports.push(measure(
            "us_backbone_conduit_tiny",
            conduit_lowered.network,
            conduit_lowered.demands,
            config,
        ));
    }

    {
        let (net, demands) = single_component_ring(24);
        let config = SimConfig {
            duration_s: 0.5,
            ..SimConfig::default()
        };
        reports.push(measure("single_component_ring_24", net, demands, config));
    }

    // Hybrid headline workload: the conduit-backed backbone with a million
    // users' worth of bulk background traffic (10⁶ × 140 kbps = 140 Gbps)
    // next to a 2 Gbps packet-simulated foreground.
    let hybrid = {
        let scenario = us_scenario(cisp_bench::Scale::Tiny, 42);
        let outcome = scenario.design(300.0);
        let traffic = population_product_traffic(scenario.cities());
        let eval_config = EvaluateConfig {
            design_aggregate_gbps: 4.0,
            load_fraction: 0.5,
            // Deep MW buffers so the fluid backlog's ramp on oversubscribed
            // links shows up as *delay* in delivered foreground packets (the
            // per-discipline contrast below), not just as drops: with the
            // default shallow buffer the backlog pins at the buffer ceiling
            // and FIFO's foreground queueing is all-or-nothing.
            mw_buffer_bytes: 2_000_000.0,
            ..EvaluateConfig::default()
        };
        let conduit_topo = scenario.conduit_backed_topology(&outcome);
        let lowered = lower_classified(&conduit_topo, &traffic, &traffic, 140.0, &eval_config);
        let config = SimConfig {
            duration_s: 0.05,
            ..SimConfig::default()
        };
        measure_hybrid(lowered.network, lowered.demands, config)
    };
    let hybrid_speedup = hybrid.pure_packet_ms / hybrid.hybrid_ms;
    println!(
        "us_backbone_million_user: pure packet {:.2} ms ({} events) vs hybrid {:.2} ms ({} events): {:.1}x, {:.0} packet-equivalent events avoided",
        hybrid.pure_packet_ms,
        hybrid.events_packet,
        hybrid.hybrid_ms,
        hybrid.events_hybrid,
        hybrid_speedup,
        hybrid.packet_equivalent_events_avoided,
    );
    assert!(
        hybrid_speedup >= 10.0,
        "hybrid engine must be at least 10x faster than pure packet on the million-user workload, got {hybrid_speedup:.1}x"
    );
    for (label, fg) in ["fifo", "strict_priority", "weighted_fair"]
        .iter()
        .zip(&hybrid.discipline_fg)
    {
        println!(
            "us_backbone_million_user[{label}]: fg P99 delay {:.3} ms, fg P99 queueing delay {:.3} ms",
            fg.p99_delay_ms, fg.p99_queue_delay_ms,
        );
    }

    let mut entries = Vec::new();
    for r in &reports {
        let serial_eps = r.events as f64 / (r.serial_ms / 1e3);
        let sharded_eps = r.events as f64 / (r.sharded_ms / 1e3);
        let windowed_eps = r.events as f64 / (r.windowed_ms / 1e3);
        let serial_ns_per_event = r.serial_ms * 1e6 / r.events as f64;
        println!(
            "{:<26} {:>9} events, {:>4} links: serial {:8.2} ms ({:>6.1} ns/ev, queue mean {:.1} peak {}), sharded {:8.2} ms ({:.2}x), windowed {:8.2} ms ({:.2}x)",
            r.name,
            r.events,
            r.links,
            r.serial_ms,
            serial_ns_per_event,
            r.queue.mean_occupancy(),
            r.queue.peak_occupancy,
            r.sharded_ms,
            r.serial_ms / r.sharded_ms,
            r.windowed_ms,
            r.serial_ms / r.windowed_ms,
        );
        entries.push(format!(
            concat!(
                "    {{\n",
                "      \"workload\": \"{}\",\n",
                "      \"events\": {},\n",
                "      \"links\": {},\n",
                "      \"components\": {},\n",
                "      \"serial_ms\": {:.4},\n",
                "      \"sharded_ms\": {:.4},\n",
                "      \"windowed_ms\": {:.4},\n",
                "      \"serial_events_per_sec\": {:.0},\n",
                "      \"sharded_events_per_sec\": {:.0},\n",
                "      \"windowed_events_per_sec\": {:.0},\n",
                "      \"serial_ns_per_event\": {:.2},\n",
                "      \"sharded_speedup\": {:.3},\n",
                "      \"windowed_speedup\": {:.3},\n",
                "      \"queue\": {{ \"pushes\": {}, \"mean_occupancy\": {:.1}, \"peak_occupancy\": {}, \"resizes\": {} }}\n",
                "    }}"
            ),
            r.name,
            r.events,
            r.links,
            r.components,
            r.serial_ms,
            r.sharded_ms,
            r.windowed_ms,
            serial_eps,
            sharded_eps,
            windowed_eps,
            serial_ns_per_event,
            r.serial_ms / r.sharded_ms,
            r.serial_ms / r.windowed_ms,
            r.queue.pushes,
            r.queue.mean_occupancy(),
            r.queue.peak_occupancy,
            r.queue.resizes,
        ));
    }

    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    // The speedup columns mean nothing without the hardware they were read
    // on, so the file names it.
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".to_string());
    let hybrid_json = format!(
        concat!(
            "  \"hybrid\": {{\n",
            "    \"workload\": \"us_backbone_million_user\",\n",
            "    \"users_equivalent\": 1000000,\n",
            "    \"background_gbps\": 140.0,\n",
            "    \"foreground_flows\": {},\n",
            "    \"background_flows\": {},\n",
            "    \"pure_packet_ms\": {:.4},\n",
            "    \"hybrid_ms\": {:.4},\n",
            "    \"speedup\": {:.1},\n",
            "    \"events_pure_packet\": {},\n",
            "    \"events_hybrid\": {},\n",
            "    \"packet_equivalent_events_avoided\": {:.0},\n",
            "    \"disciplines\": {{\n",
            "{}\n",
            "    }}\n",
            "  }}"
        ),
        hybrid.foreground_flows,
        hybrid.background_flows,
        hybrid.pure_packet_ms,
        hybrid.hybrid_ms,
        hybrid_speedup,
        hybrid.events_packet,
        hybrid.events_hybrid,
        hybrid.packet_equivalent_events_avoided,
        ["fifo", "strict_priority", "weighted_fair"]
            .iter()
            .zip(&hybrid.discipline_fg)
            .zip(&hybrid.discipline_bg_bits)
            .map(|((label, fg), bg_bits)| format!(
                concat!(
                    "      \"{}\": {{ \"fg_p99_delay_ms\": {:.4}, ",
                    "\"fg_p99_queue_delay_ms\": {:.4}, ",
                    "\"fg_mean_delay_ms\": {:.4}, ",
                    "\"bg_delivered_bits\": {:.0} }}"
                ),
                label, fg.p99_delay_ms, fg.p99_queue_delay_ms, fg.mean_delay_ms, bg_bits,
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"packet engine event throughput: serial vs component-sharded vs time-windowed, plus the hybrid fluid/packet engine\",\n",
            "  \"command\": \"cargo run --release --bin bench_sim_baseline\",\n",
            "  \"available_parallelism\": {},\n",
            "  \"cpu_model\": \"{}\",\n",
            "  \"note\": \"serial, component-sharded and time-windowed reports asserted bit-identical before timing; queue = occupancy at push time and ring resizes of the serial run's event queue (tens of events here, against a mean of 13 633 on the paper-scale backbone of cisp_benchmark's packet_sim_us); hybrid foreground delays asserted within the buffer-drain envelope of the pure-packet run\",\n",
            "  \"workloads\": [\n{}\n  ],\n",
            "{}\n",
            "}}\n"
        ),
        workers,
        cpu_model,
        entries.join(",\n"),
        hybrid_json
    );
    std::fs::write(&out_path, json).expect("write baseline file");
    println!("wrote {out_path}");
}
