//! The speed-mismatch TCP experiment (§5 "Speed mismatch", Fig. 6).
//!
//! cISP's core links (1 Gbps-class microwave) are much slower than the edge
//! links feeding them (data-center NICs at 10 Gbps+), the opposite of the
//! usual Internet situation. The paper asks whether this mismatch causes
//! persistent queues at the cISP ingress, and finds that TCP pacing removes
//! the problem: several sources `S_i` send 100 KB TCP flows through a shared
//! ingress `M` to a sink `D`; the `M→D` link is 100 Mbps while the `S_i→M`
//! links are either 100 Mbps (control) or 10 Gbps (mismatch); flow arrivals
//! are Poisson at 70 % average load of the bottleneck.
//!
//! The TCP model is deliberately minimal — slow start from an initial window
//! of 10 segments with per-RTT rounds, no loss (the ingress queue is
//! unbounded, as in the paper) — because the effect under study is purely the
//! burst structure of window transmission: un-paced windows arrive at `M` at
//! the edge line rate and pile up, paced windows are spread over the RTT.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::monitor::SampleStats;
use crate::network::{LinkSpec, Network, Transmit};

/// Configuration of the speed-mismatch experiment.
#[derive(Debug, Clone, Copy)]
pub struct SpeedMismatchConfig {
    /// Number of sources.
    pub num_sources: usize,
    /// Edge (`S_i → M`) link rate in bps.
    pub edge_rate_bps: f64,
    /// Bottleneck (`M → D`) link rate in bps (paper: 100 Mbps).
    pub bottleneck_rate_bps: f64,
    /// One-way propagation delay of each hop, seconds.
    pub hop_propagation_s: f64,
    /// Flow size in bytes (paper: 100 KB).
    pub flow_bytes: f64,
    /// Segment (packet) size in bytes.
    pub segment_bytes: f64,
    /// Initial congestion window in segments.
    pub initial_window: usize,
    /// Whether the sender paces packets across the RTT.
    pub pacing: bool,
    /// Average offered load as a fraction of the bottleneck rate (paper: 0.7).
    pub offered_load: f64,
    /// Duration of a run in seconds (paper: 10 s).
    pub duration_s: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SpeedMismatchConfig {
    /// The paper's control configuration: edge links equal to the bottleneck.
    pub fn control_100mbps(pacing: bool, seed: u64) -> Self {
        Self {
            num_sources: 10,
            edge_rate_bps: 100e6,
            bottleneck_rate_bps: 100e6,
            hop_propagation_s: 0.005,
            flow_bytes: 100_000.0,
            segment_bytes: 1_500.0,
            initial_window: 10,
            pacing,
            offered_load: 0.7,
            duration_s: 10.0,
            seed,
        }
    }

    /// The paper's mismatch configuration: 10 Gbps edge links.
    pub fn mismatch_10gbps(pacing: bool, seed: u64) -> Self {
        Self {
            edge_rate_bps: 10e9,
            ..Self::control_100mbps(pacing, seed)
        }
    }

    /// Base round-trip time (propagation only), seconds.
    pub fn base_rtt_s(&self) -> f64 {
        4.0 * self.hop_propagation_s
    }

    /// Mean flow inter-arrival time for the configured offered load.
    pub(crate) fn mean_interarrival_s(&self) -> f64 {
        let flows_per_s = self.offered_load * self.bottleneck_rate_bps / (self.flow_bytes * 8.0);
        1.0 / flows_per_s
    }
}

/// Results of one speed-mismatch run.
#[derive(Debug, Clone)]
pub struct SpeedMismatchReport {
    /// Median queue occupancy at the ingress `M`, in packets.
    pub median_queue_pkts: f64,
    /// 95th-percentile queue occupancy at `M`, in packets.
    pub p95_queue_pkts: f64,
    /// Median flow completion time, milliseconds.
    pub median_fct_ms: f64,
    /// 95th-percentile flow completion time, milliseconds.
    pub p95_fct_ms: f64,
    /// Number of flows completed.
    pub flows: usize,
}

/// Run the speed-mismatch experiment.
pub fn run_speed_mismatch(config: &SpeedMismatchConfig) -> SpeedMismatchReport {
    assert!(config.num_sources >= 1);
    assert!(config.offered_load > 0.0 && config.offered_load < 1.0);

    let (flow_starts, packets) = schedule(config);
    let (queue_samples, flow_completion) = carry(config, &flow_starts, &packets);
    let mut fcts = SampleStats::default();
    for &fct in &flow_completion {
        if fct > 0.0 {
            fcts.record(fct * 1e3);
        }
    }

    SpeedMismatchReport {
        median_queue_pkts: queue_samples.median(),
        p95_queue_pkts: queue_samples.quantile(0.95),
        median_fct_ms: fcts.median(),
        p95_fct_ms: fcts.quantile(0.95),
        flows: flow_starts.len(),
    }
}

/// One TCP segment of a flow.
struct Packet {
    /// When the source puts it on its edge link.
    emit: f64,
    source: usize,
    flow: usize,
    last_of_flow: bool,
}

/// The flows' `(start, source)` — Poisson arrivals, round-robin over the
/// sources — and every packet they send, in emission order (ties by flow).
/// Emission times follow slow-start rounds.
fn schedule(config: &SpeedMismatchConfig) -> (Vec<(f64, usize)>, Vec<Packet>) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut flow_starts: Vec<(f64, usize)> = Vec::new();
    let mut t = 0.0;
    let mut source = 0usize;
    loop {
        let u: f64 = rng.gen::<f64>().max(1e-12);
        t += -config.mean_interarrival_s() * u.ln();
        if t >= config.duration_s {
            break;
        }
        flow_starts.push((t, source));
        source = (source + 1) % config.num_sources;
    }

    let segments_per_flow = (config.flow_bytes / config.segment_bytes).ceil() as usize;
    let rtt = config.base_rtt_s();
    let mut packets: Vec<Packet> = Vec::new();
    for (flow_idx, &(start, src)) in flow_starts.iter().enumerate() {
        let mut sent = 0usize;
        let mut window = config.initial_window;
        let mut round_start = start;
        while sent < segments_per_flow {
            let in_round = window.min(segments_per_flow - sent);
            for k in 0..in_round {
                let offset = if config.pacing {
                    // Spread the round's packets across the whole RTT.
                    rtt * k as f64 / in_round as f64
                } else {
                    // Back-to-back at the edge line rate.
                    config.segment_bytes * 8.0 / config.edge_rate_bps * k as f64
                };
                sent += 1;
                packets.push(Packet {
                    emit: round_start + offset,
                    source: src,
                    flow: flow_idx,
                    last_of_flow: sent == segments_per_flow,
                });
            }
            window *= 2; // slow start, no loss (unbounded buffer)
            round_start += rtt;
        }
    }
    packets.sort_by(|a, b| {
        a.emit
            .partial_cmp(&b.emit)
            .unwrap()
            .then(a.flow.cmp(&b.flow))
    });
    (flow_starts, packets)
}

/// Carry `packets` (in emission order) from their sources through the
/// shared ingress `M` to the sink `D`. Returns the ingress backlog each
/// packet finds on arrival at `M`, in packets, and each flow's completion
/// time in seconds after its start.
///
/// Each edge link serves its source's packets in emission order. Two flows
/// of one source can overlap on its edge link, so packets reach `M` out of
/// emission order; the FIFO bottleneck then serves them in arrival order
/// (ties by emission order).
fn carry(
    config: &SpeedMismatchConfig,
    flow_starts: &[(f64, usize)],
    packets: &[Packet],
) -> (SampleStats, Vec<f64>) {
    // Network: sources 0..n, M = n, D = n+1. The ingress queue is unbounded.
    let n = config.num_sources;
    let m = n;
    let d = n + 1;
    let mut net = Network::new(n + 2);
    let edge_links: Vec<_> = (0..n)
        .map(|s| {
            net.add_link(LinkSpec {
                from: s,
                to: m,
                rate_bps: config.edge_rate_bps,
                propagation_s: config.hop_propagation_s,
                buffer_bytes: f64::INFINITY,
            })
        })
        .collect();
    let bottleneck = net.add_link(LinkSpec {
        from: m,
        to: d,
        rate_bps: config.bottleneck_rate_bps,
        propagation_s: config.hop_propagation_s,
        buffer_bytes: f64::INFINITY,
    });

    // Edge hops, in emission order.
    let mut at_m: Vec<(f64, usize)> = packets
        .iter()
        .enumerate()
        .map(|(k, pkt)| {
            match net.transmit(edge_links[pkt.source], pkt.emit, config.segment_bytes) {
                Transmit::Delivered { arrival, .. } => (arrival, k),
                Transmit::Dropped => unreachable!("edge buffers are unbounded"),
            }
        })
        .collect();
    at_m.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    // The bottleneck hop, in arrival order at `M`.
    let mut queue_samples = SampleStats::default();
    let mut flow_completion: Vec<f64> = vec![0.0; flow_starts.len()];
    for (arrival, k) in at_m {
        let pkt = &packets[k];
        // Sample the ingress backlog just before this packet joins it.
        let backlog_s = (net.link_state(bottleneck).free_at - arrival).max(0.0);
        let backlog_pkts = backlog_s * config.bottleneck_rate_bps / 8.0 / config.segment_bytes;
        queue_samples.record(backlog_pkts);
        let at_d = match net.transmit(bottleneck, arrival, config.segment_bytes) {
            Transmit::Delivered { arrival, .. } => arrival,
            Transmit::Dropped => unreachable!("ingress buffer is unbounded"),
        };
        if pkt.last_of_flow {
            flow_completion[pkt.flow] = at_d - flow_starts[pkt.flow].0;
        }
    }
    (queue_samples, flow_completion)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_derived_quantities() {
        let c = SpeedMismatchConfig::control_100mbps(false, 1);
        assert!((c.base_rtt_s() - 0.020).abs() < 1e-12);
        // 0.7 × 100 Mbps / 800 kbit per flow = 87.5 flows/s.
        assert!((1.0 / c.mean_interarrival_s() - 87.5).abs() < 1e-9);
    }

    #[test]
    fn mismatch_without_pacing_builds_bigger_queues() {
        let control = run_speed_mismatch(&SpeedMismatchConfig {
            duration_s: 3.0,
            ..SpeedMismatchConfig::control_100mbps(false, 7)
        });
        let mismatch = run_speed_mismatch(&SpeedMismatchConfig {
            duration_s: 3.0,
            ..SpeedMismatchConfig::mismatch_10gbps(false, 7)
        });
        assert!(
            mismatch.p95_queue_pkts > control.p95_queue_pkts,
            "mismatch p95 {} should exceed control p95 {}",
            mismatch.p95_queue_pkts,
            control.p95_queue_pkts
        );
    }

    #[test]
    fn pacing_tames_the_mismatch_queue() {
        let unpaced = run_speed_mismatch(&SpeedMismatchConfig {
            duration_s: 3.0,
            ..SpeedMismatchConfig::mismatch_10gbps(false, 7)
        });
        let paced = run_speed_mismatch(&SpeedMismatchConfig {
            duration_s: 3.0,
            ..SpeedMismatchConfig::mismatch_10gbps(true, 7)
        });
        assert!(
            paced.p95_queue_pkts < unpaced.p95_queue_pkts,
            "paced p95 {} vs unpaced p95 {}",
            paced.p95_queue_pkts,
            unpaced.p95_queue_pkts
        );
    }

    #[test]
    fn pacing_does_not_hurt_flow_completion_times_much() {
        let unpaced = run_speed_mismatch(&SpeedMismatchConfig {
            duration_s: 3.0,
            ..SpeedMismatchConfig::mismatch_10gbps(false, 3)
        });
        let paced = run_speed_mismatch(&SpeedMismatchConfig {
            duration_s: 3.0,
            ..SpeedMismatchConfig::mismatch_10gbps(true, 3)
        });
        // Fig. 6(b): median FCTs are essentially unchanged by pacing.
        let ratio = paced.median_fct_ms / unpaced.median_fct_ms;
        assert!(ratio < 1.6, "pacing slowed flows {ratio}×");
        assert!(unpaced.median_fct_ms > 0.0 && paced.median_fct_ms > 0.0);
    }

    #[test]
    fn flows_complete_and_fct_exceeds_rtt() {
        let report = run_speed_mismatch(&SpeedMismatchConfig {
            duration_s: 2.0,
            ..SpeedMismatchConfig::control_100mbps(true, 11)
        });
        assert!(
            report.flows > 50,
            "expected many flows, got {}",
            report.flows
        );
        // A 100 KB flow needs ≥ 3 slow-start rounds plus transmission: FCT
        // must exceed one RTT (20 ms).
        assert!(report.median_fct_ms > 20.0);
    }

    /// Arrivals at `M` that come earlier than the one before them, in
    /// emission order, and the Lindley recursion over the sorted arrivals:
    /// each link starts a packet when both it and the packet are there.
    fn lindley_reference(config: &SpeedMismatchConfig) -> (usize, Vec<f64>) {
        let (flow_starts, packets) = schedule(config);
        let tx = |rate_bps: f64| config.segment_bytes * 8.0 / rate_bps;
        let prop = config.hop_propagation_s;
        let mut edge_free = vec![0.0f64; config.num_sources];
        let mut at_m: Vec<(f64, usize)> = packets
            .iter()
            .enumerate()
            .map(|(k, p)| {
                edge_free[p.source] = edge_free[p.source].max(p.emit) + tx(config.edge_rate_bps);
                (edge_free[p.source] + prop, k)
            })
            .collect();
        let reordered = at_m.windows(2).filter(|w| w[1].0 < w[0].0).count();
        at_m.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut free = 0.0f64;
        let mut completion = vec![0.0; flow_starts.len()];
        for (arrival, k) in at_m {
            free = free.max(arrival) + tx(config.bottleneck_rate_bps);
            if packets[k].last_of_flow {
                completion[packets[k].flow] = free + prop - flow_starts[packets[k].flow].0;
            }
        }
        (reordered, completion)
    }

    #[test]
    fn the_bottleneck_serves_packets_in_arrival_order() {
        // Seed 10's control run has two flows of one source overlapping on
        // its 100 Mbps edge link, so 11 packets reach `M` out of emission
        // order.
        let config = SpeedMismatchConfig {
            duration_s: 1.0,
            ..SpeedMismatchConfig::control_100mbps(false, 10)
        };
        let (reordered, expected) = lindley_reference(&config);
        assert!(reordered > 0, "the seed must reorder arrivals at M");
        let (flow_starts, packets) = schedule(&config);
        let (_, completion) = carry(&config, &flow_starts, &packets);
        assert_eq!(completion.len(), expected.len());
        for (flow, (got, want)) in completion.iter().zip(&expected).enumerate() {
            assert!((got - want).abs() < 1e-9, "flow {flow}: {got} vs {want}");
        }
    }

    #[test]
    fn experiment_is_deterministic_per_seed() {
        let cfg = SpeedMismatchConfig {
            duration_s: 1.0,
            ..SpeedMismatchConfig::mismatch_10gbps(false, 5)
        };
        let a = run_speed_mismatch(&cfg);
        let b = run_speed_mismatch(&cfg);
        assert_eq!(a.flows, b.flows);
        assert!((a.median_fct_ms - b.median_fct_ms).abs() < 1e-12);
        assert!((a.p95_queue_pkts - b.p95_queue_pkts).abs() < 1e-12);
    }
}
