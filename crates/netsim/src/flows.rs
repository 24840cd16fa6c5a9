//! UDP flow generators.
//!
//! §5 drives the network with UDP traffic of uniform 500-byte packets whose
//! aggregate rate is a chosen fraction of the design capacity. Each site pair
//! with positive demand becomes a flow; packets are emitted either at a
//! constant bit rate or as a Poisson process of the same mean rate.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::network::NodeId;

/// How packet emission times are spaced within a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Evenly spaced packets (constant bit rate).
    ConstantBitRate,
    /// Exponentially distributed inter-arrival times with the same mean.
    Poisson,
}

/// A UDP flow between two nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpec {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Offered rate in bits per second.
    pub rate_bps: f64,
    /// Packet size in bytes (paper: 500 B).
    pub packet_bytes: f64,
}

impl FlowSpec {
    /// Mean inter-packet gap in seconds.
    pub(crate) fn mean_gap_s(&self) -> f64 {
        self.packet_bytes * 8.0 / self.rate_bps
    }

    /// Expected number of packets over `duration` seconds.
    pub(crate) fn expected_packets(&self, duration: f64) -> f64 {
        duration / self.mean_gap_s()
    }
}

/// Generate the emission times of a flow over `[0, duration)`.
///
/// CBR flows get a deterministic phase offset derived from the flow index so
/// that thousands of flows do not emit in lock-step; Poisson flows draw from
/// a seeded RNG.
pub fn emission_times(
    flow: &FlowSpec,
    flow_index: usize,
    duration: f64,
    process: ArrivalProcess,
    seed: u64,
) -> Vec<f64> {
    let mut times = Vec::new();
    emission_times_into(flow, flow_index, duration, process, seed, &mut times);
    times
}

/// [`emission_times`] into a caller-owned buffer (cleared first), so
/// callers can reuse one allocation across flows instead of building a
/// fresh `Vec` per flow.
pub(crate) fn emission_times_into(
    flow: &FlowSpec,
    flow_index: usize,
    duration: f64,
    process: ArrivalProcess,
    seed: u64,
    times: &mut Vec<f64>,
) {
    let gap = flow.mean_gap_s();
    times.clear();
    times.reserve((duration / gap).ceil() as usize + 1);
    let mut schedule = EmissionSchedule::new(flow, flow_index, process, seed);
    while let Some(t) = schedule.next_emission(duration) {
        times.push(t);
    }
}

/// A flow's emission times, produced one at a time — the engine's event
/// heap holds only each flow's *next* emission instead of every packet of
/// the run, keeping the heap at O(flows + packets in flight). The sequence
/// is float-for-float the one [`emission_times`] materialises (the running
/// time accumulates through the same operations), so lazy and eager
/// scheduling drive bit-identical simulations.
#[derive(Debug, Clone)]
pub(crate) enum EmissionSchedule {
    /// Evenly spaced from a deterministic per-flow phase in `[0, gap)`.
    Cbr {
        /// Next emission time.
        next: f64,
        /// Inter-packet gap, seconds.
        gap: f64,
    },
    /// Exponential inter-arrival times from a per-flow seeded RNG.
    Poisson {
        /// Next candidate emission time.
        next: f64,
        /// Mean inter-packet gap, seconds.
        gap: f64,
        /// The flow's private RNG stream.
        rng: Box<StdRng>,
    },
}

impl EmissionSchedule {
    /// The emission schedule of `flow` under `process`.
    pub(crate) fn new(
        flow: &FlowSpec,
        flow_index: usize,
        process: ArrivalProcess,
        seed: u64,
    ) -> Self {
        assert!(flow.rate_bps > 0.0 && flow.packet_bytes > 0.0);
        let gap = flow.mean_gap_s();
        match process {
            ArrivalProcess::ConstantBitRate => {
                // Deterministic per-flow phase in [0, gap).
                let phase = {
                    let mut h = seed ^ (flow_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    h ^= h >> 33;
                    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                    h ^= h >> 33;
                    (h >> 11) as f64 / (1u64 << 53) as f64 * gap
                };
                EmissionSchedule::Cbr { next: phase, gap }
            }
            ArrivalProcess::Poisson => {
                let mut rng =
                    StdRng::seed_from_u64(seed ^ (flow_index as u64).wrapping_mul(0xABCD_EF12));
                let next = first_poisson_gap(&mut rng, gap);
                EmissionSchedule::Poisson {
                    next,
                    gap,
                    rng: Box::new(rng),
                }
            }
        }
    }

    /// The next emission time in `[0, duration)`, or `None` once the flow
    /// has emitted its last packet.
    pub(crate) fn next_emission(&mut self, duration: f64) -> Option<f64> {
        assert!(duration > 0.0);
        match self {
            EmissionSchedule::Cbr { next, gap } => {
                let t = *next;
                if t >= duration {
                    return None;
                }
                *next = t + *gap;
                Some(t)
            }
            EmissionSchedule::Poisson { next, gap, rng } => {
                let t = *next;
                if t >= duration {
                    return None;
                }
                *next = t + first_poisson_gap(rng, *gap);
                Some(t)
            }
        }
    }
}

/// One exponential inter-arrival draw with mean `gap`.
fn first_poisson_gap(rng: &mut StdRng, gap: f64) -> f64 {
    let u: f64 = rng.gen::<f64>().max(1e-12);
    -gap * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> FlowSpec {
        FlowSpec {
            src: 0,
            dst: 1,
            rate_bps: 4e6, // 4 Mbps of 500 B packets → 1000 pkt/s
            packet_bytes: 500.0,
        }
    }

    #[test]
    fn mean_gap_and_expected_count() {
        let f = flow();
        assert!((f.mean_gap_s() - 0.001).abs() < 1e-12);
        assert!((f.expected_packets(2.0) - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn cbr_emission_count_matches_rate() {
        let f = flow();
        let times = emission_times(&f, 3, 1.0, ArrivalProcess::ConstantBitRate, 42);
        assert!((times.len() as f64 - 1000.0).abs() <= 1.0);
        // Sorted and within the window.
        for w in times.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(times.iter().all(|&t| (0.0..1.0).contains(&t)));
    }

    #[test]
    fn cbr_phases_differ_across_flows() {
        let f = flow();
        let a = emission_times(&f, 0, 0.01, ArrivalProcess::ConstantBitRate, 42);
        let b = emission_times(&f, 1, 0.01, ArrivalProcess::ConstantBitRate, 42);
        assert_ne!(a[0], b[0], "flows should not be phase-aligned");
    }

    #[test]
    fn poisson_emission_is_seeded_and_rate_accurate() {
        let f = flow();
        let a = emission_times(&f, 5, 10.0, ArrivalProcess::Poisson, 1);
        let b = emission_times(&f, 5, 10.0, ArrivalProcess::Poisson, 1);
        assert_eq!(a, b);
        // Rate within 10 % over 10 000 expected packets.
        assert!((a.len() as f64 - 10_000.0).abs() < 1_000.0, "{}", a.len());
    }

    #[test]
    fn reused_buffer_matches_fresh_generation() {
        let f = flow();
        let mut buf = vec![99.0; 4]; // stale contents must be cleared
        for (index, process) in [
            (0usize, ArrivalProcess::ConstantBitRate),
            (3, ArrivalProcess::Poisson),
        ] {
            emission_times_into(&f, index, 0.05, process, 7, &mut buf);
            assert_eq!(buf, emission_times(&f, index, 0.05, process, 7));
        }
    }

    #[test]
    fn poisson_differs_across_seeds() {
        let f = flow();
        let a = emission_times(&f, 5, 1.0, ArrivalProcess::Poisson, 1);
        let b = emission_times(&f, 5, 1.0, ArrivalProcess::Poisson, 2);
        assert_ne!(a, b);
    }
}
