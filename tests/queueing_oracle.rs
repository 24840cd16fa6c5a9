//! Oracles for the packet engine that do not share code with it: queueing
//! theory and a conservation law, on single links where both are exact.
//!
//! The parity suites prove that every execution mode agrees with the serial
//! run; they all share the transmit path and the event loop, so a bug there
//! passes them. Here the expected numbers come from closed forms:
//!
//! * **M/D/1.** Poisson arrivals at rate λ into a link that serves fixed
//!   500 B packets in `S = 4000 / rate` seconds wait
//!   `W = ρ·S / (2(1 − ρ))`, `ρ = λ·S`, on average (Pollaczek–Khinchine
//!   with zero service variance).
//! * **Saturation.** A link offered more than it can carry behind a finite
//!   buffer is never idle once the buffer first fills, so it delivers
//!   `rate · T / 4000` packets, give or take the buffer.
//! * **Conservation.** Per flow, packets emitted = delivered + dropped —
//!   with "emitted" counted by the eager generator
//!   ([`emission_times`]), not by the engine's lazy scheduler.
//!
//! One run holds five disjoint links — ρ ∈ {0.3, 0.5, 0.7, 0.8} with an
//! effectively unbounded buffer, and ρ = 1.2 behind 20 kB — so the
//! component-sharded mode really spreads components over workers. The serial
//! run is checked against the closed forms; at every width in
//! `CISP_TEST_WORKERS` (default `1,2,4`) the run's own choice and both
//! forced modes must reproduce its report exactly.

use cisp::netsim::flows::{emission_times, ArrivalProcess, FlowSpec};
use cisp::netsim::jobs::test_widths;
use cisp::netsim::network::{LinkSpec, Network};
use cisp::netsim::routing::Demand;
use cisp::netsim::sim::{ExecMode, SimConfig, Simulation};

const PACKET_BYTES: f64 = 500.0;
const PACKET_BITS: f64 = PACKET_BYTES * 8.0;
/// Every flow emits 2 000 packets per second …
const LAMBDA_PPS: f64 = 2_000.0;
/// … for 110 s: ≈220 000 packets per flow.
const DURATION_S: f64 = 110.0;
const PROPAGATION_S: f64 = 0.001;
const MD1_LOADS: [f64; 4] = [0.3, 0.5, 0.7, 0.8];
const OVERLOAD: f64 = 1.2;
const OVERLOAD_BUFFER_BYTES: f64 = 20_000.0;
const SEED: u64 = 20_220_404;

/// Relative tolerance on the mean wait. Successive waits are correlated, so
/// the mean of `n` of them is far noisier than `σ/√n`: for M/M/1 the
/// asymptotic variance of the sample mean is
/// `ρ(2 + 5ρ − 4ρ² + ρ³) / ((1 − ρ)⁴ n)` service times squared (Daley
/// 1968), which at ρ = 0.8 and n = 220 000 is a standard error of 2.4 % of
/// the mean wait; deterministic service roughly halves it, and lower loads
/// are tighter still (1 % at ρ = 0.3). 5 % is therefore ≈ 4 standard errors
/// in the worst cell — and the arrivals are seeded, so the test cannot
/// flake: it reads the same waits on every run.
const MD1_TOLERANCE: f64 = 0.05;

fn link_rate_bps(load: f64) -> f64 {
    LAMBDA_PPS * PACKET_BITS / load
}

fn inputs() -> (Network, Vec<Demand>) {
    let loads = MD1_LOADS.iter().copied().chain([OVERLOAD]);
    let mut net = Network::new(2 * (MD1_LOADS.len() + 1));
    let mut demands = Vec::new();
    for (k, load) in loads.enumerate() {
        net.add_link(LinkSpec {
            from: 2 * k,
            to: 2 * k + 1,
            rate_bps: link_rate_bps(load),
            propagation_s: PROPAGATION_S,
            buffer_bytes: if load < 1.0 {
                1e12
            } else {
                OVERLOAD_BUFFER_BYTES
            },
        });
        demands.push(Demand::new(2 * k, 2 * k + 1, LAMBDA_PPS * PACKET_BITS));
    }
    (net, demands)
}

#[test]
fn single_link_waits_match_md1_and_packets_are_conserved_in_every_mode() {
    let (net, demands) = inputs();
    let emitted: Vec<u64> = demands
        .iter()
        .enumerate()
        .map(|(k, d)| {
            let flow = FlowSpec {
                src: d.src,
                dst: d.dst,
                rate_bps: d.amount_bps,
                packet_bytes: PACKET_BYTES,
            };
            emission_times(&flow, k, DURATION_S, ArrivalProcess::Poisson, SEED).len() as u64
        })
        .collect();
    assert!(emitted.iter().all(|&n| n >= 200_000), "{emitted:?}");

    let simulation = |workers| {
        Simulation::new(
            net.clone(),
            demands.clone(),
            SimConfig {
                duration_s: DURATION_S,
                packet_bytes: PACKET_BYTES,
                arrivals: ArrivalProcess::Poisson,
                seed: SEED,
                workers,
                ..SimConfig::default()
            },
        )
    };
    let mut serial = simulation(1);
    assert_eq!(serial.num_components(), demands.len());
    let report = serial.run();
    {
        let mode_name = "serial";

        for (k, &n) in emitted.iter().enumerate() {
            assert_eq!(
                report.flow_delivered[k] + report.flow_dropped[k],
                n,
                "{mode_name}: flow {k} emitted {n} packets, delivered {} and dropped {}",
                report.flow_delivered[k],
                report.flow_dropped[k]
            );
        }

        for (k, &load) in MD1_LOADS.iter().enumerate() {
            assert_eq!(report.flow_dropped[k], 0, "{mode_name}: ρ = {load}");
            let service_ms = PACKET_BITS / link_rate_bps(load) * 1e3;
            let expected_ms = load * service_ms / (2.0 * (1.0 - load));
            let measured_ms = report.flow_mean_delay_ms[k] - PROPAGATION_S * 1e3 - service_ms;
            assert!(
                (measured_ms / expected_ms - 1.0).abs() <= MD1_TOLERANCE,
                "{mode_name}: ρ = {load}: mean wait {measured_ms} ms, M/D/1 says {expected_ms} ms"
            );
        }

        // The overloaded link is busy from the moment its buffer first
        // fills: what it delivers is its capacity, to within the few
        // hundred packets the start-up and the buffer account for.
        let k = MD1_LOADS.len();
        let capacity = link_rate_bps(OVERLOAD) * DURATION_S / PACKET_BITS;
        let delivered = report.flow_delivered[k] as f64;
        assert!(report.flow_dropped[k] > 0, "{mode_name}");
        assert!(
            (delivered / capacity - 1.0).abs() <= 0.005,
            "{mode_name}: delivered {delivered} of a capacity of {capacity}"
        );
    }

    for workers in test_widths(&[1, 2, 4]) {
        let mut sim = simulation(workers);
        assert_eq!(report, sim.run(), "workers {workers}");
        // A 10 ms window: ≈11 000 barrier-synchronised windows.
        for mode in [
            ExecMode::ComponentSharded,
            ExecMode::TimeWindowed { window_s: 0.01 },
        ] {
            assert_eq!(report, sim.run_in(mode), "workers {workers}, {mode:?}");
        }
    }
}
