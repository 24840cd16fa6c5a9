//! Memory does not grow with packets: the engine accounts for a delivery
//! where it happens (per-flow sums, histogram bins) and stores nothing per
//! packet, so the peak live heap of `Simulation::run` is set by the network
//! and the flow count, not by how long the run is.
//!
//! This binary holds exactly one test: the counting allocator below is
//! process-wide, and a second test running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cisp::netsim::flows::ArrivalProcess;
use cisp::netsim::jobs::test_widths;
use cisp::netsim::network::{LinkSpec, Network};
use cisp::netsim::routing::Demand;
use cisp::netsim::sim::{SimConfig, Simulation};
use cisp::netsim::SimReport;

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Sixteen 3-hop flows through one shared bottleneck (a dumbbell), loaded
/// to ≈ 90 % so queueing delays spread over several octaves. With
/// `classified`, every other flow is background.
fn dumbbell(classified: bool) -> (Network, Vec<Demand>) {
    const FLOWS: usize = 16;
    let (left, right) = (2 * FLOWS, 2 * FLOWS + 1);
    let mut net = Network::new(2 * FLOWS + 2);
    let mut link = |from, to, rate_bps, propagation_s| {
        net.add_link(LinkSpec {
            from,
            to,
            rate_bps,
            propagation_s,
            buffer_bytes: 60_000.0,
        });
    };
    link(left, right, 160e6, 0.003);
    let mut demands = Vec::new();
    for k in 0..FLOWS {
        link(k, left, 100e6, 0.001 + k as f64 * 1e-4);
        link(right, FLOWS + k, 100e6, 0.002);
        demands.push(if classified && k % 2 == 1 {
            Demand::background(k, FLOWS + k, 9e6)
        } else {
            Demand::new(k, FLOWS + k, 9e6)
        });
    }
    (net, demands)
}

/// Peak live heap above the level at entry, over one run: `run()`, or the
/// `run_windowed` hook with a window.
fn peak_heap_of_run(sim: &mut Simulation, mode: Option<f64>) -> (usize, SimReport) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let report = match mode {
        None => sim.run(),
        Some(window_s) => sim.run_windowed(window_s),
    };
    let peak = PEAK.load(Ordering::Relaxed);
    (peak - before, report)
}

#[test]
fn peak_heap_of_a_run_does_not_grow_with_its_packets() {
    const DURATION_S: f64 = 0.4;
    for classified in [false, true] {
        let mut reference: Option<SimReport> = None;
        let modes = [None, Some(0.0)];
        for (workers, mode) in test_widths(&[1, 2, 4])
            .into_iter()
            .flat_map(|w| modes.map(|m| (w, m)))
        {
            let run = |duration_s| {
                let (net, demands) = dumbbell(classified);
                let config = SimConfig {
                    duration_s,
                    arrivals: ArrivalProcess::Poisson,
                    seed: 11,
                    workers,
                    ..SimConfig::default()
                };
                peak_heap_of_run(&mut Simulation::new(net, demands, config), mode)
            };
            let (short_peak, short) = run(DURATION_S);
            let (long_peak, long) = run(8.0 * DURATION_S);
            let what = format!("classified {classified}, workers {workers}, window {mode:?}");
            // `run()` and the forced window give one report.
            assert_eq!(
                reference.get_or_insert_with(|| short.clone()),
                &short,
                "{what}"
            );
            let (short_delivered, long_delivered) = (short.delivered, long.delivered);
            assert!(short_delivered > 3_000, "{what}: {short_delivered}");
            assert!(long_delivered > 7 * short_delivered, "{what}");
            assert!(
                (long_peak as f64) < 1.25 * short_peak as f64,
                "{what}: peak heap {short_peak} B for {short_delivered} packets, \
                 {long_peak} B for {long_delivered}"
            );
        }
    }
}
