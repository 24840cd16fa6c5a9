//! What-if variants start warm: each worker of
//! `cisp::core::evaluate::LoweredNetwork::rerun` turns one `Simulation`
//! into variant after variant, so a variant resets and refills the link
//! table, the route table, the re-routing search and the engine instead of
//! allocating them. What is left to allocate per variant, once the worker
//! has run each kind of variant twice, is the returned report's own
//! vectors: a constant, where a cold variant allocates per flow and per
//! link. A run on several workers that does not pay for the windowed gang
//! runs on the same warm serial engine, so it too allocates only its
//! report once warm: no partition, no shard and no thread of its own.
//!
//! This binary holds exactly one test: the counting allocator below is
//! process-wide, and a second test running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cisp::core::evaluate::{lower, EvaluateConfig};
use cisp::core::links::CandidateLink;
use cisp::core::topology::HybridTopology;
use cisp::geo::{geodesic, GeoPoint};
use cisp::netsim::flows::ArrivalProcess;
use cisp::netsim::sim::{SimConfig, Simulation};

/// The system allocator, counting allocation calls (a `realloc` is one).
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        unsafe { System.dealloc(p, layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(p, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What a variant's report allocates: `flow_mean_delay_ms`,
/// `flow_delivered`, `flow_dropped` and `link_utilizations`.
const REPORT_VECTORS: usize = 4;

/// Eight sites across the central US, a microwave chain through them and
/// fiber at 1.9 × geodesic between every pair: 56 demands over 66 links.
fn topology() -> HybridTopology {
    let sites: Vec<GeoPoint> = [
        (41.9, -87.6),
        (39.1, -94.6),
        (32.8, -96.8),
        (39.7, -105.0),
        (35.5, -97.5),
        (38.6, -90.2),
        (41.3, -96.0),
        (36.2, -86.8),
    ]
    .map(|(lat, lon)| GeoPoint::new(lat, lon))
    .to_vec();
    let n = sites.len();
    let fiber: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| geodesic::distance_km(sites[i], sites[j]) * 1.9)
                .collect()
        })
        .collect();
    let mut topology = HybridTopology::new(sites.clone(), vec![vec![1.0; n]; n], fiber);
    for (a, b) in [(0, 5), (5, 1), (1, 4), (4, 2), (1, 3)] {
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

#[test]
fn variants_after_the_first_allocate_only_their_reports() {
    let topology = topology();
    let config = EvaluateConfig {
        design_aggregate_gbps: 4.0,
        load_fraction: 0.6,
        sim: SimConfig {
            duration_s: 0.005,
            arrivals: ArrivalProcess::Poisson,
            workers: 1,
            ..SimConfig::default()
        },
        ..EvaluateConfig::default()
    };
    let lowered = lower(&topology, topology.traffic(), &config);
    let (links, flows) = (lowered.network.num_links(), lowered.demands.len());
    assert_eq!((links, flows), (66, 56));
    let base = lowered.simulation().routes().clone();

    // Four kinds of variant, cycled: every microwave link down (traffic on
    // fiber), the whole fiber mesh down (demands off the chain stranded),
    // every link up, and the chain's links at twice their rate.
    let every_mw: Vec<usize> = (0..topology.mw_links().len()).collect();
    let mw_down = lowered.disabled_mask(&every_mw);
    let mut fiber_down = vec![true; links];
    for &(fwd, rev) in &lowered.mw_link_ids {
        fiber_down[fwd] = false;
        fiber_down[rev] = false;
    }
    const KINDS: usize = 4;
    const WARM_UP: usize = 2 * KINDS;
    const VARIANTS: usize = WARM_UP + 4 * KINDS;
    let started: Vec<AtomicUsize> = (0..VARIANTS).map(|_| AtomicUsize::new(0)).collect();
    let spent: Vec<AtomicUsize> = (0..VARIANTS).map(|_| AtomicUsize::new(0)).collect();
    let rows = lowered.rerun(
        &base,
        VARIANTS,
        |v, network| {
            let mask = match v % KINDS {
                0 => mw_down.clone(),
                1 => fiber_down.clone(),
                2 => Vec::new(),
                _ => {
                    for &(fwd, rev) in &lowered.mw_link_ids {
                        for id in [fwd, rev] {
                            network.set_link_rate(id, network.link(id).rate_bps * 2.0);
                        }
                    }
                    Vec::new()
                }
            };
            // The mask is the caller's allocation, not the variant's.
            started[v].store(ALLOCATIONS.load(Ordering::Relaxed), Ordering::Relaxed);
            mask
        },
        |v, sim| {
            let report = sim.run();
            let now = ALLOCATIONS.load(Ordering::Relaxed);
            spent[v].store(now - started[v].load(Ordering::Relaxed), Ordering::Relaxed);
            report
        },
    );
    let spent: Vec<usize> = spent.iter().map(|s| s.load(Ordering::Relaxed)).collect();
    eprintln!("allocations per variant: {spent:?}");

    // The fixture bites: every kind runs packets, and the fiber cut strands
    // the demands between sites the chain does not join.
    for (v, report) in rows.iter().enumerate() {
        assert!(report.delivered > 0, "variant {v}");
    }
    assert!(rows[1].flow_delivered.contains(&0));
    assert!(rows[0].mean_delay_ms > rows[2].mean_delay_ms);
    // The first variant runs cold and allocates per flow and per link.
    // The next ones may still warm what the variants before them did not
    // reach: the pipelines of the links a kind loads first, the histogram
    // pages of its delays, a longer route arena, a calendar bucket holding
    // more events than before. Two rounds of every kind reach each
    // buffer's high-water mark; from then on a variant allocates its
    // report and nothing else.
    assert!(spent[0] > flows + links, "{spent:?}");
    for (v, &n) in spent.iter().enumerate().skip(WARM_UP) {
        assert!(
            n <= REPORT_VECTORS,
            "variant {v}: {n} allocations, {spent:?}"
        );
    }

    // A run too short for the gang on two workers: 20 µs of the same
    // demands, ≈ 12 expected packets against the ≈ 25 that forming a gang
    // over their route hops costs.
    let mut short = Simulation::new(
        lowered.network.clone(),
        lowered.demands.clone(),
        SimConfig {
            duration_s: 2e-5,
            workers: 2,
            ..config.sim
        },
    );
    let spent: Vec<usize> = (0..6)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let report = short.run();
            assert!(report.delivered > 0);
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .collect();
    eprintln!("allocations per short two-worker run: {spent:?}");
    // The first run builds the engine; from the second on, a run
    // allocates its report and nothing else.
    assert!(spent[0] > REPORT_VECTORS, "{spent:?}");
    for (run, &n) in spent.iter().enumerate().skip(1) {
        assert!(n <= REPORT_VECTORS, "run {run}: {n} allocations, {spent:?}");
    }
}
