//! The pool build holds one graph and no pair list: the peak live heap of
//! `Scenario::build` is the hop list plus the CSR tower + site graph built
//! from it, and little else. The hop sweep enumerates each tower's partners
//! inside its jobs instead of listing every pair in range first, and no
//! adjacency-list copy of the graph is kept beside the CSR.
//!
//! This binary holds exactly one test: the counting allocator below is
//! process-wide, and a second test running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};

use cisp::core::hops::{FeasibleHop, HopFeasibility};
use cisp::core::links::LinkBuilder;
use cisp::core::scenario::{Scenario, ScenarioConfig, TerrainKind};
use cisp::netsim::jobs::resolve_workers;
use cisp::terrain::{clutter::ClutterModel, TerrainModel};

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

/// Everything a build holds besides the hop list and the CSR: the tower
/// registry, sites, fiber network and matrix, the envelope grid (freed
/// after the sweep), the sweep's compact per-job hops, the site
/// attachments and the pool itself.
const SLACK_BYTES: usize = 1 << 20;

/// One pool search core's scratch per node: `dist` (8 bytes) and six `u32`
/// stamps, indices and predecessors. Each worker of the pool holds one.
const SEARCH_BYTES_PER_NODE: usize = 32;

#[test]
fn peak_heap_of_a_build_is_its_hop_list_and_one_graph() {
    // The miniature scenario's Texas box on its regional terrain, with twice
    // its towers: ≈ 2 000 towers, ≈ 99 000 pairs in range, ≈ 72 000 hops.
    let mut config = ScenarioConfig::tiny_test();
    config.terrain = TerrainKind::Regional;
    config.towers.raw_count = 3_000;

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let scenario = Scenario::build(&config);
    let peak = PEAK.load(Ordering::Relaxed) - before;

    // The two pieces the build must hold at once, rebuilt after the fact.
    let terrain = TerrainModel::united_states(config.seed);
    let clutter = ClutterModel::with_seed(config.seed);
    let hops =
        HopFeasibility::new(scenario.towers(), &terrain, &clutter, config.hops).all_feasible_hops();
    let sites = &scenario.design_input().sites;
    let builder = LinkBuilder::new(sites, scenario.towers(), &hops, config.links);
    let graph = builder.csr_graph();
    let hop_list = hops.len() * size_of::<FeasibleHop>();
    let csr = graph.edge_count() * (size_of::<u32>() + size_of::<f64>())
        + (graph.node_count() + 1) * size_of::<u32>();
    let search = resolve_workers(0) * graph.node_count() * SEARCH_BYTES_PER_NODE;
    assert!(hops.len() > 50_000, "{} hops", hops.len());

    let bound = hop_list + csr + search + SLACK_BYTES;
    assert!(
        peak <= bound,
        "peak live heap {peak} B over hop list {hop_list} + CSR {csr} + search scratch \
         {search} + slack {SLACK_BYTES} = {bound} B"
    );
}
