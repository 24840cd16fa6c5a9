// The shim `proptest!` macro expands recursively per token; keep headroom
// for the property bodies below.
#![recursion_limit = "256"]

//! Pop-order equivalence of the engine's event queue with its oracle: the
//! self-resizing calendar queue must pop the exact `(time, flow, hop)`
//! sequence `std::collections::BinaryHeap<Event>` pops, on adversarial
//! streams — duplicate timestamps, gap-scale regime changes and far-future
//! outliers that force resizes, arbitrary interleavings of pushes and pops —
//! and in the hold model at the occupancy a paper-scale backbone produces.
//! This is the structure-level half of the bit-identity contract; the
//! engine-level half lives in `sim_pipeline_parity.rs`.

use std::collections::BinaryHeap;

use cisp::netsim::queue::{Event, EventQueue};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn key(e: &Event) -> (f64, u32, u32) {
    (e.time, e.flow, e.hop)
}

fn ev(time: f64, flow: u32, hop: u32) -> Event {
    Event {
        time,
        flow,
        hop,
        sent_at: time,
        queue_delay: 0.0,
    }
}

/// Drain both to empty, asserting the same key sequence and length.
fn assert_same_drain(oracle: &mut BinaryHeap<Event>, queue: &mut EventQueue) {
    loop {
        match (oracle.pop(), queue.pop()) {
            (None, None) => break,
            (Some(a), Some(b)) => assert_eq!(key(&a), key(&b)),
            (a, b) => panic!("length mismatch: {a:?} vs {b:?}"),
        }
    }
}

/// Pop both queues once and compare keys; returns the popped time (`None`
/// when both are empty). Exact duplicates of the full key are allowed in
/// these streams — key equality is the contract, not payload identity.
fn pop_both(
    oracle: &mut BinaryHeap<Event>,
    queue: &mut EventQueue,
    seed: u64,
) -> Result<Option<f64>, TestCaseError> {
    let (a, b) = (oracle.pop(), queue.pop());
    match (a, b) {
        (None, None) => Ok(None),
        (Some(a), Some(b)) => {
            prop_assert_eq!(key(&a), key(&b));
            Ok(Some(a.time))
        }
        (a, b) => {
            prop_assert!(false, "length mismatch: {:?} vs {:?} (seed {})", a, b, seed);
            Ok(None)
        }
    }
}

/// One randomized interleaved push/pop session over the queue and its
/// oracle. The stream mixes gap scales spanning nine orders of magnitude
/// (each regime change invalidates the calendar's adapted width, forcing
/// resizes), exact-duplicate timestamps, and far-future outliers; pushes
/// never precede the last popped time, like the engine's event streams.
/// Halfway through, both are cleared and reused.
fn check_interleaved_pop_order(seed: u64) -> TestCaseResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut oracle = BinaryHeap::new();
    let mut queue = EventQueue::new();
    let mut clock = 0.0f64;
    let rounds = 8 + (rng.gen::<u64>() % 24) as usize;
    for round in 0..rounds {
        if round == rounds / 2 {
            // `clear()` keeps the adapted geometry; the order must survive
            // reuse from time zero.
            oracle.clear();
            queue.clear();
            prop_assert!(queue.is_empty());
            clock = 0.0;
        }
        let exp = (rng.gen::<u64>() % 9) as i32 - 7; // gap scale 1e-7 ..= 1e1
        let gap_scale = 10f64.powi(exp);
        for _ in 0..(rng.gen::<u64>() % 32) {
            let t = match rng.gen::<u64>() % 10 {
                0 => clock,                    // duplicate of the frontier
                1 => clock + 1e13 * gap_scale, // far-future outlier
                _ => clock + rng.gen::<f64>() * 100.0 * gap_scale,
            };
            let e = ev(
                t,
                (rng.gen::<u64>() % 64) as u32,
                (rng.gen::<u64>() % 8) as u32,
            );
            oracle.push(e);
            queue.push(e);
        }
        // Peek must agree with peek before every comparison pop.
        for _ in 0..(rng.gen::<u64>() % 24) {
            let (pa, pb) = (oracle.peek().copied(), queue.peek());
            prop_assert_eq!(pa.as_ref().map(key), pb.as_ref().map(key));
            match pop_both(&mut oracle, &mut queue, seed)? {
                Some(t) => clock = t,
                None => break,
            }
        }
    }
    // Drain to empty: lengths and the full tail sequence must agree.
    prop_assert_eq!(oracle.len(), queue.len());
    while pop_both(&mut oracle, &mut queue, seed)?.is_some() {}
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn calendar_queue_pops_the_heap_sequence_on_adversarial_streams(seed in 0u64..u64::MAX) {
        check_interleaved_pop_order(seed)?;
    }
}

#[test]
fn regime_changes_force_resizes_and_preserve_order() {
    // Deterministic pin: a dense micro-gap cluster, then sparse
    // seconds-scale events, then a far-future outlier. The calendar must
    // resize (occupancy growth + geometry correction) and still drain in
    // heap order.
    let mut oracle = BinaryHeap::new();
    let mut queue = EventQueue::new();
    let mut push = |e: Event| {
        oracle.push(e);
        queue.push(e);
    };
    for i in 0..400u32 {
        push(ev(i as f64 * 1e-6, i % 16, i % 4));
    }
    for i in 0..40u32 {
        push(ev(1.0 + i as f64 * 0.5, i, 0));
    }
    push(ev(1e15, 999, 0));
    assert_same_drain(&mut oracle, &mut queue);
    let stats = queue.stats();
    assert!(stats.resizes > 0, "regime changes must trigger resizes");
    assert_eq!(stats.pushes, 441);
    assert_eq!(stats.peak_occupancy as usize, 441);
}

#[test]
fn hold_model_at_paper_scale_occupancy_matches_the_heap() {
    // The regime that decided for the calendar queue: ≈14 k resident
    // events (one pending emission per flow of the paper-scale backbone),
    // each pop followed by a push an exponential gap later — per-flow
    // Poisson emissions — with a per-flow mean gap spread over two orders
    // of magnitude like the population-product demand matrix.
    const RESIDENT: u32 = 16_384;
    let mut rng = StdRng::seed_from_u64(0xca1e_da12);
    let mut oracle = BinaryHeap::new();
    let mut queue = EventQueue::new();
    let mean_gap = |flow: u32| 1e-4 * (1.0 + (flow % 97) as f64);
    for flow in 0..RESIDENT {
        let e = ev(rng.gen::<f64>() * mean_gap(flow), flow, 0);
        oracle.push(e);
        queue.push(e);
    }
    for _ in 0..200_000 {
        let (a, b) = (oracle.pop().unwrap(), queue.pop().unwrap());
        assert_eq!(key(&a), key(&b));
        let gap = -mean_gap(a.flow) * rng.gen::<f64>().max(1e-12).ln();
        let e = ev(a.time + gap, a.flow, 0);
        oracle.push(e);
        queue.push(e);
    }
    // Every hold-phase push saw the full population.
    let stats = queue.stats();
    assert_eq!(stats.peak_occupancy, RESIDENT as u64);
    let fill: u64 = (1..=RESIDENT as u64).sum();
    assert_eq!(stats.occupancy_sum, fill + 200_000 * RESIDENT as u64);
    assert_same_drain(&mut oracle, &mut queue);
}
