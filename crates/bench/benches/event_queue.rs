//! Event-queue microbenchmark: the engine's [`EventQueue`] (a calendar
//! queue) against `std::collections::BinaryHeap<Event>`, its test oracle
//! and the structure it replaced, isolated from the simulation engine.
//!
//! The access pattern is the hold model — the engine's steady state: pop
//! the minimum, push a replacement a random increment later, at constant
//! occupancy. Two occupancies bracket the crossover that decided between
//! the two: 64 resident events (a toy network, where they tie) and 16 384
//! (the paper-scale backbone holds one pending emission per flow, ≈14 k,
//! where the heap's O(log n) sift through cold cache lines loses).

use std::collections::BinaryHeap;

use criterion::{black_box, criterion_group, criterion_main, Bencher, Criterion};

use cisp_netsim::queue::{Event, EventQueue};

const HOLD_OPS: usize = 1024;

/// Deterministic xorshift64* — the benches must not depend on a PRNG crate.
struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn ev(time: f64, flow: u32) -> Event {
    Event {
        time,
        flow,
        hop: 0,
        sent_at: time,
        queue_delay: 0.0,
    }
}

/// The two operations the hold model needs, so one body times both queues.
trait Hold: Default {
    fn push(&mut self, e: Event);
    fn pop(&mut self) -> Option<Event>;
}

impl Hold for EventQueue {
    fn push(&mut self, e: Event) {
        EventQueue::push(self, e)
    }
    fn pop(&mut self) -> Option<Event> {
        EventQueue::pop(self)
    }
}

impl Hold for BinaryHeap<Event> {
    fn push(&mut self, e: Event) {
        BinaryHeap::push(self, e)
    }
    fn pop(&mut self) -> Option<Event> {
        BinaryHeap::pop(self)
    }
}

/// The hold-model body at a constant `occupancy`, for queue type `Q`.
fn hold<Q: Hold>(occupancy: usize) -> impl FnMut(&mut Bencher) {
    move |b| {
        let mut rng = Rng(0x9E3779B97F4A7C15);
        let mut q = Q::default();
        for i in 0..occupancy {
            q.push(ev(rng.next_f64(), i as u32));
        }
        // Mean increment ~1/occupancy keeps event density (and the
        // calendar's adapted bucket width) stationary.
        let max_step = 2.0 / occupancy as f64;
        b.iter(|| {
            for _ in 0..HOLD_OPS {
                let popped = q.pop().expect("constant occupancy");
                q.push(ev(popped.time + rng.next_f64() * max_step, popped.flow));
                black_box(popped.time);
            }
        })
    }
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.sample_size(20);
    for occupancy in [64usize, 16_384] {
        group.bench_function(
            format!("hold_calendar_{occupancy}"),
            hold::<EventQueue>(occupancy),
        );
        group.bench_function(
            format!("hold_heap_{occupancy}"),
            hold::<BinaryHeap<Event>>(occupancy),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_event_queue);
criterion_main!(benches);
