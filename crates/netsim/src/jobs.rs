//! The workspace's one job-drain helper: `n` independent jobs claimed from
//! an atomic counter by a handful of scoped workers, results returned in job
//! order.
//!
//! The engine drains a run's link-disjoint components through it, the
//! what-if sweeps above the engine (storm intervals, conduit cuts, capacity
//! upgrades, the failure cascade over a year's fields) drain whole runs
//! through it, and so does the design side in `cisp_core`: the hop sweep (a
//! job per run of tower pairs), the candidate-pool search (a job per source
//! site) and the fallback greedy's scoring batches. What else spawns a
//! thread does another job: the windowed gang in [`crate::sim`] and
//! `cisp_core`'s scoring shards keep their workers across rounds, and the
//! pool search's helper thread only takes the *caller's* seat here.
//!
//! A job must not read what another job writes; under that contract the
//! results are those of the serial loop for every width, so the width is a
//! pure performance knob — [`resolve_workers`] maps the
//! [`SimConfig::workers`](crate::sim::SimConfig::workers) convention onto it.

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// A `workers` setting as the engine reads it: `0` is the machine's
/// available parallelism, anything else is itself.
pub fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        workers
    }
}

/// Run `job(state, i)` for every `i` in `0..n` on `width.min(n)` workers and
/// return the results in job order, with every worker's state.
///
/// Each worker builds one state with `init`, then claims the next unclaimed
/// index until none is left, so a job's state is whatever its worker's
/// earlier jobs left in it (scratch buffers, counters to sum afterwards) and
/// which jobs share a state depends on timing — results must not. With one
/// worker (`width <= 1` or `n <= 1`) everything runs inline on the calling
/// thread, in index order, through the same two closures; otherwise the
/// calling thread is one of the workers and `width.min(n) - 1` scoped
/// threads are the rest. The states come back in no particular order.
///
/// A panicking job's payload is re-raised on the calling thread once the
/// other workers have finished.
pub fn drain_jobs<S: Send, T: Send>(
    n: usize,
    width: usize,
    init: impl Fn() -> S + Sync,
    job: impl Fn(&mut S, usize) -> T + Sync,
) -> (Vec<T>, Vec<S>) {
    let width = width.min(n);
    if width <= 1 {
        let mut state = init();
        let results = (0..n).map(|i| job(&mut state, i)).collect();
        return (results, vec![state]);
    }

    // The counter publishes nothing but itself: a claimed index is read by
    // the claiming worker alone, and the join orders the results.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut state = init();
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break (done, state);
            }
            done.push((i, job(&mut state, i)));
        }
    };
    let per_worker: Vec<(Vec<(usize, T)>, S)> = thread::scope(|scope| {
        let handles: Vec<_> = (1..width).map(|_| scope.spawn(worker)).collect();
        let mut per_worker = vec![worker()];
        for handle in handles {
            match handle.join() {
                Ok(worked) => per_worker.push(worked),
                Err(payload) => panic::resume_unwind(payload),
            }
        }
        per_worker
    });

    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut states = Vec::with_capacity(width);
    for (done, state) in per_worker {
        states.push(state);
        for (i, result) in done {
            results[i] = Some(result);
        }
    }
    let results = results
        .into_iter()
        .map(|r| r.expect("every job index is claimed exactly once"))
        .collect();
    (results, states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU8;
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_job_order_whatever_order_jobs_finish_in() {
        // Job i takes longer the smaller i is, so later jobs finish first.
        let n = 12;
        for width in [1, 2, 4] {
            let (results, _) = drain_jobs(
                n,
                width,
                || (),
                |_, i| {
                    thread::sleep(Duration::from_millis((n - i) as u64));
                    i * i
                },
            );
            assert_eq!(results, (0..n).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_index_is_claimed_exactly_once_and_states_come_back() {
        let n = 200;
        for width in [1, 2, 3, 8] {
            let claims: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
            let (results, states) = drain_jobs(
                n,
                width,
                || 0usize,
                |jobs_run, i| {
                    claims[i].fetch_add(1, Ordering::Relaxed);
                    *jobs_run += 1;
                    i
                },
            );
            assert_eq!(results, (0..n).collect::<Vec<_>>());
            assert!(claims.iter().all(|c| c.load(Ordering::Relaxed) == 1));
            assert_eq!(states.len(), width);
            assert_eq!(states.iter().sum::<usize>(), n);
        }
    }

    #[test]
    fn zero_and_one_job_run_on_the_calling_thread() {
        let caller = thread::current().id();
        for n in [0, 1] {
            let (ran_on, states) = drain_jobs(
                n,
                8,
                || thread::current().id(),
                |_, _| thread::current().id(),
            );
            assert_eq!(ran_on, vec![caller; n]);
            assert_eq!(states, vec![caller]);
        }
    }

    #[test]
    fn width_clamps_to_the_job_count_and_every_worker_runs() {
        // A barrier as wide as the job count: passes only if each of the
        // three jobs has a worker of its own, hangs if fewer were started.
        let barrier = Barrier::new(3);
        let (results, states) = drain_jobs(
            3,
            64,
            || (),
            |_, i| {
                barrier.wait();
                i
            },
        );
        assert_eq!(results, vec![0, 1, 2]);
        assert_eq!(states.len(), 3);
    }

    #[test]
    fn inline_and_fanned_out_agree_with_the_plain_loop() {
        let expected: Vec<u64> = (0..50u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        for width in [0, 1, 2, 5, 50, 51] {
            let (results, _) = drain_jobs(
                50,
                width,
                || (),
                |_, i| (i as u64).wrapping_mul(0x9E37_79B9),
            );
            assert_eq!(results, expected, "width {width}");
        }
    }

    #[test]
    fn a_panicking_job_propagates_its_message() {
        for width in [1, 3] {
            let caught = panic::catch_unwind(|| {
                drain_jobs(
                    6,
                    width,
                    || (),
                    |_, i| {
                        if i == 4 {
                            panic!("job four failed");
                        }
                        i
                    },
                )
            })
            .expect_err("the job's panic must reach the caller");
            let message = caught
                .downcast_ref::<&str>()
                .copied()
                .expect("the job's own payload, not a join error");
            assert_eq!(message, "job four failed", "width {width}");
        }
    }

    #[test]
    fn resolve_workers_maps_zero_to_the_machine() {
        assert_eq!(resolve_workers(1), 1);
        assert_eq!(resolve_workers(7), 7);
        assert!(resolve_workers(0) >= 1);
    }
}
