//! The event-queue core of the packet engine: the scheduled-event type and
//! the one priority queue the engine schedules it on.
//!
//! The engine pops events in ascending `(time, flow, hop)` order.
//! [`EventQueue`] is a self-resizing calendar (bucket) queue in the style of
//! Brown (1988): events hash into a power-of-two ring of buckets by
//! `time / width`, pop scans the ring one bucket-"year" at a time and lazily
//! sorts only the bucket it is about to drain, and the structure resizes
//! itself — bucket count from occupancy, bucket width from the observed
//! inter-event gaps — when the population drifts out of bounds. Push and pop
//! are O(1) amortised when the width matches the gap distribution.
//!
//! Why a calendar and not a binary heap: occupancy. The engine keeps one
//! pending emission per flow and one in-transit head per link in the queue
//! (see the staging invariant in [`crate::sim`]), so a paper-scale backbone
//! holds ≈14 k events, where the heap's O(log n) sift walks cold cache lines
//! on every operation; on the benchmark's `packet_sim_us` the calendar cut
//! wall-clock by 6–24 % and tied everywhere else (ROADMAP item 3 has the
//! runs). At the tens of events a toy network holds the two tie.
//! `std::collections::BinaryHeap<Event>` remains the *oracle*: ties break on
//! the same full `(time, flow, hop)` key [`Event`]'s `Ord` defines, so the
//! pop sequence must equal the heap's on every stream (pinned by the unit
//! tests below and `tests/event_queue_parity.rs`).
//!
//! # Robustness notes
//!
//! The calendar's year check is done in *integer* year space
//! (`(time * inv_width) as u64`), never by accumulating a floating-point
//! bucket boundary — mapping an event to a bucket and asking whether the
//! scan has reached it use the same pure function of its timestamp, so
//! there is no boundary-ulp ambiguity to disagree with the heap about.
//! Far-future outliers (times whose year saturates the cast) are unreachable
//! by the bounded ring scan; a full-cycle miss falls back to a direct
//! minimum search, and a persistent streak of misses forces a resize that
//! re-derives the width from the actual gap distribution. The converse skew
//! — the population bunching up far *below* the bucket width at constant
//! occupancy, so every operation sorts the same giant bucket — is caught by
//! a watchdog on the located bucket's size (the SNOOPy refinement of
//! Brown's occupancy-only triggers): a sustained streak of oversized
//! locates forces the same corrective width re-derivation, with
//! exponential backoff when the distribution is genuinely unspreadable
//! (all-equal timestamps).

use std::cmp::Ordering;

/// A scheduled packet-at-link event. Lives directly in the queue (plain
/// `Copy` key, no boxing); ordered by `(time, flow, hop)` with earliest
/// first, which both drives the simulation clock and makes tie-breaking
/// deterministic.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Time the packet arrives at the head of this hop.
    pub time: f64,
    /// Flow (demand) index.
    pub flow: u32,
    /// Position within the flow's route.
    pub hop: u32,
    /// Time the packet originally entered the network.
    pub sent_at: f64,
    /// Accumulated queueing delay so far.
    pub queue_delay: f64,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.flow == other.flow && self.hop == other.hop
    }
}
impl Eq for Event {}

impl Ord for Event {
    /// Reversed comparison so a `BinaryHeap` (a max-heap) pops the earliest
    /// event; ties broken by flow then hop index. [`EventQueue`] keeps its
    /// buckets sorted by this same reversed order (earliest *last*), so it
    /// breaks ties exactly as the heap oracle does.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.flow.cmp(&self.flow))
            .then_with(|| other.hop.cmp(&self.hop))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Aggregate occupancy statistics of one or more event queues, for the
/// benchmark harness. Deliberately *not* part of [`crate::SimReport`]: they
/// describe how a run was scheduled (worker count and execution mode change
/// them), not what it computed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueueStats {
    /// Total events pushed.
    pub pushes: u64,
    /// Sum of the queue length observed after each push (mean occupancy =
    /// `occupancy_sum / pushes`).
    pub occupancy_sum: u64,
    /// Peak queue length.
    pub peak_occupancy: u64,
    /// Times a queue rebuilt its bucket ring.
    pub resizes: u64,
}

impl QueueStats {
    /// Fold another queue's stats into this one (pushes and resizes sum,
    /// peaks max).
    pub fn merge(&mut self, other: &QueueStats) {
        self.pushes += other.pushes;
        self.occupancy_sum += other.occupancy_sum;
        self.peak_occupancy = self.peak_occupancy.max(other.peak_occupancy);
        self.resizes += other.resizes;
    }
}

/// Smallest bucket ring; also the shrink floor.
const MIN_BUCKETS: usize = 16;
/// Largest bucket ring the occupancy-driven resize will grow to.
const MAX_BUCKETS: usize = 1 << 20;
/// Consecutive full-cycle scan misses before a corrective resize re-derives
/// the bucket width from the actual event-gap distribution.
const FALLBACK_RESIZE_STREAK: u32 = 8;
/// Events nearest the queue front whose gaps calibrate the bucket width on
/// a resize (Brown's `newwidth` sampling). The front is where every push
/// and pop happens; a *global* gap statistic would be dominated by a
/// sparse tail and leave the dense front region bunched into one hot
/// bucket that every operation re-sorts.
const FRONT_SAMPLE: usize = 32;
/// A located bucket holding more than this multiple of the mean
/// events-per-bucket counts as a skew signal: the population has bunched up
/// at a scale far below the bucket width.
const OVERSIZE_FACTOR: usize = 8;
/// Consecutive skew signals before a corrective resize re-derives the
/// width. Occupancy-triggered resizes never see this case: a population can
/// collapse into one bucket-width without changing size at all (the classic
/// calendar-queue skew pathology), so pops would sort the same giant bucket
/// forever — O(n log n) per operation — with no occupancy trigger in sight.
const OVERSIZE_RESIZE_STREAK: u32 = 32;

/// The engine's event queue: a self-resizing calendar queue over [`Event`]s
/// with non-negative timestamps, plus lifetime occupancy accounting
/// ([`QueueStats`]). See the module docs for the design; the key invariants
/// are:
///
/// * An event always lives in bucket `year_of(time) & mask` where
///   `year_of(t) = (t * inv_width) as u64` — a pure function of the
///   timestamp, shared by push and the pop scan, so bucket membership and
///   the scan's year check can never disagree.
/// * Buckets are sorted lazily (on first pop touch after a disordering
///   push) in the event type's reversed order — earliest last — so the
///   bucket minimum pops from the cheap end.
/// * The scan position `(cur, year)` never passes the global minimum:
///   advancing one bucket requires proof (an empty bucket, or a bucket
///   whose minimum belongs to a later year) and pushes reposition the scan
///   backwards when they introduce an earlier year.
#[derive(Debug)]
pub struct EventQueue {
    /// The ring is `buckets[..=mask]`. The buckets past it are empty and
    /// kept with their allocations: a ring that shrinks as a run drains and
    /// grows again in the next run reuses them.
    buckets: Vec<Vec<Event>>,
    /// Bucket may be unsorted; sort before trusting its tail.
    dirty: Vec<bool>,
    /// Ring length − 1; the length is a power of two.
    mask: usize,
    /// Bucket time width — the "day" length each bucket covers per year.
    width: f64,
    inv_width: f64,
    /// Scan bucket: always `year & mask`.
    cur: usize,
    /// Scan year: events with `year_of(time) <= year` in bucket `cur` are
    /// next in line.
    year: u64,
    len: usize,
    fallback_streak: u32,
    /// Consecutive pops/peeks that located an oversized bucket.
    oversize_streak: u32,
    /// Skew signals required before the next corrective resize; doubles
    /// when a corrective resize fails to change the width (an unspreadable
    /// distribution, e.g. all-equal timestamps, must not resize-thrash).
    oversize_limit: u32,
    /// Fewest buckets a resize leaves: what [`reserve`](Self::reserve)
    /// sized the ring for, until [`release_floor`](Self::release_floor);
    /// [`MIN_BUCKETS`] otherwise.
    floor: usize,
    /// A rebuild's scratch: the events being redistributed, and the front
    /// sample's times and gaps. Kept, like the buckets, so that a queue
    /// reused run after run rebuilds without allocating.
    spill: Vec<Event>,
    times: Vec<f64>,
    stats: QueueStats,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty calendar: the geometry adapts to the workload on the first
    /// occupancy-triggered resize, so the initial width is arbitrary.
    pub fn new() -> Self {
        Self {
            buckets: vec![Vec::new(); MIN_BUCKETS],
            dirty: vec![false; MIN_BUCKETS],
            mask: MIN_BUCKETS - 1,
            width: 1.0,
            inv_width: 1.0,
            cur: 0,
            year: 0,
            len: 0,
            fallback_streak: 0,
            oversize_streak: 0,
            oversize_limit: OVERSIZE_RESIZE_STREAK,
            floor: MIN_BUCKETS,
            spill: Vec::new(),
            times: Vec::new(),
            stats: QueueStats::default(),
        }
    }

    /// Number of scheduled events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are scheduled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Buckets in the ring.
    #[inline]
    fn ring(&self) -> usize {
        self.mask + 1
    }

    /// The virtual year an event time falls in (saturating for far-future
    /// outliers — consistently, for both insert and scan).
    #[inline]
    fn year_of(&self, t: f64) -> u64 {
        (t * self.inv_width) as u64
    }

    /// Schedule an event. O(1) amortised.
    pub fn push(&mut self, e: Event) {
        debug_assert!(e.time >= 0.0, "calendar queue times are non-negative");
        let y = self.year_of(e.time);
        let b = (y as usize) & self.mask;
        let bucket = &mut self.buckets[b];
        // Appending keeps a clean bucket sorted only if the new event is the
        // bucket's new earliest (buckets sort earliest-last).
        if !self.dirty[b] && bucket.last().is_some_and(|last| e < *last) {
            self.dirty[b] = true;
        }
        bucket.push(e);
        self.len += 1;
        self.stats.pushes += 1;
        self.stats.occupancy_sum += self.len as u64;
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.len as u64);
        if y < self.year {
            // An earlier year appeared behind the scan: reposition. Exact in
            // integer year space, so the scan can never pass the minimum.
            self.year = y;
            self.cur = (y as usize) & self.mask;
        }
        if self.len > 2 * self.ring() && self.ring() < MAX_BUCKETS {
            self.resize();
        }
    }

    /// Remove and return the earliest event by `(time, flow, hop)`.
    pub fn pop(&mut self) -> Option<Event> {
        self.pop_if(|_| true)
    }

    /// Remove and return the earliest event if `take` accepts it; `None`
    /// when the queue is empty or the earliest event is refused (it stays
    /// queued). One locate serves the test and the removal — what a
    /// windowed shard's "pop while before the window end" loop wants.
    #[inline]
    pub(crate) fn pop_if(&mut self, take: impl FnOnce(&Event) -> bool) -> Option<Event> {
        let b = self.locate()?;
        let bucket = &mut self.buckets[b];
        if !take(bucket.last().expect("located bucket is non-empty")) {
            return None;
        }
        let e = bucket.pop().expect("located bucket is non-empty");
        self.len -= 1;
        if self.len * 4 < self.ring() && self.ring() > self.floor {
            self.resize();
        }
        Some(e)
    }

    /// The earliest event without removing it. Takes `&mut self`: answering
    /// positions the scan window (an order-preserving mutation).
    pub fn peek(&mut self) -> Option<Event> {
        let b = self.locate()?;
        Some(*self.buckets[b].last().expect("located bucket is non-empty"))
    }

    /// Drop every event; geometry (width, bucket count) is kept — it
    /// already adapted to this workload's gap distribution — and so are the
    /// occupancy stats, which account the queue's whole lifetime.
    pub fn clear(&mut self) {
        if self.len > 0 {
            let ring = self.ring();
            for b in &mut self.buckets[..ring] {
                b.clear();
            }
            self.dirty[..ring].fill(false);
            self.len = 0;
        }
        self.cur = 0;
        self.year = 0;
        self.fallback_streak = 0;
        self.oversize_streak = 0;
        self.oversize_limit = OVERSIZE_RESIZE_STREAK;
    }

    /// Size the ring for about `events` events in flight at once: half as
    /// many buckets (rounded up to a power of two), so that occupancy up to
    /// `events` never triggers a growth resize, and no resize shrinks the
    /// ring below that size until [`release_floor`](Self::release_floor) —
    /// a run's queue starts empty and fills as its flows start. On an empty
    /// queue this only widens the ring over empty buckets (not counted as a
    /// resize); the width stays until [`calibrate`](Self::calibrate) or a
    /// resize re-derives it. Never shrinks the ring.
    pub(crate) fn reserve(&mut self, events: usize) {
        let nb = events
            .div_ceil(2)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        self.floor = nb;
        if nb <= self.ring() {
            return;
        }
        if self.len > 0 {
            self.rebuild(nb, None);
            return;
        }
        self.set_ring(nb);
        self.cur = (self.year as usize) & self.mask;
    }

    /// Let the ring shrink with its population again, down to
    /// [`MIN_BUCKETS`]: the reserved population has arrived, and what
    /// follows is the drain.
    pub(crate) fn release_floor(&mut self) {
        self.floor = MIN_BUCKETS;
    }

    /// Make the ring `nb` buckets long, every one of them clean, reusing the
    /// storage of buckets past the current ring. The ring holds no event.
    fn set_ring(&mut self, nb: usize) {
        if nb > self.buckets.len() {
            self.buckets.resize_with(nb, Vec::new);
            self.dirty.resize(nb, false);
        }
        self.dirty[..nb].fill(false);
        self.mask = nb - 1;
    }

    /// Set the bucket width for a stream of `events_per_s` events per
    /// second — three mean gaps, the width a resize derives from its front
    /// sample — and keep the bucket count: one rebuild (none while empty)
    /// where a growing queue would rebuild on every doubling. A caller that
    /// knows its event rate before the first event calibrates better than
    /// the queue can, which has no gap to sample yet. A rate that is not
    /// finite and positive changes nothing; the width is held to the same
    /// floor as a rebuild's.
    pub(crate) fn calibrate(&mut self, events_per_s: f64) {
        let width = 3.0 / events_per_s;
        if !(width.is_finite() && width > 0.0) {
            return;
        }
        if self.len > 0 {
            self.rebuild(self.ring(), Some(width));
        } else {
            self.set_width(width, 0.0);
        }
    }

    /// Adopt `candidate` as the bucket width, held well above the ulp of
    /// timestamps up to `t_abs` so year boundaries stay strict. A width that
    /// is not finite and positive, or whose reciprocal is not, changes
    /// nothing.
    fn set_width(&mut self, candidate: f64, t_abs: f64) {
        let width = candidate.max(t_abs.max(1.0) * 1e-12);
        if width.is_finite() && width > 0.0 && width.recip().is_finite() {
            self.width = width;
            self.inv_width = width.recip();
        }
    }

    /// Lifetime occupancy statistics.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Position the scan at the bucket holding the current minimum (at its
    /// tail) and return its index; `None` when empty.
    fn locate(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        if let Some(b) = self.scan() {
            self.fallback_streak = 0;
            return Some(self.correct_skew(b));
        }
        // A full ring cycle found nothing in-year: sparse region or
        // far-future outliers. A persistent streak means the geometry is
        // wrong — re-derive it once per streak; otherwise (or if the resize
        // does not help) fall back to a direct minimum search.
        self.fallback_streak = self.fallback_streak.saturating_add(1);
        if self.fallback_streak == FALLBACK_RESIZE_STREAK {
            self.resize();
            if let Some(b) = self.scan() {
                return Some(b);
            }
        }
        Some(self.direct_min())
    }

    /// Skew watchdog on the located bucket `b`: a population can collapse
    /// into a window narrower than one bucket width *without changing
    /// size* — every push then dirties the same giant bucket and every pop
    /// re-sorts it, O(n log n) per operation, and no occupancy trigger ever
    /// fires. After a sustained streak of oversized locates, re-derive the
    /// width from the current gap distribution and re-locate. Exponential
    /// backoff when the resize cannot help (all-equal timestamps leave the
    /// width unchanged).
    fn correct_skew(&mut self, b: usize) -> usize {
        let threshold = OVERSIZE_FACTOR * (1 + self.len / self.ring());
        if self.buckets[b].len() <= threshold {
            self.oversize_streak = 0;
            return b;
        }
        self.oversize_streak += 1;
        if self.oversize_streak < self.oversize_limit {
            return b;
        }
        let old_width = self.width;
        self.resize();
        let helped = self.width < 0.5 * old_width || self.width > 2.0 * old_width;
        self.oversize_limit = if helped {
            OVERSIZE_RESIZE_STREAK
        } else {
            self.oversize_limit.saturating_mul(2)
        };
        // The resize parked the scan at the minimum's year; re-locate under
        // the new geometry (same minimum, possibly a different bucket).
        self.scan().unwrap_or_else(|| self.direct_min())
    }

    /// One bounded ring scan: walk at most a full cycle of buckets, one
    /// year per step, and return the first bucket whose minimum belongs to
    /// the scan year. Restores the scan position on a miss so repeated
    /// misses never inflate the year past the true minimum.
    fn scan(&mut self) -> Option<usize> {
        let (cur0, year0) = (self.cur, self.year);
        for _ in 0..self.ring() {
            let b = self.cur;
            if !self.buckets[b].is_empty() {
                if self.dirty[b] {
                    self.buckets[b].sort_unstable();
                    self.dirty[b] = false;
                }
                let last = self.buckets[b].last().expect("bucket checked non-empty");
                if self.year_of(last.time) <= self.year {
                    return Some(b);
                }
            }
            self.cur = (self.cur + 1) & self.mask;
            match self.year.checked_add(1) {
                Some(y) => self.year = y,
                None => break,
            }
        }
        self.cur = cur0;
        self.year = year0;
        None
    }

    /// O(buckets + events) direct search for the bucket holding the global
    /// minimum; moves the minimum to the bucket tail so callers pop or peek
    /// it uniformly. Does not touch the scan position.
    fn direct_min(&mut self) -> usize {
        let mut best: Option<(usize, Event)> = None;
        for (bi, bucket) in self.buckets[..self.ring()].iter().enumerate() {
            // Reversed event order makes the bucket minimum its max.
            if let Some(&m) = bucket.iter().max() {
                if best.is_none_or(|(_, be)| m > be) {
                    best = Some((bi, m));
                }
            }
        }
        let (bi, m) = best.expect("direct_min on a non-empty queue");
        let bucket = &mut self.buckets[bi];
        let idx = bucket
            .iter()
            .position(|e| *e == m)
            .expect("minimum is in its bucket");
        let tail = bucket.len() - 1;
        if idx != tail {
            bucket.swap(idx, tail);
            self.dirty[bi] = true;
        }
        bi
    }

    /// Rebuild the calendar with its bucket count from occupancy, never
    /// below the floor. O(n log n); amortised O(1) per operation under the
    /// doubling/halving triggers.
    fn resize(&mut self) {
        self.rebuild(
            self.len.next_power_of_two().clamp(self.floor, MAX_BUCKETS),
            None,
        );
    }

    /// Rebuild the calendar on `nb` buckets: width `width`, or from the
    /// observed inter-event gap distribution (median positive gap × 3 — a
    /// robust take on Brown's sampled average), scan repositioned at the
    /// minimum. Every bucket keeps its allocation, in the ring or past it.
    fn rebuild(&mut self, nb: usize, width: Option<f64>) {
        self.stats.resizes += 1;
        self.oversize_streak = 0;
        let mut all = std::mem::take(&mut self.spill);
        let ring = self.ring();
        for b in &mut self.buckets[..ring] {
            all.append(b);
        }
        self.set_ring(nb);
        if all.is_empty() {
            self.cur = 0;
            self.year = 0;
            self.spill = all;
            return;
        }

        let times = &mut self.times;
        times.clear();
        times.extend(all.iter().map(|e| e.time));
        let (t_min, t_max) = times
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &t| {
                (lo.min(t), hi.max(t))
            });
        // Width calibrates to the gaps among the events nearest the front —
        // where every operation happens — not a global statistic a sparse
        // tail would dominate (see [`FRONT_SAMPLE`]).
        let k = times.len().min(FRONT_SAMPLE);
        if k < times.len() {
            times.select_nth_unstable_by(k - 1, f64::total_cmp);
            times.truncate(k);
        }
        times.sort_unstable_by(f64::total_cmp);
        // The gaps, in place of the times they separate.
        for i in 1..times.len() {
            times[i - 1] = times[i] - times[i - 1];
        }
        times.pop();
        times.retain(|g| *g > 0.0);
        let gaps = times;
        let candidate = match width {
            Some(width) => width,
            None if gaps.is_empty() => self.width,
            None => {
                gaps.sort_unstable_by(f64::total_cmp);
                3.0 * gaps[gaps.len() / 2]
            }
        };
        // Positive and finite no matter what the gaps were.
        self.set_width(candidate, t_min.abs().max(t_max.abs()));

        // Redistribute under the new geometry and park the scan at the
        // minimum's year.
        for e in all.drain(..) {
            let b = (self.year_of(e.time) as usize) & self.mask;
            self.buckets[b].push(e);
            self.dirty[b] = true;
        }
        self.spill = all;
        self.year = self.year_of(t_min);
        self.cur = (self.year as usize) & self.mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    fn ev(time: f64, flow: u32, hop: u32) -> Event {
        Event {
            time,
            flow,
            hop,
            sent_at: time,
            queue_delay: 0.0,
        }
    }

    fn key(e: &Event) -> (f64, u32, u32) {
        (e.time, e.flow, e.hop)
    }

    /// The queue under test next to its oracle: every operation goes to
    /// both, every pop must agree on the full `(time, flow, hop)` key.
    #[derive(Default)]
    struct Paired {
        oracle: BinaryHeap<Event>,
        queue: EventQueue,
    }

    impl Paired {
        fn push(&mut self, e: Event) {
            self.oracle.push(e);
            self.queue.push(e);
        }

        fn pop(&mut self) -> Option<Event> {
            match (self.oracle.pop(), self.queue.pop()) {
                (None, None) => None,
                (Some(a), Some(b)) => {
                    assert_eq!(key(&a), key(&b));
                    Some(b)
                }
                (a, b) => panic!("length mismatch: {a:?} vs {b:?}"),
            }
        }

        fn drain(&mut self) {
            while self.pop().is_some() {}
        }
    }

    /// Run a heap-oracle test on a queue that grows as it fills and on one
    /// sized for `events` up front, the way a shard sizes its queue before
    /// the first event.
    fn on_each_queue(events: usize, mut test: impl FnMut(&mut Paired)) {
        test(&mut Paired::default());
        let mut presized = Paired::default();
        presized.queue.reserve(events);
        assert_eq!(presized.queue.stats().resizes, 0, "sizing moves no event");
        test(&mut presized);
    }

    #[test]
    fn pops_in_time_flow_hop_order() {
        let mut q = EventQueue::new();
        q.push(ev(3.0, 0, 0));
        q.push(ev(1.0, 2, 1));
        q.push(ev(1.0, 1, 5));
        q.push(ev(2.0, 0, 0));
        q.push(ev(1.0, 1, 2));
        let order: Vec<(f64, u32, u32)> = std::iter::from_fn(|| q.pop()).map(|e| key(&e)).collect();
        assert_eq!(
            order,
            vec![
                (1.0, 1, 2),
                (1.0, 1, 5),
                (1.0, 2, 1),
                (2.0, 0, 0),
                (3.0, 0, 0)
            ]
        );
    }

    #[test]
    fn pop_if_leaves_a_refused_minimum_queued() {
        let mut q = EventQueue::new();
        q.push(ev(2.0, 0, 0));
        q.push(ev(1.0, 1, 0));
        assert!(q.pop_if(|e| e.time < 1.0).is_none());
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_if(|e| e.time < 1.5).map(|e| e.flow), Some(1));
        assert!(q.pop_if(|e| e.time < 1.5).is_none());
        assert_eq!(q.pop().map(|e| e.flow), Some(0));
        assert!(q.pop_if(|_| true).is_none());
    }

    #[test]
    fn matches_heap_on_clustered_and_duplicate_times() {
        on_each_queue(500, |pair| {
            for i in 0..500u32 {
                // Many exact duplicates and micro-gaps.
                pair.push(ev((i / 7) as f64 * 1e-5, i % 13, i % 3));
                if i == 100 {
                    // The width set mid-fill, as a shard sets it once its
                    // first emissions are in: 7 events per 1e-5 s.
                    pair.queue.calibrate(7e5);
                }
            }
            pair.drain();
        });
    }

    #[test]
    fn far_future_outliers_force_resizes_and_keep_order() {
        on_each_queue(203, |pair| {
            for i in 0..200u32 {
                pair.push(ev(i as f64 * 1e-6, i, 0));
            }
            // Outliers far beyond the cluster, including a year-saturating
            // one.
            pair.push(ev(1e9, 1000, 0));
            pair.push(ev(1e18, 1001, 0));
            pair.push(ev(3.5e3, 1002, 0));
            pair.drain();
            assert!(
                pair.queue.stats().resizes > 0,
                "outlier drain must trigger resizes"
            );
        });
    }

    #[test]
    fn interleaved_push_pop_matches_heap() {
        // Deterministic pseudo-random interleaving: push bursts, pop some,
        // push more with earlier and later times than the current head.
        on_each_queue(300, |pair| {
            let mut state = 0x9e3779b97f4a7c15u64;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut clock = 0.0f64;
            for round in 0..300 {
                for _ in 0..(next() % 8) {
                    let r = next();
                    let t = clock + (r % 1000) as f64 * 1e-4;
                    pair.push(ev(t, (r >> 10) as u32 % 50, (r >> 20) as u32 % 6));
                }
                if round == 10 {
                    // ≈ 3.5 pushes a round, a round ≈ 1e-4 s of clock.
                    pair.queue.calibrate(3.5e4);
                }
                for _ in 0..(next() % 6) {
                    if let Some(e) = pair.pop() {
                        clock = e.time; // future pushes never precede pops
                    }
                }
            }
            pair.drain();
        });
    }

    #[test]
    fn collapsed_steady_state_triggers_corrective_resize() {
        // Hold-model skew: prefill a wide spread (the geometry adapts to
        // it), then pop-and-reinsert near the front at constant occupancy —
        // the population collapses into a window far narrower than the
        // adapted bucket width. The oversize watchdog must re-derive the
        // width; pop order must match the heap throughout.
        let n = 1024u32;
        on_each_queue(n as usize, |pair| {
            for i in 0..n {
                pair.push(ev(i as f64 / n as f64, i, 0));
            }
            pair.queue.calibrate(n as f64);
            let resizes_after_prefill = pair.queue.stats().resizes;
            let mut state = 0x243F6A8885A308D3u64;
            for _ in 0..20_000 {
                let a = pair.pop().expect("constant occupancy");
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Increment ~ the prefill spacing: the front absorbs the old
                // spread quickly, then the whole population lives in a
                // window of ~2 increments — narrower than the adapted
                // bucket width.
                let dt = (state % 1024) as f64 * 2e-6;
                pair.push(ev(a.time + dt, a.flow, a.hop));
            }
            assert!(
                pair.queue.stats().resizes > resizes_after_prefill,
                "the oversize watchdog must fire on a collapsed steady state"
            );
            pair.drain();
        });
    }

    #[test]
    fn all_equal_timestamps_back_off_instead_of_thrashing() {
        // An unspreadable distribution: every event at the same instant.
        // The corrective resize cannot change the width, so the watchdog
        // must back off exponentially rather than resize every few pops.
        let mut q = EventQueue::new();
        for i in 0..2048u32 {
            q.push(ev(1.0, i, 0));
        }
        let after_fill = q.stats().resizes;
        for expect in 0..2048u32 {
            let e = q.pop().expect("queue still holds events");
            assert_eq!(e.flow, expect, "equal-time pops break ties by flow");
        }
        // Shrink resizes fire during the drain too; the bound covers both.
        let corrective = q.stats().resizes - after_fill;
        assert!(
            corrective <= 12,
            "backoff must bound corrective resizes on unspreadable input, got {corrective}"
        );
    }

    #[test]
    fn clear_resets_and_queue_is_reusable() {
        on_each_queue(100, |pair| {
            for i in 0..100u32 {
                pair.push(ev(i as f64, i, 0));
            }
            pair.oracle.clear();
            pair.queue.clear();
            assert!(pair.queue.is_empty());
            // Reuse at a different time scale: the kept geometry must not
            // disturb the order.
            pair.push(ev(0.5, 7, 1));
            for i in 0..100u32 {
                pair.push(ev(i as f64 * 1e-4, i, 0));
            }
            pair.drain();
        });
    }

    #[test]
    fn reserve_and_calibrate_replace_the_growth_resizes() {
        // A queue sized for its population and calibrated once after the
        // first batch rebuilds once; the same fill grown from empty rebuilds
        // on every doubling.
        let fill = |q: &mut EventQueue| {
            for i in 0..4096u32 {
                q.push(ev(i as f64 * 1e-6, i, 0));
            }
        };
        let mut grown = EventQueue::new();
        fill(&mut grown);
        assert!(grown.stats().resizes >= 4, "{:?}", grown.stats());
        let mut sized = EventQueue::new();
        sized.reserve(4096);
        fill(&mut sized);
        sized.calibrate(1e6);
        assert_eq!(sized.stats().resizes, 1);
        // Reserving never shrinks; calibrating an empty queue sets the
        // width without a rebuild, and a bad rate changes nothing.
        let mut empty = EventQueue::new();
        empty.reserve(8192);
        empty.reserve(4);
        empty.calibrate(1.0);
        empty.calibrate(0.0);
        empty.calibrate(f64::NAN);
        assert_eq!(empty.stats().resizes, 0);
        let mut pair = Paired {
            queue: empty,
            ..Paired::default()
        };
        for i in 0..8192u32 {
            pair.push(ev(i as f64, i, 0));
        }
        assert_eq!(
            pair.queue.stats().resizes,
            0,
            "8192 events fit 4096 buckets"
        );
        pair.drain();
        // An empty queue's width gets a rebuild's floor: a rate far past
        // the timestamps' resolution leaves neither a sub-ulp width nor an
        // infinite reciprocal behind.
        let mut fine = Paired::default();
        for events_per_s in [1e300, f64::MAX] {
            fine.queue.calibrate(events_per_s);
            assert_eq!(fine.queue.width, 1e-12);
            assert!(fine.queue.inv_width.is_finite());
        }
        for i in 0..64u32 {
            fine.push(ev(1.0 + f64::from(i) * 1e-9, i, 0));
        }
        fine.drain();
    }

    #[test]
    fn stats_track_pushes_and_peak() {
        let mut q = EventQueue::new();
        for i in 0..10u32 {
            q.push(ev(i as f64, i, 0));
        }
        q.pop();
        q.clear();
        let s = q.stats();
        assert_eq!(s.pushes, 10);
        assert_eq!(s.peak_occupancy, 10);
        assert_eq!(s.occupancy_sum, 55);
        assert_eq!(s.resizes, 0, "ten events never leave the initial ring");
    }
}
