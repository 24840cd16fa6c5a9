//! The FlowMonitor equivalent: delay, loss and utilisation statistics.
//!
//! The paper uses ns-3's FlowMonitor to measure delay and loss rate and adds
//! a custom module for link-level utilisation (§5). Like FlowMonitor, this
//! module keeps per-flow sums and *binned* delay histograms, never the
//! deliveries themselves, and summarises them into the quantities the
//! figures plot — plus *per-flow* delay means, which is what lets the
//! application models (§7) consume simulated per-pair RTTs instead of
//! propagation-only latency.
//!
//! Everything here is order-free: counts and histogram bins are integers
//! that add, a flow's sums arrive whole from the one shard that delivered
//! it, and means are taken over the per-flow sums in flow-index order — so
//! the statistics are bit-identical however the engine split the run.
//! Reported quantiles are histogram quantiles: within 2⁻¹⁰ relative of the
//! nearest-rank sample, exact at the minimum and the maximum.

use serde::{Deserialize, Serialize};

/// Accumulator for scalar samples (delay, queue occupancy, …). Keeps every
/// sample: for the few hundred values of [`crate::tcp`], and as the exact
/// oracle [`DelayHistogram`] is tested against.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SampleStats {
    values: Vec<f64>,
}

impl SampleStats {
    /// Record a sample.
    pub fn record(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// Mean of the samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Maximum sample (0 if empty).
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) using nearest-rank on sorted samples.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q));
        if self.values.is_empty() {
            return 0.0;
        }
        let mut scratch = self.values.clone();
        let rank = nearest_rank(scratch.len() as u64, q) as usize;
        *scratch.select_nth_unstable_by(rank, f64::total_cmp).1
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Zero-based nearest rank of the `q`-quantile among `count > 0` samples.
fn nearest_rank(count: u64, q: f64) -> u64 {
    ((count - 1) as f64 * q).round() as u64
}

/// Low bits of an `f64` dropped to form a bin key: the sign, the exponent
/// and the top 10 mantissa bits remain, i.e. 1 024 bins per octave.
const KEY_SHIFT: u32 = 42;
/// Bins per octave (relative bin width 2⁻¹⁰ < 0.1 %).
const PAGE_BINS: usize = 1 << (52 - KEY_SHIFT);
/// Octaves covered: 2⁻⁴⁰ s (≈ 1 ps) up to 2¹⁰ s.
const OCTAVES: usize = 50;
/// Key of the first bin, the one starting at 2⁻⁴⁰.
const FIRST_KEY: u64 = (1023 - 40) << (52 - KEY_SHIFT);

/// A mergeable log-linear histogram of non-negative samples (delays in
/// seconds): integer counts in bins `f64::to_bits() >> 42` wide over
/// 2⁻⁴⁰ … 2¹⁰, one bin for zero and anything below, the top bin saturating,
/// and the exact minimum and maximum alongside. `merge` is addition, so any
/// split of a sample set over any number of histograms, merged in any
/// order, gives the same histogram. Bins are allocated one octave page
/// (8 KiB) at a time on first touch; a run's delays span a few octaves.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayHistogram {
    count: u64,
    /// Samples below 2⁻⁴⁰ (zero included).
    zero: u64,
    pages: [Option<Box<[u64; PAGE_BINS]>>; OCTAVES],
    min: f64,
    max: f64,
}

impl Default for DelayHistogram {
    fn default() -> Self {
        Self {
            count: 0,
            zero: 0,
            pages: [const { None }; OCTAVES],
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl DelayHistogram {
    /// Record a sample.
    #[inline]
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v < f64::from_bits(FIRST_KEY << KEY_SHIFT) {
            self.zero += 1;
            return;
        }
        // NaN and +∞ carry the largest keys, so they saturate too.
        let bin = ((v.to_bits() >> KEY_SHIFT) - FIRST_KEY).min((OCTAVES * PAGE_BINS - 1) as u64);
        let page =
            self.pages[bin as usize / PAGE_BINS].get_or_insert_with(|| Box::new([0; PAGE_BINS]));
        page[bin as usize % PAGE_BINS] += 1;
    }

    /// Add `other`'s samples to this histogram.
    pub fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.zero += other.zero;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.pages.iter_mut().zip(&other.pages) {
            if let Some(theirs) = theirs {
                let mine = mine.get_or_insert_with(|| Box::new([0; PAGE_BINS]));
                mine.iter_mut()
                    .zip(theirs.iter())
                    .for_each(|(a, b)| *a += b);
            }
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile (0 ≤ q ≤ 1; 0 if empty): the midpoint of the bin
    /// holding the nearest-rank sample, clamped into `[min, max]` — within
    /// 2⁻¹⁰ relative of that sample, and exactly it for the first and the
    /// last rank, for an all-equal sample and for zero.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q));
        if self.count == 0 {
            return 0.0;
        }
        let rank = nearest_rank(self.count, q);
        if rank == 0 {
            return self.min;
        }
        if rank == self.count - 1 {
            return self.max;
        }
        let mut seen = self.zero;
        if rank < seen {
            return 0.0_f64.max(self.min).min(self.max);
        }
        for (octave, page) in self.pages.iter().enumerate() {
            for (slot, &n) in page.iter().flat_map(|p| p.iter().enumerate()) {
                seen += n;
                if rank < seen {
                    let key = FIRST_KEY + (octave * PAGE_BINS + slot) as u64;
                    let midpoint = f64::from_bits(key << KEY_SHIFT | 1 << (KEY_SHIFT - 1));
                    return midpoint.max(self.min).min(self.max);
                }
            }
        }
        unreachable!("bin counts sum to the sample count")
    }
}

/// What the engine bins per delivered packet: one-way delay and total
/// queueing delay (seconds), per traffic class (`[foreground, background]`;
/// an unclassified run is all foreground). Every shard fills its own and
/// the run adds them up — see [`DelayHistogram::merge`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeliveryHistograms {
    /// One-way delay per class.
    pub delay: [DelayHistogram; 2],
    /// Total queueing delay per class.
    pub queue_delay: [DelayHistogram; 2],
}

impl DeliveryHistograms {
    /// Record one delivered packet.
    #[inline]
    pub fn record(&mut self, background: bool, delay_s: f64, queue_delay_s: f64) {
        self.delay[background as usize].record(delay_s);
        self.queue_delay[background as usize].record(queue_delay_s);
    }

    /// Add `other`'s deliveries.
    pub fn merge(&mut self, other: &Self) {
        for class in 0..2 {
            self.delay[class].merge(&other.delay[class]);
            self.queue_delay[class].merge(&other.queue_delay[class]);
        }
    }
}

/// Tallies of one flow — or of any set of flows, since they add.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FlowStat {
    /// Summed one-way delay of the delivered packets, seconds.
    pub delay_sum: f64,
    /// Summed total queueing delay of the delivered packets, seconds.
    pub queue_delay_sum: f64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped.
    pub dropped: u64,
}

impl FlowStat {
    /// Add `other`'s tallies.
    pub fn add(&mut self, other: &FlowStat) {
        self.delay_sum += other.delay_sum;
        self.queue_delay_sum += other.queue_delay_sum;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
    }

    /// Mean one-way delay of the delivered packets in milliseconds (0 if
    /// none).
    pub fn mean_delay_ms(&self) -> f64 {
        mean_ms(self.delay_sum, self.delivered)
    }

    /// Mean total queueing delay per delivered packet in milliseconds (0 if
    /// none).
    pub fn mean_queue_delay_ms(&self) -> f64 {
        mean_ms(self.queue_delay_sum, self.delivered)
    }

    /// Loss rate over all offered packets.
    pub fn loss_rate(&self) -> f64 {
        let total = self.delivered + self.dropped;
        if total == 0 {
            0.0
        } else {
            self.dropped as f64 / total as f64
        }
    }
}

/// Mean of `n` delays summing to `sum_s` seconds, in milliseconds.
fn mean_ms(sum_s: f64, n: u64) -> f64 {
    if n > 0 {
        sum_s / n as f64 * 1e3
    } else {
        0.0
    }
}

/// The simulation-wide monitor.
#[derive(Debug, Clone, Default)]
pub struct FlowMonitor {
    /// Tallies per flow.
    pub flows: Vec<FlowStat>,
    /// Delay histograms of the delivered packets.
    pub deliveries: DeliveryHistograms,
}

impl FlowMonitor {
    /// A monitor tracking `num_flows` flows.
    pub fn new(num_flows: usize) -> Self {
        Self {
            flows: vec![FlowStat::default(); num_flows],
            deliveries: DeliveryHistograms::default(),
        }
    }

    /// Fold tallies of `flow` into the monitor — the single entry for
    /// per-flow statistics. A flow delivers on exactly one shard, so its
    /// delay sums arrive whole (every other shard adds zero).
    pub fn absorb_flow(&mut self, flow: usize, stat: &FlowStat) {
        self.flows[flow].add(stat);
    }

    /// Add what `other` monitored of the same flows (another shard of the
    /// same run); the order monitors are merged in is irrelevant.
    pub fn merge(&mut self, other: &FlowMonitor) {
        for (flow, stat) in other.flows.iter().enumerate() {
            self.absorb_flow(flow, stat);
        }
        self.deliveries.merge(&other.deliveries);
    }

    /// Tallies of the flows `select` picks, added in flow-index order — so
    /// every mean derived from them is independent of how the run was
    /// executed.
    fn totals(&self, select: impl Fn(usize) -> bool) -> FlowStat {
        let mut total = FlowStat::default();
        for (_, stat) in self.flows.iter().enumerate().filter(|&(k, _)| select(k)) {
            total.add(stat);
        }
        total
    }

    /// Summarise into a report.
    pub fn report(&self, link_utilizations: Vec<f64>) -> SimReport {
        let all = self.totals(|_| true);
        let mut delay = self.deliveries.delay[0].clone();
        delay.merge(&self.deliveries.delay[1]);
        SimReport {
            mean_delay_ms: all.mean_delay_ms(),
            p95_delay_ms: delay.quantile(0.95) * 1e3,
            mean_queue_delay_ms: all.mean_queue_delay_ms(),
            loss_rate: all.loss_rate(),
            delivered: all.delivered,
            dropped: all.dropped,
            flow_mean_delay_ms: self.flows.iter().map(FlowStat::mean_delay_ms).collect(),
            flow_delivered: self.flows.iter().map(|f| f.delivered).collect(),
            flow_dropped: self.flows.iter().map(|f| f.dropped).collect(),
            mean_link_utilization: if link_utilizations.is_empty() {
                0.0
            } else {
                link_utilizations.iter().sum::<f64>() / link_utilizations.len() as f64
            },
            max_link_utilization: link_utilizations.iter().copied().fold(0.0, f64::max),
            link_utilizations,
            background: None,
            per_class: None,
        }
    }

    /// The per-class breakdown, `is_background` telling each flow's class.
    /// Under the hybrid engine background flows never enter the packet
    /// engine, so the background entry is all zeroes there.
    pub fn per_class(&self, is_background: impl Fn(usize) -> bool) -> PerClassReport {
        let class = |c: usize| {
            let t = self.totals(|k| is_background(k) as usize == c);
            ClassReport {
                delivered: t.delivered,
                dropped: t.dropped,
                mean_delay_ms: t.mean_delay_ms(),
                p99_delay_ms: self.deliveries.delay[c].quantile(0.99) * 1e3,
                mean_queue_delay_ms: t.mean_queue_delay_ms(),
                p99_queue_delay_ms: self.deliveries.queue_delay[c].quantile(0.99) * 1e3,
            }
        };
        PerClassReport {
            foreground: class(0),
            background: class(1),
        }
    }
}

/// Aggregate statistics of the background traffic class in a hybrid run —
/// what the fluid model produced instead of per-packet samples. Foreground
/// statistics stay exact and per-flow in the rest of [`SimReport`]; the
/// background class only matters in aggregate (its throughput, and the queue
/// it induced), so that is all the fluid model reports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackgroundStats {
    /// Background flows modelled as fluid.
    pub flows: usize,
    /// Bits offered by background flows over the simulated duration.
    pub offered_bits: f64,
    /// Bits delivered to background destinations (fluid integral).
    pub delivered_bits: f64,
    /// Bits dropped at capped buffers (fluid integral).
    pub dropped_bits: f64,
    /// Aggregate delivered background throughput, bits/s.
    pub mean_throughput_bps: f64,
    /// Time-averaged total fluid backlog across links, bytes.
    pub mean_backlog_bytes: f64,
    /// Peak total fluid backlog across links, bytes.
    pub peak_backlog_bytes: f64,
    /// Rate-change events the fluid solver processed.
    pub rate_events: u64,
    /// Packet events a pure packet run of the background class would have
    /// processed (one per hop plus delivery, per packet) — the work the
    /// fluid model avoided.
    pub packet_equivalent_events: f64,
    /// `true` when the fluid solver's safety valve stopped the trajectory
    /// early (rate-event cap hit, or a non-finite breakpoint) — every
    /// statistic above then under-counts the tail of the run. Previously
    /// the valve fired silently; the hybrid parity suite asserts this stays
    /// unset on well-formed inputs.
    pub truncated: bool,
    /// Simulated seconds the valve cut off: `duration − t_stop`, clamped at
    /// 0 (0 when not truncated, or when the valve fired during the
    /// post-duration drain of residual backlog).
    pub truncated_horizon_s: f64,
}

/// Packet-level statistics of one traffic class
/// ([`crate::routing::TrafficClass`]) — the per-class view of a classified
/// run that the queue disciplines ([`crate::network::QueueDiscipline`]) and
/// the economics loop read. Delay statistics cover the class's *delivered*
/// packets; background entries are all zero in hybrid runs, where the
/// background class is fluid (see [`BackgroundStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ClassReport {
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped.
    pub dropped: u64,
    /// Mean one-way delay, milliseconds.
    pub mean_delay_ms: f64,
    /// 99th-percentile one-way delay, milliseconds (histogram quantile:
    /// ≤ 2⁻¹⁰ relative, exact at min and max — see [`DelayHistogram`]).
    pub p99_delay_ms: f64,
    /// Mean total queueing delay per packet, milliseconds.
    pub mean_queue_delay_ms: f64,
    /// 99th-percentile total queueing delay per packet, milliseconds
    /// (histogram quantile: ≤ 2⁻¹⁰ relative, exact at min and max).
    pub p99_queue_delay_ms: f64,
}

/// The per-class breakdown of a classified run ([`SimReport::per_class`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PerClassReport {
    /// The latency-sensitive foreground class.
    pub foreground: ClassReport,
    /// The bulk background class (packet-simulated; zero under the hybrid
    /// engine, whose background statistics live in [`SimReport::background`]).
    pub background: ClassReport,
}

/// Summary of a simulation run — the numbers the paper's Figs. 5, 6 and 11
/// plot, plus per-flow delay means for the application models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Mean one-way packet delay in milliseconds.
    pub mean_delay_ms: f64,
    /// 95th-percentile one-way delay in milliseconds (histogram quantile:
    /// ≤ 2⁻¹⁰ relative, exact at min and max — see [`DelayHistogram`]).
    pub p95_delay_ms: f64,
    /// Mean total queueing delay per packet in milliseconds.
    pub mean_queue_delay_ms: f64,
    /// Fraction of offered packets lost.
    pub loss_rate: f64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped.
    pub dropped: u64,
    /// Mean one-way delay per flow, milliseconds (0 for flows that delivered
    /// nothing).
    pub flow_mean_delay_ms: Vec<f64>,
    /// Packets delivered per flow.
    pub flow_delivered: Vec<u64>,
    /// Packets dropped per flow.
    pub flow_dropped: Vec<u64>,
    /// Mean utilisation across links.
    pub mean_link_utilization: f64,
    /// Maximum utilisation across links.
    pub max_link_utilization: f64,
    /// Per-link utilisation.
    pub link_utilizations: Vec<f64>,
    /// Aggregate background-class statistics — `Some` only when a hybrid run
    /// actually modelled background flows as fluid, so reports from
    /// all-foreground runs stay exactly equal to pure packet reports.
    pub background: Option<BackgroundStats>,
    /// Per-class packet statistics — `Some` only when the demand set carries
    /// background-tagged demands, so unclassified runs keep their historical
    /// reports unchanged field for field.
    pub per_class: Option<PerClassReport>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn sample_stats_basics() {
        let mut s = SampleStats::default();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.median(), 0.0);
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.max(), 5.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
    }

    #[test]
    fn quantile_is_order_insensitive() {
        let mut a = SampleStats::default();
        let mut b = SampleStats::default();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            a.record(v);
        }
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            b.record(v);
        }
        for q in [0.0, 0.3, 0.5, 0.95, 1.0] {
            assert_eq!(a.quantile(q), b.quantile(q));
        }
        // A NaN sorts last instead of panicking inside the selection.
        a.record(f64::NAN);
        assert_eq!(a.quantile(0.0), 1.0);
        assert!(a.quantile(1.0).is_nan());
    }

    /// Log-uniform positive samples over 12 decades with exact zeros and
    /// repeated values mixed in.
    fn random_samples(rng: &mut StdRng, n: usize) -> Vec<f64> {
        let mut samples: Vec<f64> = Vec::with_capacity(n);
        for _ in 0..n {
            let v = match rng.gen_range(0usize..10) {
                0 => 0.0,
                1 if !samples.is_empty() => samples[rng.gen_range(0..samples.len())],
                _ => 10f64.powf(rng.gen_range(-9.0..3.0)),
            };
            samples.push(v);
        }
        samples
    }

    /// Fisher–Yates (the `rand` shim has no `shuffle`).
    fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, rng.gen_range(0..i + 1));
        }
    }

    fn histogram_of(samples: &[f64]) -> DelayHistogram {
        let mut h = DelayHistogram::default();
        samples.iter().for_each(|&v| h.record(v));
        h
    }

    fn exact_of(samples: &[f64]) -> SampleStats {
        let mut s = SampleStats::default();
        samples.iter().for_each(|&v| s.record(v));
        s
    }

    #[test]
    fn histogram_quantiles_sit_within_one_bin_of_the_sorted_ones() {
        let mut rng = StdRng::seed_from_u64(21);
        for n in [1usize, 2, 3, 10, 1_000, 20_000] {
            let samples = random_samples(&mut rng, n);
            let (h, exact) = (histogram_of(&samples), exact_of(&samples));
            assert_eq!(h.count(), n as u64);
            for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
                let (got, want) = (h.quantile(q), exact.quantile(q));
                assert!(
                    (got - want).abs() <= want * 2f64.powi(-10),
                    "n {n} q {q}: {got} vs {want}"
                );
                if q == 0.0 || q == 1.0 || want == 0.0 {
                    assert_eq!(got, want, "n {n} q {q}");
                }
            }
        }
    }

    #[test]
    fn all_equal_samples_and_the_empty_histogram_are_exact() {
        let empty = DelayHistogram::default();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(empty.quantile(q), 0.0);
        }
        for v in [0.0, 1e-15, 0.0123456789, 7.5e4] {
            let h = histogram_of(&[v; 17]);
            for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
                assert_eq!(h.quantile(q), v, "{v} at {q}");
            }
        }
    }

    #[test]
    fn out_of_range_samples_saturate_instead_of_panicking() {
        // Below 2⁻⁴⁰: the zero bin. Above 2¹⁰ (and ∞): the top bin.
        let tiny = [0.0, 1e-300, f64::MIN_POSITIVE, 2f64.powi(-41), 1.0, 1.0];
        let h = histogram_of(&tiny);
        assert_eq!(h.zero, 4);
        // Inside the zero bin all that is known is "below 2⁻⁴⁰": reported
        // as 0, exact when the sample is 0.
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(0.4), 0.0);
        assert_eq!(h.quantile(1.0), 1.0);
        let huge = [1.0, 2f64.powi(10), 1e9, 1e300, f64::INFINITY];
        let h = histogram_of(&huge);
        let top = h.pages[OCTAVES - 1].as_ref().expect("top page touched");
        assert_eq!(top[PAGE_BINS - 1], 4);
        assert_eq!(h.quantile(1.0), f64::INFINITY);
        // Inside the saturated bin the midpoint is all that is known.
        let mid = h.quantile(0.5);
        assert!((1023.0..1024.0).contains(&mid), "{mid}");
    }

    #[test]
    fn merge_is_order_free() {
        let mut rng = StdRng::seed_from_u64(5);
        let samples = random_samples(&mut rng, 5_000);
        let whole = histogram_of(&samples);
        for parts in [1usize, 2, 3, 7] {
            let mut dealt = samples.clone();
            shuffle(&mut rng, &mut dealt);
            let mut hists = vec![DelayHistogram::default(); parts];
            for (i, &v) in dealt.iter().enumerate() {
                hists[i % parts].record(v);
            }
            shuffle(&mut rng, &mut hists);
            let mut merged = DelayHistogram::default();
            hists.iter().for_each(|h| merged.merge(h));
            assert_eq!(merged, whole, "{parts} parts");
            for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
                assert_eq!(merged.quantile(q), whole.quantile(q));
            }
        }
    }

    #[test]
    fn loss_rate_and_report() {
        let mut m = FlowMonitor::new(2);
        let mut delay_sum = [0.0; 2];
        for i in 0..90 {
            let delay = 0.010 + i as f64 * 1e-5;
            delay_sum[i % 2] += delay;
            m.deliveries.record(false, delay, 1e-4);
        }
        for (flow, dropped) in [(0, 0), (1, 10)] {
            let stat = FlowStat {
                delay_sum: delay_sum[flow],
                queue_delay_sum: 45.0 * 1e-4,
                delivered: 45,
                dropped,
            };
            m.absorb_flow(flow, &stat);
        }
        let report = m.report(vec![0.5, 0.7]);
        assert!((report.loss_rate - 0.1).abs() < 1e-12);
        assert_eq!(report.delivered, 90);
        assert_eq!(report.dropped, 10);
        assert!(report.mean_delay_ms > 10.0 && report.mean_delay_ms < 11.0);
        assert!((report.mean_queue_delay_ms - 0.1).abs() < 1e-12);
        // Nearest rank of 0.95 among 90 samples is the 86th.
        let p95 = (0.010 + 85.0 * 1e-5) * 1e3;
        assert!((report.p95_delay_ms - p95).abs() <= p95 * 2f64.powi(-10));
        assert!((report.mean_link_utilization - 0.6).abs() < 1e-12);
        assert!((report.max_link_utilization - 0.7).abs() < 1e-12);
        // Per-flow accounting: 45 packets each, drops all on flow 1.
        assert_eq!(report.flow_delivered, vec![45, 45]);
        assert_eq!(report.flow_dropped, vec![0, 10]);
        assert!(report.flow_mean_delay_ms[0] > 10.0);
        // Flow 1 as the background class: the breakdown splits the tallies.
        let classes = m.per_class(|k| k == 1);
        assert_eq!(classes.foreground.delivered, 45);
        assert_eq!(classes.background.dropped, 10);
        assert_eq!(
            classes.foreground.mean_delay_ms,
            report.flow_mean_delay_ms[0]
        );
    }

    #[test]
    fn empty_monitor_reports_zeroes() {
        let m = FlowMonitor::new(1);
        let r = m.report(Vec::new());
        assert_eq!(r.loss_rate, 0.0);
        assert_eq!(r.mean_delay_ms, 0.0);
        assert_eq!(r.p95_delay_ms, 0.0);
        assert_eq!(r.max_link_utilization, 0.0);
        assert_eq!(r.flow_mean_delay_ms, vec![0.0]);
        assert_eq!(m.per_class(|_| false), PerClassReport::default());
    }

    #[test]
    #[should_panic]
    fn quantile_rejects_out_of_range() {
        SampleStats::default().quantile(1.5);
    }
}
