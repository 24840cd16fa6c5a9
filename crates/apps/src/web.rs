//! Web page-load-time replay (§7.2, Fig. 13).
//!
//! The paper replays 80 real pages through Mahimahi with (a) unmodified
//! latencies, (b) all latencies scaled to 0.33× ("cISP"), and (c) only the
//! client→server direction scaled ("cISP-selective"), and reports the CDFs
//! of page load times and of individual object load times. Real page
//! captures cannot ship with this repository, so the replay here runs over a
//! synthetic corpus whose object counts, sizes and dependency depths follow
//! published web-page statistics; the replay mechanics (dependency chains of
//! request/response exchanges, per-direction RTT scaling, no bandwidth cap)
//! mirror the paper's setup.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One object on a page.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageObject {
    /// Transfer size in bytes.
    pub bytes: f64,
    /// Dependency depth: 0 = fetched immediately (the root HTML), depth d > 0
    /// = discovered only after some depth-(d−1) object finished.
    pub depth: usize,
    /// Server processing time before the first response byte, seconds.
    pub server_time_s: f64,
}

/// A synthetic web page.
#[derive(Debug, Clone)]
pub struct Page {
    /// The page's objects (the first is the root document).
    pub objects: Vec<PageObject>,
    /// Client-side compute time attributable to parsing/rendering, seconds.
    pub compute_s: f64,
    /// Baseline round-trip time to the page's servers, seconds.
    pub base_rtt_s: f64,
}

/// A corpus of synthetic pages (the stand-in for the Alexa sample).
#[derive(Debug, Clone)]
pub struct PageCorpus {
    /// The pages.
    pub pages: Vec<Page>,
}

impl PageCorpus {
    /// Generate a corpus of `n` pages with realistic shape: tens of objects,
    /// mostly small, dependency depths of 2–6, RTTs of 30–120 ms, and a few
    /// hundred milliseconds of client compute.
    pub fn generate(n: usize, seed: u64) -> Self {
        assert!(n >= 1);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3EB_FAC_ADE);
        let pages = (0..n)
            .map(|_| {
                let object_count = 10 + (rng.gen::<f64>() * 90.0) as usize;
                let max_depth = 2 + (rng.gen::<f64>() * 4.0) as usize;
                let base_rtt_s = 0.030 + rng.gen::<f64>() * 0.090;
                let compute_s = 0.15 + rng.gen::<f64>() * 0.5;
                let mut objects = vec![PageObject {
                    bytes: 20_000.0 + rng.gen::<f64>() * 60_000.0,
                    depth: 0,
                    server_time_s: 0.02 + rng.gen::<f64>() * 0.05,
                }];
                for _ in 1..object_count {
                    // Log-uniform sizes from 1 KB to 1 MB, skewed small.
                    let bytes = 1_000.0 * (1000.0f64).powf(rng.gen::<f64>().powi(2));
                    objects.push(PageObject {
                        bytes,
                        depth: 1 + (rng.gen::<f64>() * max_depth as f64) as usize,
                        server_time_s: 0.005 + rng.gen::<f64>() * 0.03,
                    });
                }
                Page {
                    objects,
                    compute_s,
                    base_rtt_s,
                }
            })
            .collect();
        Self { pages }
    }

    /// Generate a corpus whose page RTTs come from a *measured* distribution
    /// — e.g. the simulated per-pair RTTs of `cisp_core::evaluate` — instead
    /// of the synthetic 30–120 ms draw. RTTs are in seconds and assigned
    /// round-robin across pages, so every measured pair shapes some pages.
    /// Page structure (objects, depths, compute) still follows the seeded
    /// synthetic shape.
    pub fn generate_with_rtts(n: usize, seed: u64, rtts_s: &[f64]) -> Self {
        assert!(!rtts_s.is_empty(), "need at least one RTT");
        for &rtt in rtts_s {
            assert!(rtt.is_finite() && rtt >= 0.0, "RTTs must be finite and ≥ 0");
        }
        let mut corpus = Self::generate(n, seed);
        for (k, page) in corpus.pages.iter_mut().enumerate() {
            page.base_rtt_s = rtts_s[k % rtts_s.len()];
        }
        corpus
    }
}

/// Which latency treatment a replay applies (Fig. 13's three lines).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplayScenario {
    /// Unmodified latencies.
    Baseline,
    /// Both directions ride cISP: RTT × `factor` (paper: 0.33).
    Cisp {
        /// RTT scaling factor.
        factor: f64,
    },
    /// Only client→server traffic rides cISP. The request leg (and the ACK
    /// clocking it drives) is scaled; the response leg is not.
    CispSelective {
        /// Scaling factor applied to the client→server leg.
        factor: f64,
    },
}

impl ReplayScenario {
    /// Effective RTT multiplier for a request/response exchange.
    ///
    /// A full exchange spends roughly half its round trip on the
    /// client→server leg (request, plus the ACKs that clock the response) —
    /// the paper's observation that only ~8.5 % of *bytes* but a large share
    /// of *latency-critical packets* travel client→server. Scaling just that
    /// leg therefore retains most of the benefit.
    pub(crate) fn rtt_multiplier(&self) -> f64 {
        match *self {
            ReplayScenario::Baseline => 1.0,
            ReplayScenario::Cisp { factor } => factor,
            ReplayScenario::CispSelective { factor } => 0.5 * factor + 0.5,
        }
    }
}

/// Result of replaying the corpus under one scenario.
#[derive(Debug, Clone)]
pub struct WebReplayReport {
    /// Page load times, seconds (one per page, corpus order).
    pub page_load_times_s: Vec<f64>,
    /// Object load times, seconds (all objects of all pages).
    pub object_load_times_s: Vec<f64>,
    /// Fraction of total transferred bytes that travelled client→server.
    pub client_to_server_byte_fraction: f64,
}

impl WebReplayReport {
    /// Median page load time in milliseconds.
    pub fn median_plt_ms(&self) -> f64 {
        median(&self.page_load_times_s) * 1e3
    }

    /// Median object load time in milliseconds.
    pub fn median_object_ms(&self) -> f64 {
        median(&self.object_load_times_s) * 1e3
    }
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[(v.len() - 1) / 2]
}

/// Replay the corpus under a scenario.
///
/// Each object costs one request/response exchange: one (scaled) RTT plus
/// server time plus a small per-byte transfer term (the paper imposes no
/// bandwidth cap, so transfer time is limited to packet pacing at the
/// server's line rate). Objects at depth `d` cannot start before the slowest
/// depth-`d−1` object finished, which is how RTT reductions compound down
/// the dependency chain. Page load time adds the client compute.
pub fn replay(corpus: &PageCorpus, scenario: ReplayScenario) -> WebReplayReport {
    let multiplier = scenario.rtt_multiplier();
    let mut page_load_times = Vec::with_capacity(corpus.pages.len());
    let mut object_load_times = Vec::new();
    let mut request_bytes = 0.0f64;
    let mut response_bytes = 0.0f64;

    for page in &corpus.pages {
        let rtt = page.base_rtt_s * multiplier;
        let max_depth = page.objects.iter().map(|o| o.depth).max().unwrap_or(0);
        // Completion time of each dependency level.
        let mut level_done = vec![0.0f64; max_depth + 2];
        for depth in 0..=max_depth {
            let start = if depth == 0 {
                0.0
            } else {
                level_done[depth - 1]
            };
            let mut level_finish = start;
            for obj in page.objects.iter().filter(|o| o.depth == depth) {
                // Request (~600 B) travels client→server, response is the
                // object itself; transfer adds ~1 extra RTT per 100 KB to
                // account for congestion-window growth.
                let transfer = (obj.bytes / 100_000.0) * rtt;
                let load = rtt + obj.server_time_s + transfer;
                object_load_times.push(load);
                level_finish = level_finish.max(start + load);
                request_bytes += 600.0;
                response_bytes += obj.bytes;
            }
            level_done[depth] = level_finish;
        }
        let network_done = level_done[max_depth];
        page_load_times.push(network_done + page.compute_s);
    }

    WebReplayReport {
        page_load_times_s: page_load_times,
        object_load_times_s: object_load_times,
        client_to_server_byte_fraction: request_bytes / (request_bytes + response_bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> PageCorpus {
        PageCorpus::generate(80, 42)
    }

    #[test]
    fn corpus_shape_is_realistic() {
        let c = corpus();
        assert_eq!(c.pages.len(), 80);
        for p in &c.pages {
            assert!(p.objects.len() >= 10 && p.objects.len() <= 100);
            assert_eq!(p.objects[0].depth, 0, "first object is the root");
            assert!(p.base_rtt_s >= 0.030 && p.base_rtt_s <= 0.120);
            for o in &p.objects {
                assert!(o.bytes >= 1_000.0 && o.bytes <= 1_100_000.0);
            }
        }
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = PageCorpus::generate(10, 7);
        let b = PageCorpus::generate(10, 7);
        assert_eq!(a.pages[3].objects.len(), b.pages[3].objects.len());
        assert_eq!(a.pages[3].base_rtt_s, b.pages[3].base_rtt_s);
    }

    #[test]
    fn cisp_reduces_plt_but_less_than_the_rtt_reduction() {
        let c = corpus();
        let baseline = replay(&c, ReplayScenario::Baseline);
        let cisp = replay(&c, ReplayScenario::Cisp { factor: 0.33 });
        let reduction = 1.0 - cisp.median_plt_ms() / baseline.median_plt_ms();
        // Paper: 31 % median PLT reduction for a 66 % RTT reduction. The
        // synthetic corpus should land in the same band: a clear improvement,
        // but much less than 66 % because of compute time.
        assert!(
            reduction > 0.15 && reduction < 0.55,
            "PLT reduction {reduction}"
        );
    }

    #[test]
    fn object_load_times_improve_more_than_plt() {
        let c = corpus();
        let baseline = replay(&c, ReplayScenario::Baseline);
        let cisp = replay(&c, ReplayScenario::Cisp { factor: 0.33 });
        let obj_reduction = 1.0 - cisp.median_object_ms() / baseline.median_object_ms();
        let plt_reduction = 1.0 - cisp.median_plt_ms() / baseline.median_plt_ms();
        // Paper: 49 % object-load reduction vs 31 % PLT reduction.
        assert!(obj_reduction > plt_reduction);
        assert!(obj_reduction > 0.4, "object reduction {obj_reduction}");
    }

    #[test]
    fn selective_keeps_most_of_the_benefit_with_few_bytes() {
        let c = corpus();
        let baseline = replay(&c, ReplayScenario::Baseline);
        let cisp = replay(&c, ReplayScenario::Cisp { factor: 0.33 });
        let selective = replay(&c, ReplayScenario::CispSelective { factor: 0.33 });
        assert!(selective.median_plt_ms() < baseline.median_plt_ms());
        assert!(selective.median_plt_ms() >= cisp.median_plt_ms());
        // Only a small fraction of bytes goes client→server (paper: 8.5 %).
        assert!(
            baseline.client_to_server_byte_fraction < 0.15,
            "c2s byte fraction {}",
            baseline.client_to_server_byte_fraction
        );
    }

    #[test]
    fn rtt_multipliers_are_ordered() {
        let b = ReplayScenario::Baseline.rtt_multiplier();
        let s = ReplayScenario::CispSelective { factor: 0.33 }.rtt_multiplier();
        let c = ReplayScenario::Cisp { factor: 0.33 }.rtt_multiplier();
        assert!(c < s && s < b);
        assert_eq!(b, 1.0);
    }

    #[test]
    fn measured_rtts_drive_page_load_times() {
        // Pages built on measured 20 ms RTTs load faster than the same pages
        // on measured 200 ms RTTs.
        let fast = PageCorpus::generate_with_rtts(20, 3, &[0.020]);
        let slow = PageCorpus::generate_with_rtts(20, 3, &[0.200]);
        for (f, s) in fast.pages.iter().zip(&slow.pages) {
            assert_eq!(f.objects.len(), s.objects.len(), "same synthetic shape");
        }
        let fast_plt = replay(&fast, ReplayScenario::Baseline).median_plt_ms();
        let slow_plt = replay(&slow, ReplayScenario::Baseline).median_plt_ms();
        assert!(fast_plt < slow_plt);
        // Round-robin assignment covers the whole RTT list.
        let mixed = PageCorpus::generate_with_rtts(4, 1, &[0.030, 0.060]);
        assert_eq!(mixed.pages[0].base_rtt_s, 0.030);
        assert_eq!(mixed.pages[1].base_rtt_s, 0.060);
        assert_eq!(mixed.pages[2].base_rtt_s, 0.030);
    }

    #[test]
    #[should_panic]
    fn empty_rtt_list_rejected() {
        PageCorpus::generate_with_rtts(5, 1, &[]);
    }

    #[test]
    fn reports_have_consistent_counts() {
        let c = PageCorpus::generate(5, 1);
        let r = replay(&c, ReplayScenario::Baseline);
        assert_eq!(r.page_load_times_s.len(), 5);
        let total_objects: usize = c.pages.iter().map(|p| p.objects.len()).sum();
        assert_eq!(r.object_load_times_s.len(), total_objects);
        assert!(r.page_load_times_s.iter().all(|&t| t > 0.0));
    }
}
