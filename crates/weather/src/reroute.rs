//! Latency under weather: the year-long rerouting analysis behind Fig. 7.
//!
//! For each interval of the storm year, the failed links are removed and
//! every site pair falls back to its shortest surviving route (microwave
//! and/or fiber — the paper notes that heavy precipitation is predictable
//! minutes ahead, so even slow centralised rerouting suffices). Per pair we
//! record the best, worst and 99th-percentile stretch across the year, plus
//! the fiber-only stretch for comparison; Fig. 7 plots the CDFs of these four
//! series over all pairs.
//!
//! A storm year almost never repeats a failure set (187 distinct sets in the
//! 198 stormy intervals of the paper-scale year, no two neighbours equal), so
//! remembering matrices per set gains nothing. What neighbouring intervals
//! share is most of their *surviving* links: the year's sets go through one
//! [`cisp_graph::leave_out_closures`] in chronological order, which applies
//! a surviving link once for a whole run of intervals, and the per-pair
//! samples are taken at its leaves.
//! [`HybridTopology::effective_matrix_without`] stays as the per-set oracle.

use std::collections::HashSet;

use cisp_core::topology::HybridTopology;
use cisp_geo::latency;
use cisp_graph::{leave_out_closures, pair_indices};
use serde::{Deserialize, Serialize};

use crate::failures::{failure_sweep, FailureConfig, FailureSweepStats};
use crate::storms::StormYear;

/// Per-pair stretch statistics across the year.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PairWeatherStats {
    /// First site of the pair.
    pub site_a: usize,
    /// Second site of the pair.
    pub site_b: usize,
    /// Best (fair-weather) stretch.
    pub best: f64,
    /// 99th-percentile stretch across intervals.
    pub p99: f64,
    /// Worst stretch across intervals.
    pub worst: f64,
    /// Fiber-only stretch (no microwave at all).
    pub fiber_only: f64,
}

/// The full year analysis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WeatherYearReport {
    /// Per-pair statistics.
    pub pairs: Vec<PairWeatherStats>,
    /// Number of intervals analysed.
    pub intervals: usize,
    /// Mean number of failed links per interval.
    pub mean_failed_links: f64,
    /// What each step of the failure cascade decided over the year.
    pub failure_sweep: FailureSweepStats,
    /// One-link matrix sweeps the year's failure sets cost
    /// ([`leave_out_closures`]' count; a rebuild per set would make one per
    /// surviving link per set).
    #[serde(default)]
    pub closure_sweeps: usize,
    /// Distinct non-empty failure sets among the year's intervals.
    #[serde(default)]
    pub distinct_failure_sets: usize,
}

impl WeatherYearReport {
    /// Extract one of the four CDF series of Fig. 7, sorted ascending.
    pub fn sorted_series(&self, which: WeatherSeries) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .pairs
            .iter()
            .map(|p| match which {
                WeatherSeries::Best => p.best,
                WeatherSeries::P99 => p.p99,
                WeatherSeries::Worst => p.worst,
                WeatherSeries::FiberOnly => p.fiber_only,
            })
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median of a series across pairs.
    pub fn median(&self, which: WeatherSeries) -> f64 {
        let s = self.sorted_series(which);
        if s.is_empty() {
            return f64::NAN;
        }
        s[(s.len() - 1) / 2]
    }
}

/// Which Fig. 7 series to extract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WeatherSeries {
    /// Fair-weather (all links up) stretch.
    Best,
    /// 99th-percentile stretch across the year.
    P99,
    /// Worst interval's stretch.
    Worst,
    /// Stretch if only fiber existed.
    FiberOnly,
}

/// Offer `value`, `times` over, to `top`: the largest samples seen so far,
/// ascending. Only the `top.len()` largest of a pair's year are ever read.
fn offer(top: &mut [f64], value: f64, times: usize) {
    for _ in 0..times.min(top.len()) {
        if value <= top[0] {
            return;
        }
        let above = top.partition_point(|&t| t < value);
        top.copy_within(1..above, 0);
        top[above - 1] = value;
    }
}

/// Run the year-long weather analysis on a designed topology.
pub fn weather_year_analysis(
    topology: &HybridTopology,
    year: &StormYear,
    config: &FailureConfig,
) -> WeatherYearReport {
    assert!(!year.is_empty());

    // Fair-weather and fiber-only baselines.
    let best_matrix = topology.effective_matrix();
    let fiber_matrix = topology.fiber_matrix();

    // The analysed pairs (positive geodesic distance only).
    let analysed: Vec<(usize, usize, f64)> = pair_indices(topology.num_sites())
        .map(|(i, j)| (i, j, topology.geodesic_km(i, j)))
        .filter(|&(_, _, geo)| geo > 0.0)
        .collect();

    // The stormy intervals' failure sets in chronological order (one that
    // repeats its neighbour costs a leaf, not a sweep); calm intervals are
    // only counted.
    let (failures, stats) = failure_sweep(topology, year.fields(), config);
    let calm = failures.iter().filter(|failed| failed.is_empty()).count();
    let sets: Vec<Vec<usize>> = failures.into_iter().filter(|f| !f.is_empty()).collect();

    // `p99` and `worst` are order statistics of the top of a pair's year:
    // with the samples sorted ascending they sit at `p99_idx` and at the
    // end, so the `keep` largest samples per pair are all that is stored.
    let p99_idx = ((year.len() - 1) as f64 * 0.99).round() as usize;
    let keep = year.len() - p99_idx;
    let mut tops = vec![f64::NEG_INFINITY; analysed.len() * keep];
    for (top, &(i, j, geo)) in tops.chunks_exact_mut(keep).zip(&analysed) {
        offer(top, latency::distance_stretch(best_matrix[i][j], geo), calm);
    }
    let links: Vec<(usize, usize, f64)> = topology
        .mw_links()
        .iter()
        .map(|l| (l.site_a, l.site_b, l.mw_length_km))
        .collect();
    let closure_sweeps = leave_out_closures(
        fiber_matrix,
        &links,
        &sets,
        &mut Vec::new(),
        |_, effective| {
            for (top, &(i, j, geo)) in tops.chunks_exact_mut(keep).zip(&analysed) {
                offer(top, latency::distance_stretch(effective[i][j], geo), 1);
            }
        },
    );

    let pairs = tops
        .chunks_exact(keep)
        .zip(&analysed)
        .map(|(top, &(i, j, geo))| PairWeatherStats {
            site_a: i,
            site_b: j,
            best: latency::distance_stretch(best_matrix[i][j], geo),
            p99: top[0],
            worst: top[keep - 1],
            fiber_only: latency::distance_stretch(fiber_matrix[i][j], geo),
        })
        .collect();

    WeatherYearReport {
        intervals: year.len(),
        mean_failed_links: stats.failed as f64 / year.len() as f64,
        failure_sweep: stats,
        closure_sweeps,
        distinct_failure_sets: sets.iter().collect::<HashSet<_>>().len(),
        pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storms::{Storm, StormField, StormYearConfig};
    use cisp_core::links::CandidateLink;
    use cisp_geo::{geodesic, GeoPoint};

    /// A 5-site topology spanning the central US with direct MW links on a
    /// few pairs, fiber at 1.9× elsewhere.
    fn test_topology() -> HybridTopology {
        let sites = vec![
            GeoPoint::new(41.9, -87.6),  // Chicago
            GeoPoint::new(39.1, -94.6),  // Kansas City
            GeoPoint::new(32.8, -96.8),  // Dallas
            GeoPoint::new(39.7, -105.0), // Denver
            GeoPoint::new(33.4, -112.1), // Phoenix
        ];
        let n = sites.len();
        let traffic = vec![vec![1.0; n]; n];
        let fiber: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| geodesic::distance_km(sites[i], sites[j]) * 1.9)
                    .collect()
            })
            .collect();
        let mut topo = HybridTopology::new(sites.clone(), traffic, fiber);
        for (a, b) in [(0usize, 1usize), (1, 2), (1, 3), (3, 4)] {
            let geo = geodesic::distance_km(sites[a], sites[b]);
            topo.add_mw_link(CandidateLink {
                site_a: a.min(b),
                site_b: a.max(b),
                mw_length_km: geo * 1.04,
                tower_count: (geo / 80.0).ceil() as usize,
                tower_path: vec![0; 3],
            });
        }
        topo
    }

    fn short_year(seed: u64, days: usize) -> StormYear {
        StormYear::generate(
            seed,
            &StormYearConfig {
                days,
                ..StormYearConfig::us_default()
            },
        )
    }

    #[test]
    fn report_covers_all_pairs_and_orders_series() {
        let topo = test_topology();
        let year = short_year(3, 40);
        let report = weather_year_analysis(&topo, &year, &FailureConfig::default());
        assert_eq!(report.intervals, 40);
        assert_eq!(report.pairs.len(), 10);
        for p in &report.pairs {
            assert!(p.best >= 1.0 - 1e-9);
            assert!(p.p99 >= p.best - 1e-9, "p99 {} < best {}", p.p99, p.best);
            assert!(p.worst >= p.p99 - 1e-9);
            // Weather can never make a pair worse than pure fiber.
            assert!(p.worst <= p.fiber_only + 1e-9);
            assert!(p.fiber_only <= 1.9 + 1e-9);
        }
    }

    #[test]
    fn fair_weather_best_matches_topology_stretch() {
        let topo = test_topology();
        let year = short_year(5, 10);
        let report = weather_year_analysis(&topo, &year, &FailureConfig::default());
        for p in &report.pairs {
            assert!((p.best - topo.stretch(p.site_a, p.site_b)).abs() < 1e-9);
        }
    }

    #[test]
    fn storms_cause_some_failures_but_p99_stays_low() {
        let topo = test_topology();
        // The synthetic year plus one interval with a violent storm parked
        // on the Chicago–Kansas City link, Chicago's only microwave link.
        let mut fields = short_year(7, 120).fields().to_vec();
        fields.push(StormField {
            storms: vec![Storm {
                center: geodesic::intermediate(topo.sites()[0], topo.sites()[1], 0.5),
                radius_km: 60.0,
                peak_mm_h: 100.0,
            }],
        });
        let year = StormYear::from_fields(fields);
        let report = weather_year_analysis(&topo, &year, &FailureConfig::default());
        assert!(report.mean_failed_links > 0.0);
        assert_eq!(
            report.mean_failed_links,
            report.failure_sweep.failed as f64 / 121.0
        );
        let hit = &report.pairs[0];
        assert_eq!((hit.site_a, hit.site_b), (0, 1));
        assert!(
            hit.worst > hit.best,
            "worst {} vs best {}",
            hit.worst,
            hit.best
        );
        // Median 99th-percentile stretch stays well below fiber (Fig. 7's
        // headline: "99th-percentile latencies are nearly the same as the
        // best").
        let p99_median = report.median(WeatherSeries::P99);
        let fiber_median = report.median(WeatherSeries::FiberOnly);
        assert!(
            p99_median < fiber_median,
            "p99 {p99_median} should beat fiber {fiber_median}"
        );
    }

    #[test]
    fn sorted_series_is_ascending() {
        let topo = test_topology();
        let year = short_year(9, 30);
        let report = weather_year_analysis(&topo, &year, &FailureConfig::default());
        for which in [
            WeatherSeries::Best,
            WeatherSeries::P99,
            WeatherSeries::Worst,
            WeatherSeries::FiberOnly,
        ] {
            let s = report.sorted_series(which);
            for w in s.windows(2) {
                assert!(w[0] <= w[1] + 1e-12);
            }
        }
    }
}
