//! Latency under weather: the year-long rerouting analysis behind Fig. 7.
//!
//! For each interval of the storm year, the failed links are removed and
//! every site pair falls back to its shortest surviving route (microwave
//! and/or fiber — the paper notes that heavy precipitation is predictable
//! minutes ahead, so even slow centralised rerouting suffices). Per pair we
//! record the best, worst and 99th-percentile stretch across the year, plus
//! the fiber-only stretch for comparison; Fig. 7 plots the CDFs of these four
//! series over all pairs.

use cisp_core::topology::HybridTopology;
use cisp_geo::latency;
use cisp_graph::{pair_indices, UpperTriangleMatrix};
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
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
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

/// Run the year-long weather analysis on a designed topology.
pub fn weather_year_analysis(
    topology: &HybridTopology,
    year: &StormYear,
    config: &FailureConfig,
) -> WeatherYearReport {
    assert!(!year.is_empty());
    let n = topology.num_sites();

    // Fair-weather and fiber-only baselines.
    let best_matrix = topology.effective_matrix();
    let fiber_matrix = topology.fiber_matrix();

    // Per-interval stretch samples, one slot per analysed pair (positive
    // geodesic distance only). The per-interval effective matrix is rebuilt
    // into one reusable upper-triangle scratch buffer — the sweep only reads
    // unordered pairs, so symmetric storage halves the scratch memory
    // traffic — and consecutive intervals with an identical failure set
    // (common during calm spells and long storms) reuse the previous
    // rebuild outright.
    let analysed: Vec<(usize, usize)> = pair_indices(n)
        .filter(|&(i, j)| topology.geodesic_km(i, j) > 0.0)
        .collect();
    let mut samples: Vec<Vec<f64>> = analysed
        .iter()
        .map(|_| Vec::with_capacity(year.len()))
        .collect();
    let (failures, stats) = failure_sweep(topology, year.fields(), config);
    let mut scratch = UpperTriangleMatrix::zeros(n);
    let mut scratch_failed: Option<Vec<usize>> = None;
    for failed in failures {
        if failed.is_empty() {
            for (slot, &(i, j)) in samples.iter_mut().zip(&analysed) {
                slot.push(latency::distance_stretch(
                    best_matrix[i][j],
                    topology.geodesic_km(i, j),
                ));
            }
        } else {
            if scratch_failed.as_deref() != Some(failed.as_slice()) {
                topology.effective_matrix_without_into_tri(&failed, &mut scratch);
                scratch_failed = Some(failed);
            }
            for (slot, &(i, j)) in samples.iter_mut().zip(&analysed) {
                slot.push(latency::distance_stretch(
                    scratch.get(i, j),
                    topology.geodesic_km(i, j),
                ));
            }
        }
    }

    let mut pairs = Vec::new();
    for (s, &(i, j)) in samples.iter_mut().zip(&analysed) {
        if s.is_empty() {
            continue;
        }
        let geo = topology.geodesic_km(i, j);
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p99_idx = ((s.len() - 1) as f64 * 0.99).round() as usize;
        pairs.push(PairWeatherStats {
            site_a: i,
            site_b: j,
            best: latency::distance_stretch(best_matrix[i][j], geo),
            p99: s[p99_idx],
            worst: *s.last().unwrap(),
            fiber_only: latency::distance_stretch(fiber_matrix[i][j], geo),
        });
    }

    WeatherYearReport {
        intervals: year.len(),
        mean_failed_links: stats.failed as f64 / year.len() as f64,
        failure_sweep: stats,
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
