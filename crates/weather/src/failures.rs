//! Per-interval link failures under a storm field.
//!
//! A built microwave link is a series of ~tens-of-km hops along the
//! site-to-site path. The binary failure model of §6.1 marks the whole link
//! failed if *any* of its hops exceeds its fade margin during the interval.
//! Because the weather crate operates on the designed topology (which stores
//! the site-to-site geometry rather than every tower position), hops are
//! approximated as equal-length segments of the link's great-circle path —
//! the same granularity at which the synthetic storm field varies. A hop's
//! rain is the worst of the field's rain over sample points every ~10 km
//! along it ([`StormField::max_rain_along`]), and it fails when
//! [`FadeMargin::survives`] says so.
//!
//! # The cascade
//!
//! Few links fail in any interval (a mean of 3 of 347 on the paper-scale
//! backbone), and nothing about a link's hops or sample points depends on
//! the storms. [`FailureGeometry`] therefore holds the storm-independent
//! part of a `(topology, config)` pair once, and decides each link of each
//! field by the cheapest of three steps that is certain. The failure sets
//! are those of evaluating every sample of every hop against every storm,
//! index order included (`tests/storm_failures.rs` holds that exact-only
//! loop as the oracle); each step is sound for a reason that assumes nothing
//! about the others:
//!
//! 1. **Cull storms per link — arc-midpoint distance bound.** Every sample
//!    of a link lies on the great-circle arc `a → b`, so within
//!    `total_km / 2` of the arc's midpoint, and by the triangle inequality
//!    `dist(centre, sample) ≥ dist(centre, mid) − total_km / 2`. One
//!    haversine per (link, storm) gives that lower bound for every sample
//!    at once. A 10 m slack covers the rounding of the haversines and of
//!    the slerped sample positions (≤ 10⁻⁴ km even next to the antipode,
//!    where `asin` is ill-conditioned); arcs longer than a quarter of the
//!    circumference, where the slerp itself degrades, get no bound and stay
//!    exact.
//! 2. **Exact-zero storms.** [`Storm::rain_at`] cuts off to exactly `0.0`
//!    beyond `4σ`. A storm whose lower bound exceeds `4σ` contributes `0.0`
//!    at every sample of the link, and `x + 0.0 == x`, so leaving it out of
//!    the sums changes no bit of them.
//! 3. **Decide the link from a rain upper bound.** The profile is
//!    non-increasing in distance, so `R_ub = Σ peak · exp(−½ (lb/σ)²)` over
//!    the surviving storms (rounded up) bounds the rain at every sample.
//!    [`FadeMargin::safe_rain_mm_h`] is a rate at or below which a hop of
//!    the link's `hop_km` cannot fail: it uses `d_eff ≤ d / (1 + d/35)` for
//!    every rain rate and the monotonicity of `γ = k·Rᵅ` alone. It does
//!    **not** assume `survives` is monotone in the rain rate — it is not —
//!    and is not a critical rate. `R_ub ≤ R_safe` skips the link; anything
//!    else, NaN included, falls through.
//!
//! Undecided links run the exact per-hop, per-sample arithmetic — over
//! sample points cached with their trigonometry
//! ([`TrigPoint`], bit-identical distances), filled the first time a link is
//! undecided, and over the link's surviving storms — and ask the unchanged
//! `FadeMargin::survives`. The one-shot [`link_failures`] and the year
//! sweeps ([`failure_sweep`]) are the same code; the former simply builds a
//! geometry for one field. [`FailureSweepStats`] counts what each step
//! decided.

use std::fmt;

use cisp_core::topology::HybridTopology;
use cisp_geo::geodesic::{self, PathSampler};
use cisp_geo::{GeoPoint, TrigPoint};
use cisp_netsim::jobs::{drain_jobs, resolve_workers};

use crate::attenuation::FadeMargin;
use crate::storms::{rain_sample_points, Storm, StormField};

/// Configuration of the failure model.
#[derive(Debug, Clone, Copy)]
pub struct FailureConfig {
    /// Fade margin per hop.
    pub fade_margin: FadeMargin,
    /// Carrier frequency, GHz.
    pub frequency_ghz: f64,
    /// Nominal hop length used to segment links, km.
    pub hop_length_km: f64,
}

impl Default for FailureConfig {
    fn default() -> Self {
        Self {
            fade_margin: FadeMargin::default(),
            frequency_ghz: 11.0,
            hop_length_km: 75.0,
        }
    }
}

impl FailureConfig {
    /// Panic, naming the field, on a configuration the model is undefined
    /// for. Without this an out-of-band frequency passes every clear-sky
    /// field and panics inside the attenuation model on the first rainy
    /// hop, and a NaN margin fails every hop it is compared with.
    fn validate(&self) {
        assert!(
            (6.0..=18.0).contains(&self.frequency_ghz),
            "FailureConfig::frequency_ghz = {} is outside the modelled 6-18 GHz band",
            self.frequency_ghz
        );
        let margin_db = self.fade_margin.margin_db;
        assert!(
            margin_db.is_finite() && margin_db >= 0.0,
            "FailureConfig::fade_margin.margin_db = {margin_db} must be finite and >= 0"
        );
        assert!(
            self.hop_length_km.is_finite() && self.hop_length_km > 0.0,
            "FailureConfig::hop_length_km = {} must be finite and > 0",
            self.hop_length_km
        );
    }
}

/// Slack, km, subtracted from every centre-to-sample distance lower bound:
/// 100× the worst rounding error of a haversine (`R·√ε` ≈ 10⁻⁴ km next to
/// the antipode, ~10⁻⁹ km elsewhere) and of a slerped sample position.
const REACH_SLACK_KM: f64 = 0.01;

/// Arcs longer than this (a quarter of the circumference) get no distance
/// bound: close to the antipode `sin δ → 0` and slerped samples need not
/// stay near the arc.
const MAX_BOUNDED_ARC_KM: f64 = 10_000.0;

/// Relative round-up of the summed rain upper bound, six orders above the
/// rounding of a handful of `exp`s and additions.
const RAIN_BOUND_ROUND_UP: f64 = 1.0 + 1e-9;

/// What the cascade decided, counted over every field a
/// [`FailureGeometry`] has evaluated.
/// `by_rain_bound + exact == link_fields` and `failed <= exact`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailureSweepStats {
    /// Link × field pairs evaluated.
    pub link_fields: u64,
    /// (Link, storm) pairs dropped because the storm's `4σ` circle cannot
    /// reach any sample of the link.
    pub storms_culled: u64,
    /// Link × field pairs declared up by the rain upper bound alone.
    pub by_rain_bound: u64,
    /// Link × field pairs that ran the exact per-hop arithmetic.
    pub exact: u64,
    /// Link × field pairs that failed.
    pub failed: u64,
}

impl FailureSweepStats {
    /// Add another geometry's counts to these.
    fn add(&mut self, other: &Self) {
        self.link_fields += other.link_fields;
        self.storms_culled += other.storms_culled;
        self.by_rain_bound += other.by_rain_bound;
        self.exact += other.exact;
        self.failed += other.failed;
    }

    /// Share of link × field pairs decided without the exact arithmetic
    /// (`NaN` before any field was evaluated).
    pub fn rain_bound_share(&self) -> f64 {
        self.by_rain_bound as f64 / self.link_fields as f64
    }
}

impl fmt::Display for FailureSweepStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} link×field pairs: {} ({:.1} %) up by the rain bound, {} exact, {} failed; \
             {} (link, storm) pairs culled",
            self.link_fields,
            self.by_rain_bound,
            100.0 * self.rain_bound_share(),
            self.exact,
            self.failed,
            self.storms_culled
        )
    }
}

/// The storm-independent geometry of one microwave link.
struct LinkGeometry {
    a: GeoPoint,
    b: GeoPoint,
    hops: usize,
    hop_km: f64,
    /// Midpoint of the arc `a → b`.
    mid: TrigPoint,
    /// Every sample lies within this of `mid` (slack included); infinite
    /// for arcs too long to bound.
    reach_km: f64,
    /// No hop of this link fails at or below this rain rate.
    safe_rain_mm_h: f64,
    /// Rain sample points of every hop, hop after hop; empty until the link
    /// is first undecided.
    samples: Vec<TrigPoint>,
    /// End of each hop's run in `samples`.
    hop_ends: Vec<usize>,
}

impl LinkGeometry {
    fn new(a: GeoPoint, b: GeoPoint, config: &FailureConfig) -> Self {
        let total_km = geodesic::distance_km(a, b);
        let hops = (total_km / config.hop_length_km).ceil().max(1.0) as usize;
        let hop_km = total_km / hops as f64;
        let reach_km = if total_km <= MAX_BOUNDED_ARC_KM {
            total_km / 2.0 + REACH_SLACK_KM
        } else {
            f64::INFINITY
        };
        Self {
            a,
            b,
            hops,
            hop_km,
            mid: TrigPoint::new(geodesic::intermediate(a, b, 0.5)),
            reach_km,
            safe_rain_mm_h: config
                .fade_margin
                .safe_rain_mm_h(hop_km, config.frequency_ghz),
            samples: Vec::new(),
            hop_ends: Vec::new(),
        }
    }

    /// The sample points `max_rain_along` visits on each hop
    /// `intermediate(a, b, h/hops) → intermediate(a, b, (h+1)/hops)`.
    fn fill_samples(&mut self) {
        let path = PathSampler::new(self.a, self.b);
        for h in 0..self.hops {
            let start = path.point_at(h as f64 / self.hops as f64);
            let end = path.point_at((h + 1) as f64 / self.hops as f64);
            self.samples
                .extend(rain_sample_points(start, end).map(TrigPoint::new));
            self.hop_ends.push(self.samples.len());
        }
    }
}

/// The storm-independent part of the failure model for one
/// `(topology, config)` pair, reusable across storm fields. See the
/// [module documentation](self) for the cascade it runs.
pub struct FailureGeometry {
    config: FailureConfig,
    links: Vec<LinkGeometry>,
    stats: FailureSweepStats,
    /// Storm centres of the field being evaluated.
    centers: Vec<TrigPoint>,
    /// The storms that can reach the link being evaluated, in field order,
    /// with their centres.
    near: Vec<(Storm, TrigPoint)>,
}

impl FailureGeometry {
    /// Hoist the hop geometry of every microwave link of `topology`.
    ///
    /// Panics, naming the field, unless `config` has a frequency in the
    /// modelled 6–18 GHz band, a finite margin `≥ 0` and a finite hop
    /// length `> 0`.
    pub fn new(topology: &HybridTopology, config: &FailureConfig) -> Self {
        config.validate();
        let sites = topology.sites();
        let links = topology
            .mw_links()
            .iter()
            .map(|link| LinkGeometry::new(sites[link.site_a], sites[link.site_b], config))
            .collect();
        Self {
            config: *config,
            links,
            stats: FailureSweepStats::default(),
            centers: Vec::new(),
            near: Vec::new(),
        }
    }

    /// Counts over every field evaluated so far.
    pub fn stats(&self) -> FailureSweepStats {
        self.stats
    }

    /// Indices (into `topology.mw_links()`, ascending) of the links that
    /// fail under `field`.
    pub fn failures(&mut self, field: &StormField) -> Vec<usize> {
        let Self {
            config,
            links,
            stats,
            centers,
            near,
        } = self;
        centers.clear();
        centers.extend(field.storms.iter().map(|s| TrigPoint::new(s.center)));

        let mut failed = Vec::new();
        for (idx, link) in links.iter_mut().enumerate() {
            stats.link_fields += 1;
            near.clear();
            let mut rain_bound = 0.0;
            for (storm, center) in field.storms.iter().zip(centers.iter()) {
                let at_least_km = (center.distance_km(&link.mid) - link.reach_km).max(0.0);
                if storm.is_dry_at(at_least_km) {
                    stats.storms_culled += 1;
                    continue;
                }
                near.push((*storm, *center));
                rain_bound += storm.rain_at_distance(at_least_km);
            }
            if rain_bound * RAIN_BOUND_ROUND_UP <= link.safe_rain_mm_h {
                stats.by_rain_bound += 1;
                continue;
            }

            stats.exact += 1;
            if link.samples.is_empty() {
                link.fill_samples();
            }
            let rain_at = |p: &TrigPoint| {
                near.iter()
                    .map(|(storm, center)| storm.rain_at_distance(center.distance_km(p)))
                    .sum::<f64>()
            };
            let mut begin = 0;
            for &end in &link.hop_ends {
                // Worst-case rain over the hop drives its attenuation.
                let rain = link.samples[begin..end]
                    .iter()
                    .map(&rain_at)
                    .fold(0.0, f64::max);
                begin = end;
                if !config
                    .fade_margin
                    .survives(link.hop_km, rain, config.frequency_ghz)
                {
                    stats.failed += 1;
                    failed.push(idx);
                    break;
                }
            }
        }
        failed
    }
}

/// Indices (into `topology.mw_links()`) of links that fail under the given
/// storm field. For many fields over one topology, build one
/// [`FailureGeometry`] (or call [`failure_sweep`]) instead.
pub fn link_failures(
    topology: &HybridTopology,
    field: &StormField,
    config: &FailureConfig,
) -> Vec<usize> {
    FailureGeometry::new(topology, config).failures(field)
}

/// The failure set of every field, in field order, with the cascade's
/// counts over the whole sweep. Fields are independent, so they are drained
/// by one worker per core, each with a [`FailureGeometry`] of its own; the
/// sets and the summed counts are those of one geometry walking the fields
/// in order.
pub fn failure_sweep(
    topology: &HybridTopology,
    fields: &[StormField],
    config: &FailureConfig,
) -> (Vec<Vec<usize>>, FailureSweepStats) {
    failure_sweep_on(topology, fields, config, 0)
}

/// [`failure_sweep`] on `workers` workers (`0` = one per core, `1` = the
/// calling thread alone).
pub(crate) fn failure_sweep_on(
    topology: &HybridTopology,
    fields: &[StormField],
    config: &FailureConfig,
    workers: usize,
) -> (Vec<Vec<usize>>, FailureSweepStats) {
    let (failed, geometries) = drain_jobs(
        fields.len(),
        resolve_workers(workers),
        || FailureGeometry::new(topology, config),
        |geometry, i| geometry.failures(&fields[i]),
    );
    let mut stats = FailureSweepStats::default();
    for geometry in &geometries {
        stats.add(&geometry.stats());
    }
    (failed, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storms::Storm;
    use cisp_core::links::CandidateLink;
    use cisp_geo::GeoPoint;

    fn topology_with_two_links() -> HybridTopology {
        let sites = vec![
            GeoPoint::new(40.0, -100.0),
            GeoPoint::new(40.0, -95.0),
            GeoPoint::new(35.0, -95.0),
        ];
        let traffic = vec![
            vec![0.0, 1.0, 1.0],
            vec![1.0, 0.0, 1.0],
            vec![1.0, 1.0, 0.0],
        ];
        let fiber: Vec<Vec<f64>> = (0..3)
            .map(|i| {
                (0..3)
                    .map(|j| geodesic::distance_km(sites[i], sites[j]) * 2.0)
                    .collect()
            })
            .collect();
        let mut topo = HybridTopology::new(sites.clone(), traffic, fiber);
        for (a, b) in [(0usize, 1usize), (1usize, 2usize)] {
            let geo = geodesic::distance_km(sites[a], sites[b]);
            topo.add_mw_link(CandidateLink {
                site_a: a,
                site_b: b,
                mw_length_km: geo * 1.03,
                tower_count: 6,
                tower_path: vec![0; 6],
            });
        }
        topo
    }

    #[test]
    fn clear_skies_fail_nothing() {
        let topo = topology_with_two_links();
        let failures = link_failures(&topo, &StormField::default(), &FailureConfig::default());
        assert!(failures.is_empty());
    }

    #[test]
    fn a_violent_storm_on_one_link_fails_only_that_link() {
        let topo = topology_with_two_links();
        // Storm centred on the midpoint of link 0 (40°N corridor).
        let field = StormField {
            storms: vec![Storm {
                center: GeoPoint::new(40.05, -97.5),
                radius_km: 60.0,
                peak_mm_h: 100.0,
            }],
        };
        let failures = link_failures(&topo, &field, &FailureConfig::default());
        assert_eq!(failures, vec![0]);
    }

    #[test]
    fn light_rain_does_not_fail_links() {
        let topo = topology_with_two_links();
        let field = StormField {
            storms: vec![Storm {
                center: GeoPoint::new(40.0, -97.5),
                radius_km: 300.0,
                peak_mm_h: 4.0,
            }],
        };
        let failures = link_failures(&topo, &field, &FailureConfig::default());
        assert!(failures.is_empty());
    }

    #[test]
    fn widespread_severe_weather_can_fail_everything() {
        let topo = topology_with_two_links();
        let field = StormField {
            storms: vec![
                Storm {
                    center: GeoPoint::new(40.0, -97.5),
                    radius_km: 400.0,
                    peak_mm_h: 90.0,
                },
                Storm {
                    center: GeoPoint::new(37.0, -95.0),
                    radius_km: 400.0,
                    peak_mm_h: 90.0,
                },
            ],
        };
        let failures = link_failures(&topo, &field, &FailureConfig::default());
        assert_eq!(failures, vec![0, 1]);
    }

    #[test]
    fn geometry_is_reusable_and_counts_what_it_decided() {
        let topo = topology_with_two_links();
        // A tight cell near the western end of link 0 (40°N, 100–95°W),
        // ~440 km from the midpoint of link 1 (95°W, 40–35°N).
        let violent = StormField {
            storms: vec![Storm {
                center: GeoPoint::new(40.05, -99.0),
                radius_km: 30.0,
                peak_mm_h: 100.0,
            }],
        };
        let fields = [StormField::default(), violent.clone(), violent];
        let (failed, stats) = failure_sweep(&topo, &fields, &FailureConfig::default());
        assert_eq!(failed, vec![vec![], vec![0], vec![0]]);
        // Clear skies are decided by the bound (no rain at all), and so is
        // link 1, which the cell's 4σ circle cannot reach.
        assert_eq!(
            stats,
            FailureSweepStats {
                link_fields: 6,
                storms_culled: 2,
                by_rain_bound: 4,
                exact: 2,
                failed: 2,
            }
        );
        assert!((stats.rain_bound_share() - 4.0 / 6.0).abs() < 1e-12);

        // One geometry per worker: same sets, same summed counts.
        for workers in [0, 1, 2, 3, 8] {
            let swept = failure_sweep_on(&topo, &fields, &FailureConfig::default(), workers);
            assert_eq!(swept, (failed.clone(), stats), "workers {workers}");
        }
    }

    /// A clear-sky field: the configuration must be rejected before any
    /// rain reaches the attenuation model.
    fn clear_sky_failures(config: FailureConfig) {
        link_failures(&topology_with_two_links(), &StormField::default(), &config);
    }

    #[test]
    #[should_panic(expected = "frequency_ghz = 30")]
    fn out_of_band_frequency_is_rejected_under_clear_skies() {
        clear_sky_failures(FailureConfig {
            frequency_ghz: 30.0,
            ..FailureConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "margin_db = NaN")]
    fn nan_margin_is_rejected_under_clear_skies() {
        clear_sky_failures(FailureConfig {
            fade_margin: FadeMargin {
                margin_db: f64::NAN,
            },
            ..FailureConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "margin_db = -1")]
    fn negative_margin_is_rejected() {
        clear_sky_failures(FailureConfig {
            fade_margin: FadeMargin { margin_db: -1.0 },
            ..FailureConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "hop_length_km = inf")]
    fn non_finite_hop_length_is_rejected() {
        clear_sky_failures(FailureConfig {
            hop_length_km: f64::INFINITY,
            ..FailureConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "hop_length_km = 0")]
    fn zero_hop_length_is_rejected() {
        clear_sky_failures(FailureConfig {
            hop_length_km: 0.0,
            ..FailureConfig::default()
        });
    }

    #[test]
    fn tighter_fade_margin_fails_more() {
        let topo = topology_with_two_links();
        let field = StormField {
            storms: vec![Storm {
                center: GeoPoint::new(40.0, -97.5),
                radius_km: 80.0,
                peak_mm_h: 35.0,
            }],
        };
        let lenient = FailureConfig {
            fade_margin: FadeMargin { margin_db: 40.0 },
            ..FailureConfig::default()
        };
        let strict = FailureConfig {
            fade_margin: FadeMargin { margin_db: 8.0 },
            ..FailureConfig::default()
        };
        assert!(
            link_failures(&topo, &field, &lenient).len()
                <= link_failures(&topo, &field, &strict).len()
        );
        assert!(!link_failures(&topo, &field, &strict).is_empty());
    }
}
