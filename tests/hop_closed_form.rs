//! Hop feasibility on flat ground against §3.1's closed form, written here
//! from the paper's formulas and calling nothing in `cisp_geo::fresnel`.
//!
//! On flat terrain with no clutter, a hop of `D` km between antennas `h_a`
//! and `h_b` metres above the ground clears iff
//!
//! ```text
//! m(x) = h_a + (h_b − h_a)·x − D²·x(1−x) / (12.75·K) − 17.31·√(D·x(1−x) / f)
//! ```
//!
//! stays ≥ 0 over `x ∈ [0, 1]`: the sight line less the Earth bulge and the
//! first Fresnel radius (K = 1.3, f = 11 GHz). `m` is convex (the bulge is a
//! concave parabola and `√(x(1−x))` is concave), so a golden-section search
//! finds its minimum `m*`.
//!
//! `HopFeasibility` judges the hop at its profile samples only (about one a
//! kilometre, at least 16), and the least sampled margin is at least `m*`.
//! So a hop with `m* ≥ 0` must clear, and a hop with `m* < −ε` must be
//! blocked, with `ε = EPSILON_M` = 0.1 m. The sample nearest the minimiser
//! misses it by at most half a spacing `Δx` (the spacing is at most 1/15 of
//! the hop), where `m` has risen by at most ½·m''·Δx². Mid-hop, m'' =
//! 2D²/(12.75K) + 34.6·√(D/f): 45 m at 10 km over Δx = 1/30, 1 311 m at
//! 100 km over Δx = 1/200, so the sampled minimum exceeds `m*` by less
//! than 0.03 m. A minimiser far off mid-hop raises the Fresnel term's m''
//! (its curvature grows as (x(1−x))^(−3/2)), but it needs heights that
//! differ by tens of metres, and with antennas at least 9 m up such a hop
//! is nowhere near marginal. The test counts the draws that land within
//! `ε` and allows only a few.
//!
//! Maximum flat-ground hop with two towers of equal height, per usable
//! height fraction, at the synthetic registry's median tower height: 60 m +
//! Exp(70 m), with the FCC-like 55 % kept only from 100 m up, has median
//! 60 + 70·ln(2/(0.45 + 0.55·e^(−40/70))) = 127.7 m. The sweep's column is
//! its last clear hop on a 1 m step; it reaches up to 10 m past the closed
//! form where no sample falls on mid-hop (`MAX_HOP_TABLE`):
//!
//! | usable fraction | antenna height | closed form | sweep     |
//! |-----------------|----------------|-------------|-----------|
//! | 1.00            | 127.7 m        | 83.00 km    | 83.000 km |
//! | 0.85            | 108.5 m        | 75.45 km    | 75.447 km |
//! | 0.65            |  83.0 m        | 64.16 km    | 64.167 km |
//! | 0.45            |  57.5 m        | 50.76 km    | 50.770 km |
//!
//! Fig. 10's height axis is this table: at a fraction of 0.45 the median
//! tower pair reaches 61 % of the hop it reaches at the top.
//!
//! # A Gaussian ridge
//!
//! One [`MountainRange`] of peak `P` and half-width `σ`, on terrain with no
//! baseline, relief or crest noise and no clutter, its axis a long segment
//! of the meridian 98° W. A hop crossing it at right angles, `c` km from
//! tower A, lies on the great circle perpendicular to the axis, so its
//! point `s` km from A is exactly `|s − c|` from the axis and the obstacle
//! is analytic: `r(s) = P·exp(−(s − c)² / 2σ²)`, zero beyond 4σ as the
//! model truncates it. The towers stand on the ridge's flanks, so antenna
//! heights are `r(0) + fraction · height_a` and `r(D) + fraction ·
//! height_b`, and the hop clears iff
//!
//! ```text
//! m_r(s) = sight line(s) − bulge(s) − Fresnel(s) − r(s) ≥ 0 over [0, D].
//! ```
//!
//! `m_r` is not convex, so the oracle scans it on a fine grid and refines
//! the least grid point by golden section.
//!
//! **The narrowest ridge the sweep cannot miss.** The sweep's samples are at
//! most `Δ = 1` km apart (`ceil(D) + 1` samples over `D` km), so one lies
//! within ½ km of the minimiser, where `m_r` has risen by at most `⅛ ·
//! max|m_r''|` (km², m'' in m/km²). The ridge contributes at most `P/σ²`;
//! the bulge `2/(12.75K)` = 0.12 and the Fresnel term at most 0.23 over
//! the middle three fifths of hops of 30 km or more (the crests here sit
//! in the middle 30 %), so `C` = 0.35 m/km² covers both. The sampled
//! minimum is therefore within `ε = RIDGE_EPSILON_M` = 0.5 m of `m_r*`
//! whenever `σ ≥ σ_min(P) = √(P / (8ε − C))`:
//!
//! | peak `P` | 50 m   | 100 m  | 200 m  | 300 m  |
//! |----------|--------|--------|--------|--------|
//! | `σ_min`  | 3.7 km | 5.2 km | 7.4 km | 9.1 km |
//!
//! A narrower ridge can fall between two samples and be missed. At or
//! above `σ_min` the cascade must block every hop with `m_r* < −ε` and
//! clear every hop with `m_r* ≥ 0`.

use cisp::core::hops::{HopConfig, HopFeasibility};
use cisp::core::scenario::ScenarioConfig;
use cisp::data::cities::us_population_centers;
use cisp::data::towers::{Tower, TowerRegistry, TowerSource};
use cisp::geo::{geodesic, GeoPoint};
use cisp::terrain::clutter::ClutterModel;
use cisp::terrain::elevation::BaseTerrainParams;
use cisp::terrain::{MountainRange, TerrainModel};

/// Effective-Earth-radius factor (§3.1).
const K: f64 = 1.3;
/// Carrier frequency, GHz (§3.1).
const F_GHZ: f64 = 11.0;
/// Width of the band below zero in which the sampled sweep may still clear
/// a hop the continuous closed form blocks, in metres (module docs).
const EPSILON_M: f64 = 0.1;
/// Width of the band below zero in which the sweep may still clear a hop
/// across the Gaussian ridge the closed form blocks, in metres (module
/// docs).
const RIDGE_EPSILON_M: f64 = 0.5;
/// Bound on the bulge and Fresnel terms' curvature near a ridge hop's
/// minimiser, m/km² (module docs).
const RIDGE_C_M_PER_KM2: f64 = 0.35;
/// The registry's median tower height (module docs), metres.
const MEDIAN_TOWER_M: f64 = 127.676;
/// `(usable fraction, closed-form maximum hop km, sweep's last clear hop km
/// on a 1 m step)` at [`MEDIAN_TOWER_M`].
const MAX_HOP_TABLE: [(f64, f64, f64); 4] = [
    (1.0, 83.00, 83.000),
    (0.85, 75.45, 75.447),
    (0.65, 64.16, 64.167),
    (0.45, 50.76, 50.770),
];

/// `m(x)` of the module docs.
fn margin_m(d_km: f64, h_a: f64, h_b: f64, x: f64) -> f64 {
    let bulge = d_km * d_km * x * (1.0 - x) / (12.75 * K);
    let fresnel = 17.31 * (d_km * x * (1.0 - x) / F_GHZ).sqrt();
    h_a + (h_b - h_a) * x - bulge - fresnel
}

/// `m*`: the minimum of the convex `m` over `[0, 1]`, by golden section.
fn min_margin_m(d_km: f64, h_a: f64, h_b: f64) -> f64 {
    let m = |x| margin_m(d_km, h_a, h_b, x);
    let r = (5f64.sqrt() - 1.0) / 2.0;
    let (mut a, mut b) = (0.0, 1.0);
    let (mut c, mut d) = (b - r * (b - a), a + r * (b - a));
    let (mut mc, mut md) = (m(c), m(d));
    for _ in 0..80 {
        if mc < md {
            (b, d, md) = (d, c, mc);
            c = b - r * (b - a);
            mc = m(c);
        } else {
            (a, c, mc) = (c, d, md);
            d = a + r * (b - a);
            md = m(d);
        }
    }
    mc.min(md).min(h_a).min(h_b)
}

/// The closed form's longest hop between antennas of `h_a` and `h_b`
/// metres, by bisection on `m* ≥ 0` (`m*` falls as the hop grows), km.
fn max_hop_km(h_a: f64, h_b: f64) -> f64 {
    let (mut lo, mut hi) = (0.1, 300.0);
    for _ in 0..60 {
        let mid = (lo + hi) / 2.0;
        if min_margin_m(mid, h_a, h_b) >= 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The sweep's verdict on the hop between towers of `height_a` /
/// `height_b` metres at `a` and `b` on `terrain`, with no clutter.
fn sweep_clears_on(
    terrain: &TerrainModel,
    (a, height_a): (GeoPoint, f64),
    (b, height_b): (GeoPoint, f64),
    fraction: f64,
) -> bool {
    let tower = |location, height_m| Tower {
        location,
        height_m,
        source: TowerSource::RentalCompany,
    };
    let registry = TowerRegistry::from_towers(vec![tower(a, height_a), tower(b, height_b)]);
    let clutter = ClutterModel::none();
    let sweep = HopFeasibility::new(
        &registry,
        terrain,
        &clutter,
        HopConfig::restricted(100.0, fraction),
    );
    !sweep.all_feasible_hops().is_empty()
}

/// The sweep's verdict on one hop: towers of `height_a` / `height_b` metres,
/// the second `d_km` from the first on `bearing_deg`, on flat sea-level
/// ground with no clutter. Returns the verdict and the hop's great-circle
/// length.
fn sweep_clears(
    height_a: f64,
    height_b: f64,
    fraction: f64,
    d_km: f64,
    bearing_deg: f64,
) -> (bool, f64) {
    let a = GeoPoint::new(39.0, -98.0);
    let b = geodesic::destination(a, bearing_deg, d_km);
    let cleared = sweep_clears_on(
        &TerrainModel::flat(),
        (a, height_a),
        (b, height_b),
        fraction,
    );
    (cleared, geodesic::distance_km(a, b))
}

/// A Gaussian ridge of `peak_m` and `sigma_km` on the meridian 98° W from
/// 25° N to 53° N: no baseline, relief or crest noise (module docs).
fn ridge_terrain(peak_m: f64, sigma_km: f64) -> TerrainModel {
    let flat = BaseTerrainParams {
        baseline_m: 0.0,
        relief_m: 0.0,
        correlation_deg: 1.0,
    };
    let axis = MountainRange::new(
        "ridge",
        GeoPoint::new(25.0, -98.0),
        GeoPoint::new(53.0, -98.0),
        peak_m,
        sigma_km,
    );
    TerrainModel::new(0, flat, vec![axis], 0.0)
}

/// `r(s)` of the module docs: the ridge `offset_km` from its crest.
fn ridge_m(peak_m: f64, sigma_km: f64, offset_km: f64) -> f64 {
    if offset_km.abs() > 4.0 * sigma_km {
        return 0.0;
    }
    let x = offset_km / sigma_km;
    peak_m * (-0.5 * x * x).exp()
}

/// A hop across the ridge: `d_km` long, crossing the crest `crest_km` from
/// tower A, whose usable heights are `h_a` / `h_b` metres above their
/// ground.
#[derive(Clone, Copy)]
struct RidgeHop {
    d_km: f64,
    crest_km: f64,
    h_a: f64,
    h_b: f64,
    sigma_km: f64,
}

impl RidgeHop {
    /// `m_r(x·D)` of the module docs.
    fn margin_m(&self, peak_m: f64, x: f64) -> f64 {
        let (d, c, s) = (self.d_km, self.crest_km, self.sigma_km);
        let a = ridge_m(peak_m, s, -c) + self.h_a;
        let b = ridge_m(peak_m, s, d - c) + self.h_b;
        margin_m(d, a, b, x) - ridge_m(peak_m, s, x * d - c)
    }

    /// `m_r*`: a 2 000-point scan of `[0, 1]`, refined by golden section
    /// between the least point's neighbours.
    fn min_margin_m(&self, peak_m: f64) -> f64 {
        const GRID: usize = 2_000;
        let m = |x| self.margin_m(peak_m, x);
        let k = (0..=GRID)
            .min_by(|&i, &j| m(i as f64 / GRID as f64).total_cmp(&m(j as f64 / GRID as f64)))
            .unwrap();
        let r = (5f64.sqrt() - 1.0) / 2.0;
        let (mut a, mut b) = (
            k.saturating_sub(1) as f64 / GRID as f64,
            (k + 1).min(GRID) as f64 / GRID as f64,
        );
        let (mut c, mut d) = (b - r * (b - a), a + r * (b - a));
        let (mut mc, mut md) = (m(c), m(d));
        for _ in 0..40 {
            if mc < md {
                (b, d, md) = (d, c, mc);
                c = b - r * (b - a);
                mc = m(c);
            } else {
                (a, c, mc) = (c, d, md);
                d = a + r * (b - a);
                md = m(d);
            }
        }
        mc.min(md).min(m(k as f64 / GRID as f64))
    }

    /// The peak at which `m_r*` falls to `target_m` (it falls as the peak
    /// rises), by bisection up to 5 km. `None` when the hop is below
    /// `target_m` with no ridge.
    fn peak_at_margin_m(&self, target_m: f64) -> Option<f64> {
        if self.min_margin_m(1e-9) < target_m {
            return None;
        }
        let (mut lo, mut hi) = (1e-9, 5_000.0);
        for _ in 0..50 {
            let mid = (lo + hi) / 2.0;
            if self.min_margin_m(mid) >= target_m {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    }
}

/// SplitMix64 over a counter, mapped to `[0, 1)`.
fn unit(seed: u64, k: u64) -> f64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as f64 / 2f64.powi(64)
}

/// Random tower pairs (each height drawn on its own from 30–350 m), usable
/// fractions and bearings, each tried at a random range and 0.3 km either
/// side of the closed form's longest hop: the sweep's verdict is the
/// closed form's outside `ε`.
#[test]
fn flat_ground_verdicts_match_the_closed_form() {
    let (mut clear, mut blocked, mut within_epsilon) = (0, 0, 0);
    for case in 0..400u64 {
        let draw = |k| unit(case, k);
        let height_a = 30.0 + 320.0 * draw(0);
        let height_b = 30.0 + 320.0 * draw(1);
        let fraction = 0.3 + 0.7 * draw(2);
        let bearing = 360.0 * draw(4);
        let (h_a, h_b) = (height_a * fraction, height_b * fraction);
        let longest = max_hop_km(h_a, h_b);
        let ranges = [2.0 + 97.0 * draw(3), longest - 0.3, longest + 0.3];
        for d_km in ranges.into_iter().filter(|d| (1.0..99.0).contains(d)) {
            let (cleared, length_km) = sweep_clears(height_a, height_b, fraction, d_km, bearing);
            let m_star = min_margin_m(length_km, h_a, h_b);
            if m_star >= 0.0 {
                assert!(
                    cleared,
                    "case {case}: m* = {m_star} m over {length_km} km, sweep blocks"
                );
                clear += 1;
            } else if m_star < -EPSILON_M {
                assert!(
                    !cleared,
                    "case {case}: m* = {m_star} m over {length_km} km, sweep clears"
                );
                blocked += 1;
            } else {
                within_epsilon += 1;
            }
        }
    }
    assert!(
        clear >= 300 && blocked >= 300,
        "{clear} clear, {blocked} blocked"
    );
    assert!(within_epsilon <= 4, "{within_epsilon} cases within ε");
}

/// The module docs' table: the closed form's maximum hop per usable
/// fraction, to 0.005 km, within 15 m of the sweep's, and the sweep's last
/// clear hop, to 2 m either side.
#[test]
fn max_flat_hop_table_holds_for_both() {
    let h = MEDIAN_TOWER_M;
    for (fraction, closed_km, sweep_km) in MAX_HOP_TABLE {
        let got = max_hop_km(h * fraction, h * fraction);
        assert!((got - closed_km).abs() < 0.005, "{fraction}: {got} km");
        assert!((got - sweep_km).abs() < 0.015, "{fraction}: {got} km");
        assert!(
            sweep_clears(h, h, fraction, sweep_km - 0.002, 90.0).0,
            "{fraction}"
        );
        assert!(
            !sweep_clears(h, h, fraction, sweep_km + 0.002, 90.0).0,
            "{fraction}"
        );
    }
}

/// The table's height is the median of a synthesized paper-scale registry,
/// to within 2 m.
#[test]
fn the_table_height_is_the_registry_median() {
    let config = ScenarioConfig::us_paper(42);
    let registry = TowerRegistry::synthesize(
        config.seed,
        config.region.bounding_box(),
        &us_population_centers(),
        &config.towers,
    );
    let mut heights: Vec<f64> = registry.towers().iter().map(|t| t.height_m).collect();
    heights.sort_by(f64::total_cmp);
    let median = heights[heights.len() / 2];
    assert!(
        (median - MEDIAN_TOWER_M).abs() < 2.0,
        "median {median} m over {} towers",
        heights.len()
    );
}

/// `σ_min(P)` of the module docs, km.
fn narrowest_sigma_km(peak_m: f64) -> f64 {
    (peak_m / (8.0 * RIDGE_EPSILON_M - RIDGE_C_M_PER_KM2)).sqrt()
}

/// The module docs' `σ_min` table.
#[test]
fn the_narrowest_unmissable_ridge_table_holds() {
    for (peak_m, sigma_km) in [(50.0, 3.7), (100.0, 5.2), (200.0, 7.4), (300.0, 9.1)] {
        let got = narrowest_sigma_km(peak_m);
        assert!((got - sigma_km).abs() < 0.05, "{peak_m} m: {got} km");
    }
}

/// Random hops across a Gaussian ridge at least `σ_min` wide, crossed at
/// right angles 35–65 % of the way along: random tower heights, fractions
/// and lengths, each at a random peak and at the peaks that leave the
/// closed form's least margin at +ε/2 and −2ε. Outside `ε` the sweep's
/// verdict is the closed form's: it never clears a hop the oracle blocks,
/// and clears every hop the oracle clears.
#[test]
fn gaussian_ridge_verdicts_match_the_closed_form() {
    let crossing = GeoPoint::new(39.0, -98.0);
    let (mut clear, mut blocked, mut within_epsilon) = (0, 0, 0);
    for case in 0..100u64 {
        let draw = |k| unit(1_000 + case, k);
        let height_a = 30.0 + 320.0 * draw(0);
        let height_b = 30.0 + 320.0 * draw(1);
        let fraction = 0.3 + 0.7 * draw(2);
        let d_km = 30.0 + 65.0 * draw(3);
        let crest_km = d_km * (0.35 + 0.3 * draw(4));
        let a = geodesic::destination(crossing, 270.0, crest_km);
        let b = geodesic::destination(crossing, 90.0, d_km - crest_km);
        let mut hop = RidgeHop {
            d_km: geodesic::distance_km(a, b),
            crest_km: geodesic::distance_km(a, crossing),
            h_a: height_a * fraction,
            h_b: height_b * fraction,
            sigma_km: 0.0,
        };
        // Widths from σ_min(300 m) to three times it; the drawn peaks stay
        // at or below the widest peak that σ allows.
        hop.sigma_km = narrowest_sigma_km(300.0) * (1.0 + 2.0 * draw(5));
        let widest_peak_m = hop.sigma_km.powi(2) * (8.0 * RIDGE_EPSILON_M - RIDGE_C_M_PER_KM2);
        // A random peak, and the peaks leaving `m_r*` at +ε/2 and at −2ε.
        let near = [0.5, -2.0].map(|eps| hop.peak_at_margin_m(eps * RIDGE_EPSILON_M));
        let peaks = [Some(widest_peak_m * draw(6)), near[0], near[1]];
        for peak_m in peaks
            .into_iter()
            .flatten()
            .filter(|&p| p > 1.0 && p <= widest_peak_m)
        {
            let terrain = ridge_terrain(peak_m, hop.sigma_km);
            let cleared = sweep_clears_on(&terrain, (a, height_a), (b, height_b), fraction);
            let m_star = hop.min_margin_m(peak_m);
            let what = format!(
                "case {case}: peak {peak_m} m, σ {} km, m* = {m_star} m over {} km",
                hop.sigma_km, hop.d_km
            );
            if m_star >= 0.0 {
                assert!(cleared, "{what}: sweep blocks");
                clear += 1;
            } else if m_star < -RIDGE_EPSILON_M {
                assert!(!cleared, "{what}: sweep clears");
                blocked += 1;
            } else {
                within_epsilon += 1;
            }
        }
    }
    assert!(
        clear >= 60 && blocked >= 60,
        "{clear} clear, {blocked} blocked"
    );
    assert!(within_epsilon <= 15, "{within_epsilon} cases within ε");
}
