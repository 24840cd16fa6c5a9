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
//! tower pair reaches 61 % of the hop it reaches at the top. The ridge case
//! (terrain with a known obstacle profile) is not covered here.

use cisp::core::hops::{HopConfig, HopFeasibility};
use cisp::core::scenario::ScenarioConfig;
use cisp::data::cities::us_population_centers;
use cisp::data::towers::{Tower, TowerRegistry, TowerSource};
use cisp::geo::{geodesic, GeoPoint};
use cisp::terrain::clutter::ClutterModel;
use cisp::terrain::TerrainModel;

/// Effective-Earth-radius factor (§3.1).
const K: f64 = 1.3;
/// Carrier frequency, GHz (§3.1).
const F_GHZ: f64 = 11.0;
/// Width of the band below zero in which the sampled sweep may still clear
/// a hop the continuous closed form blocks, in metres (module docs).
const EPSILON_M: f64 = 0.1;
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
    let tower = |location, height_m| Tower {
        location,
        height_m,
        source: TowerSource::RentalCompany,
    };
    let registry = TowerRegistry::from_towers(vec![tower(a, height_a), tower(b, height_b)]);
    let (terrain, clutter) = (TerrainModel::flat(), ClutterModel::none());
    let sweep = HopFeasibility::new(
        &registry,
        &terrain,
        &clutter,
        HopConfig::restricted(100.0, fraction),
    );
    (
        !sweep.all_feasible_hops().is_empty(),
        geodesic::distance_km(a, b),
    )
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
