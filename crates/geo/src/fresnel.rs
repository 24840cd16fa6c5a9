//! Microwave line-of-sight geometry: Fresnel zones and Earth-curvature bulge.
//!
//! §3.1 of the paper states the two mid-hop clearance requirements for a
//! microwave hop of length `D` at frequency `f`:
//!
//! ```text
//! h_Fres  ≃ 8.7 m · (D / 1 km)^(1/2) · (f / 1 GHz)^(-1/2)
//! h_Earth ≃ 1 m / (50 K) · (D / 1 km)^2
//! ```
//!
//! where `K` is the effective-Earth-radius (atmospheric refraction) factor.
//! These are the mid-point specialisations of the standard point-wise
//! formulae, which this module also provides so that full terrain profiles can
//! be checked, not just the mid-point:
//!
//! ```text
//! r_Fres(d1, d2) = 17.31 m · sqrt(d1 · d2 / (f · D))      (d in km, f in GHz)
//! bulge(d1, d2)  = d1 · d2 / (12.75 · K)                  (metres, d in km)
//! ```

/// First Fresnel-zone radius at a point `d1_km` from one antenna and `d2_km`
/// from the other, for carrier frequency `freq_ghz`, in metres.
pub fn fresnel_radius_m(d1_km: f64, d2_km: f64, freq_ghz: f64) -> f64 {
    assert!(freq_ghz > 0.0, "frequency must be positive");
    let total = d1_km + d2_km;
    if total <= 0.0 {
        return 0.0;
    }
    17.31 * (d1_km * d2_km / (freq_ghz * total)).sqrt()
}

/// First Fresnel-zone radius at the midpoint of a hop of `hop_km`, in metres.
///
/// Matches the paper's `8.7 · sqrt(D) / sqrt(f)` approximation
/// (17.31 · sqrt(D/4f) = 8.655 · sqrt(D/f)).
pub fn fresnel_radius_midpoint_m(hop_km: f64, freq_ghz: f64) -> f64 {
    fresnel_radius_m(hop_km / 2.0, hop_km / 2.0, freq_ghz)
}

/// Earth-curvature bulge height at a point `d1_km` from one end and `d2_km`
/// from the other, for refraction factor `k`, in metres.
pub fn earth_bulge_m(d1_km: f64, d2_km: f64, k: f64) -> f64 {
    assert!(k > 0.0, "K-factor must be positive");
    d1_km * d2_km / (12.75 * k)
}

/// Earth-curvature bulge at the midpoint of a hop of `hop_km`, in metres.
///
/// Matches the paper's `D² / (50 K)` approximation
/// (D²/4 / 12.75K = D²/51K ≈ D²/50K).
pub fn earth_bulge_midpoint_m(hop_km: f64, k: f64) -> f64 {
    earth_bulge_m(hop_km / 2.0, hop_km / 2.0, k)
}

/// Total clearance (in metres, above the straight chord between the two
/// antennas) that an obstacle at `d1_km`/`d2_km` must stay below for the hop
/// to be viable: Earth bulge plus a fully clear first Fresnel zone.
pub fn required_clearance_m(d1_km: f64, d2_km: f64, freq_ghz: f64, k: f64) -> f64 {
    earth_bulge_m(d1_km, d2_km, k) + fresnel_radius_m(d1_km, d2_km, freq_ghz)
}

/// Height of the straight line between two antenna tips at a point along the
/// hop, in metres above the *lower reference plane* (linear interpolation of
/// the two antenna heights).
///
/// `h_a_m` and `h_b_m` are the antenna heights above some common datum (e.g.
/// metres above sea level); `frac` is the fractional distance from A to B.
pub fn line_of_sight_height_m(h_a_m: f64, h_b_m: f64, frac: f64) -> f64 {
    assert!((0.0..=1.0).contains(&frac));
    h_a_m + (h_b_m - h_a_m) * frac
}

/// Result of evaluating a single profile sample for hop feasibility.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClearanceSample {
    /// Fractional position along the hop, in `[0, 1]`.
    pub frac: f64,
    /// Height of the sight line above the datum at this point (m).
    pub sight_line_m: f64,
    /// Required clearance below the sight line (Fresnel + bulge), in metres.
    pub required_m: f64,
    /// Obstacle height (terrain + clutter) above the datum at this point (m).
    pub obstacle_m: f64,
}

impl ClearanceSample {
    /// Margin in metres between the bottom of the required clearance zone and
    /// the obstacle. Non-negative margins mean the sample is clear.
    pub fn margin_m(&self) -> f64 {
        (self.sight_line_m - self.required_m) - self.obstacle_m
    }

    /// Whether the obstacle stays out of the required clearance zone.
    pub fn is_clear(&self) -> bool {
        self.margin_m() >= 0.0
    }
}

/// Evaluate clearance along a hop given pre-sampled obstacle heights.
///
/// * `hop_km` — total hop length.
/// * `h_a_m`, `h_b_m` — antenna heights above the common datum at each end.
/// * `obstacles_m` — obstacle heights above the same datum, sampled uniformly
///   along the hop **including the endpoints** (so `obstacles_m.len() >= 2`).
/// * `freq_ghz`, `k` — carrier frequency and refraction factor.
///
/// Returns the per-sample clearance evaluation; the hop is feasible iff every
/// interior sample is clear (the endpoint samples are the antennas
/// themselves and are skipped).
pub fn evaluate_profile(
    hop_km: f64,
    h_a_m: f64,
    h_b_m: f64,
    obstacles_m: &[f64],
    freq_ghz: f64,
    k: f64,
) -> Vec<ClearanceSample> {
    assert!(obstacles_m.len() >= 2, "profile needs at least endpoints");
    assert!(hop_km > 0.0, "hop length must be positive");
    let n = obstacles_m.len();
    obstacles_m
        .iter()
        .enumerate()
        .map(|(i, &obstacle_m)| {
            let frac = i as f64 / (n - 1) as f64;
            let d1 = hop_km * frac;
            let d2 = hop_km - d1;
            ClearanceSample {
                frac,
                sight_line_m: line_of_sight_height_m(h_a_m, h_b_m, frac),
                required_m: required_clearance_m(d1, d2, freq_ghz, k),
                obstacle_m,
            }
        })
        .collect()
}

/// Whether a hop is feasible given its profile evaluation: all interior
/// samples must be clear.
pub fn profile_is_clear(samples: &[ClearanceSample]) -> bool {
    samples
        .iter()
        .filter(|s| s.frac > 0.0 && s.frac < 1.0)
        .all(|s| s.is_clear())
}

/// Height of the bottom of the required clearance zone (sight line minus
/// Earth bulge and first Fresnel zone) above the datum at `frac` along the
/// hop, in metres: the tallest obstacle the sample tolerates. It does not
/// depend on the terrain, so the hop-feasibility sweep computes it first
/// and compares it against cheap upper bounds on the obstacle before
/// sampling the terrain at all.
#[inline]
pub fn sample_headroom_m(
    hop_km: f64,
    h_a_m: f64,
    h_b_m: f64,
    frac: f64,
    freq_ghz: f64,
    k: f64,
) -> f64 {
    let d1 = hop_km * frac;
    let d2 = hop_km - d1;
    line_of_sight_height_m(h_a_m, h_b_m, frac) - required_clearance_m(d1, d2, freq_ghz, k)
}

/// Clearance margin of one profile sample, in metres, without materialising a
/// [`ClearanceSample`]: identical arithmetic to
/// [`evaluate_profile`] + [`ClearanceSample::margin_m`] at the same `frac`.
///
/// The hop-feasibility sweep uses this to test samples one at a time (and
/// bail on the first blocked one) instead of building the full profile `Vec`
/// per pair; because the per-sample expressions are the same, the boolean
/// verdict is bit-identical to the allocating path.
#[inline]
pub fn sample_margin_m(
    hop_km: f64,
    h_a_m: f64,
    h_b_m: f64,
    frac: f64,
    obstacle_m: f64,
    freq_ghz: f64,
    k: f64,
) -> f64 {
    sample_headroom_m(hop_km, h_a_m, h_b_m, frac, freq_ghz, k) - obstacle_m
}

/// Whether one profile sample is clear; see [`sample_margin_m`].
#[inline]
pub fn sample_is_clear(
    hop_km: f64,
    h_a_m: f64,
    h_b_m: f64,
    frac: f64,
    obstacle_m: f64,
    freq_ghz: f64,
    k: f64,
) -> bool {
    sample_margin_m(hop_km, h_a_m, h_b_m, frac, obstacle_m, freq_ghz, k) >= 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn midpoint_fresnel_matches_paper_constant() {
        // Paper: h_Fres ≃ 8.7 m for D = 1 km, f = 1 GHz.
        let r = fresnel_radius_midpoint_m(1.0, 1.0);
        assert!((r - 8.655).abs() < 0.1, "r = {r}");

        // 100 km at 11 GHz: 8.66 * sqrt(100/11) ≈ 26.1 m.
        let r = fresnel_radius_midpoint_m(100.0, 11.0);
        assert!((r - 26.1).abs() < 0.5, "r = {r}");
    }

    #[test]
    fn midpoint_bulge_matches_paper_constant() {
        // Paper: h_Earth ≃ D²/(50K) metres. For D = 100 km, K = 1.3: ≈ 153.8 m.
        let b = earth_bulge_midpoint_m(100.0, 1.3);
        assert!((b - 100.0 * 100.0 / (51.0 * 1.3)).abs() < 2.0, "b = {b}");
        assert!(b > 145.0 && b < 160.0, "b = {b}");
    }

    #[test]
    fn fresnel_is_symmetric_and_zero_at_ends() {
        let r1 = fresnel_radius_m(30.0, 70.0, 11.0);
        let r2 = fresnel_radius_m(70.0, 30.0, 11.0);
        assert!((r1 - r2).abs() < 1e-12);
        assert_eq!(fresnel_radius_m(0.0, 100.0, 11.0), 0.0);
    }

    #[test]
    fn bulge_is_maximal_at_midpoint() {
        let mid = earth_bulge_m(50.0, 50.0, 1.3);
        for d1 in [10.0, 25.0, 40.0, 60.0, 90.0] {
            let b = earth_bulge_m(d1, 100.0 - d1, 1.3);
            assert!(b <= mid + 1e-9);
        }
    }

    #[test]
    fn higher_frequency_needs_less_clearance() {
        let low = fresnel_radius_midpoint_m(80.0, 6.0);
        let high = fresnel_radius_midpoint_m(80.0, 18.0);
        assert!(high < low);
    }

    #[test]
    fn flat_terrain_profile_clear_with_tall_towers() {
        // 80 km hop over flat ground at sea level with 250 m towers: the
        // required clearance at mid-hop is ~120 m bulge + ~23 m Fresnel,
        // comfortably below the 250 m sight line.
        let obstacles = vec![0.0; 41];
        let samples = evaluate_profile(80.0, 250.0, 250.0, &obstacles, 11.0, 1.3);
        assert!(profile_is_clear(&samples));
    }

    #[test]
    fn flat_terrain_profile_blocked_with_short_towers() {
        // Same hop with 50 m towers fails: the Earth itself gets in the way.
        let obstacles = vec![0.0; 41];
        let samples = evaluate_profile(80.0, 50.0, 50.0, &obstacles, 11.0, 1.3);
        assert!(!profile_is_clear(&samples));
    }

    #[test]
    fn single_obstruction_blocks() {
        let mut obstacles = vec![0.0; 41];
        obstacles[20] = 400.0; // a ridge at mid-hop
        let samples = evaluate_profile(60.0, 200.0, 200.0, &obstacles, 11.0, 1.3);
        assert!(!profile_is_clear(&samples));
        // Endpoint "obstacles" are ignored even if tall (they are the towers).
        let mut obstacles = vec![0.0; 41];
        obstacles[0] = 1000.0;
        obstacles[40] = 1000.0;
        let samples = evaluate_profile(40.0, 200.0, 200.0, &obstacles, 11.0, 1.3);
        assert!(profile_is_clear(&samples));
    }

    #[test]
    fn clearance_sample_margin_sign() {
        let s = ClearanceSample {
            frac: 0.5,
            sight_line_m: 200.0,
            required_m: 150.0,
            obstacle_m: 40.0,
        };
        assert!(s.is_clear());
        assert!((s.margin_m() - 10.0).abs() < 1e-12);
        let s2 = ClearanceSample {
            obstacle_m: 60.0,
            ..s
        };
        assert!(!s2.is_clear());
    }

    #[test]
    #[should_panic]
    fn evaluate_profile_requires_two_samples() {
        evaluate_profile(10.0, 100.0, 100.0, &[0.0], 11.0, 1.3);
    }

    #[test]
    fn sample_margin_is_bit_identical_to_profile_evaluation() {
        let obstacles: Vec<f64> = (0..33).map(|i| (i as f64 * 13.7) % 180.0).collect();
        let (hop, ha, hb, f, k) = (73.0, 210.0, 145.0, 11.0, 1.3);
        let samples = evaluate_profile(hop, ha, hb, &obstacles, f, k);
        let n = obstacles.len();
        for (i, s) in samples.iter().enumerate() {
            let frac = i as f64 / (n - 1) as f64;
            let m = sample_margin_m(hop, ha, hb, frac, obstacles[i], f, k);
            assert!(m == s.margin_m(), "sample {i}: {m} vs {}", s.margin_m());
            assert_eq!(
                sample_is_clear(hop, ha, hb, frac, obstacles[i], f, k),
                s.is_clear()
            );
        }
    }
}
