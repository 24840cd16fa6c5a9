//! Rain attenuation of microwave links (ITU-R P.838 / P.530 style).
//!
//! The specific attenuation of rain at rate `R` (mm/h) is `γ = k · Rᵅ` dB/km,
//! with frequency-dependent coefficients `k` and `α`. Over a path, rain cells
//! do not cover the whole length uniformly, so the standard practice is to
//! multiply by an *effective* path length `d_eff = d · 1/(1 + d/d₀(R))`.
//! A link is considered failed when the total attenuation exceeds its fade
//! margin — the binary model §6.1 adopts.

use serde::{Deserialize, Serialize};

/// ITU-R P.838-3 coefficients (horizontal polarisation) at selected
/// frequencies bracketing the paper's 6–18 GHz band.
const COEFFS: &[(f64, f64, f64)] = &[
    // (frequency GHz, k, alpha)
    (6.0, 0.0050, 1.354),
    (8.0, 0.0099, 1.288),
    (10.0, 0.0168, 1.217),
    (11.0, 0.0179, 1.210),
    (12.0, 0.0239, 1.160),
    (15.0, 0.0387, 1.106),
    (18.0, 0.0591, 1.063),
];

/// Interpolate the P.838 coefficients at a frequency in the 6–18 GHz band.
fn coefficients(freq_ghz: f64) -> (f64, f64) {
    assert!(
        (6.0..=18.0).contains(&freq_ghz),
        "frequency {freq_ghz} GHz outside the modelled 6-18 GHz band"
    );
    let mut prev = COEFFS[0];
    for &entry in COEFFS.iter() {
        if freq_ghz <= entry.0 {
            if entry.0 == prev.0 {
                return (entry.1, entry.2);
            }
            let t = (freq_ghz - prev.0) / (entry.0 - prev.0);
            // k varies roughly log-linearly with frequency; α linearly.
            let k = prev.1 * (entry.1 / prev.1).powf(t);
            let alpha = prev.2 + t * (entry.2 - prev.2);
            return (k, alpha);
        }
        prev = entry;
    }
    (prev.1, prev.2)
}

/// Specific attenuation `γ` in dB/km for rain rate `rain_mm_h` at
/// `freq_ghz`.
pub fn specific_attenuation_db_per_km(rain_mm_h: f64, freq_ghz: f64) -> f64 {
    assert!(rain_mm_h >= 0.0);
    if rain_mm_h == 0.0 {
        return 0.0;
    }
    let (k, alpha) = coefficients(freq_ghz);
    k * rain_mm_h.powf(alpha)
}

/// Effective path length factor (ITU-R P.530 style): rain cells are a few km
/// to a few tens of km across, so long paths are only partially covered.
pub fn effective_path_km(path_km: f64, rain_mm_h: f64) -> f64 {
    assert!(path_km >= 0.0);
    if path_km == 0.0 || rain_mm_h <= 0.0 {
        return 0.0;
    }
    // d0 shrinks with rain intensity: heavy rain comes in small cells.
    let d0 = 35.0 * (-0.015 * rain_mm_h.min(100.0)).exp();
    path_km / (1.0 + path_km / d0)
}

/// Total rain attenuation in dB over a path of `path_km` experiencing a
/// (uniform) rain rate of `rain_mm_h` at `freq_ghz`.
pub fn rain_attenuation_db(path_km: f64, rain_mm_h: f64, freq_ghz: f64) -> f64 {
    specific_attenuation_db_per_km(rain_mm_h, freq_ghz) * effective_path_km(path_km, rain_mm_h)
}

/// Link fade budget parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FadeMargin {
    /// Attenuation the link can absorb before its bandwidth degrades, dB.
    pub margin_db: f64,
}

impl Default for FadeMargin {
    fn default() -> Self {
        // Typical long-haul MW design margin for high availability.
        Self { margin_db: 25.0 }
    }
}

/// No rain bound is trusted above this rate (physical rates stay below
/// 10³ mm/h); it keeps `Rᵅ` far from overflow in [`FadeMargin::safe_rain_mm_h`].
const SAFE_RAIN_CAP_MM_H: f64 = 1e6;

impl FadeMargin {
    /// Whether a hop of `hop_km` survives rain of `rain_mm_h` at `freq_ghz`.
    pub fn survives(&self, hop_km: f64, rain_mm_h: f64, freq_ghz: f64) -> bool {
        rain_attenuation_db(hop_km, rain_mm_h, freq_ghz) <= self.margin_db
    }

    /// A rain rate at or below which a hop of `hop_km` is guaranteed to
    /// [survive](Self::survives) at `freq_ghz`, for a margin `≥ 0`.
    ///
    /// This is a conservative bound, **not** the critical rate of
    /// `survives`: `rain_attenuation_db` is not monotone in the rain rate
    /// (75 km at 11 GHz: 33.55 dB at 90 mm/h, 33.30 dB at 100 mm/h — `d₀`
    /// shrinks faster than `γ` grows), so `survives` has no single
    /// threshold. What is monotone is the bound used here: `d₀(R) ≤ 35` for
    /// every `R`, hence `d_eff(d, R) ≤ d / (1 + d/35)`, and `γ = k·Rᵅ` is
    /// increasing, so `att(R) ≤ k·Rᵅ · d/(1 + d/35)`, which is within the
    /// margin for every `R ≤ (margin · (1 + d/35) / (k·d))^(1/α)`. The
    /// returned rate is that, rounded down by a relative 10⁻⁹ — six orders
    /// above the few ulps the `powf`, `exp` and products of the exact
    /// evaluation can be off by.
    pub fn safe_rain_mm_h(&self, hop_km: f64, freq_ghz: f64) -> f64 {
        assert!(hop_km >= 0.0);
        if hop_km == 0.0 {
            // A zero-length hop has zero attenuation under any finite rain.
            return SAFE_RAIN_CAP_MM_H;
        }
        let (k, alpha) = coefficients(freq_ghz);
        let path_bound_km = hop_km / (1.0 + hop_km / 35.0);
        let rate = (self.margin_db / (k * path_bound_km)).powf(1.0 / alpha);
        (rate * (1.0 - 1e-9)).min(SAFE_RAIN_CAP_MM_H)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_rain_no_attenuation() {
        assert_eq!(specific_attenuation_db_per_km(0.0, 11.0), 0.0);
        assert_eq!(rain_attenuation_db(80.0, 0.0, 11.0), 0.0);
    }

    #[test]
    fn specific_attenuation_matches_itu_magnitudes() {
        // At 11 GHz and 25 mm/h the ITU model gives roughly 0.9 dB/km.
        let g = specific_attenuation_db_per_km(25.0, 11.0);
        assert!(g > 0.5 && g < 1.5, "γ = {g}");
        // At 100 mm/h (tropical downpour) several dB/km.
        let heavy = specific_attenuation_db_per_km(100.0, 11.0);
        assert!(heavy > 4.0 && heavy < 10.0, "γ = {heavy}");
    }

    #[test]
    fn attenuation_increases_with_frequency_and_rate() {
        assert!(
            specific_attenuation_db_per_km(30.0, 18.0) > specific_attenuation_db_per_km(30.0, 11.0)
        );
        assert!(
            specific_attenuation_db_per_km(30.0, 11.0) > specific_attenuation_db_per_km(30.0, 6.0)
        );
        assert!(
            specific_attenuation_db_per_km(60.0, 11.0) > specific_attenuation_db_per_km(20.0, 11.0)
        );
    }

    #[test]
    fn coefficient_interpolation_is_monotone_and_exact_at_knots() {
        let (k11, a11) = coefficients(11.0);
        assert!((k11 - 0.0179).abs() < 1e-6);
        assert!((a11 - 1.210).abs() < 1e-6);
        let (k9, _) = coefficients(9.0);
        let (k8, _) = coefficients(8.0);
        let (k10, _) = coefficients(10.0);
        assert!(k8 < k9 && k9 < k10);
    }

    #[test]
    fn effective_path_saturates_for_long_links() {
        let short = effective_path_km(10.0, 30.0);
        let long = effective_path_km(100.0, 30.0);
        assert!(short > 5.0 && short <= 10.0);
        assert!(
            long < 40.0,
            "long-path effective length should saturate, got {long}"
        );
        assert!(long > short);
    }

    #[test]
    fn fade_margin_binary_failure() {
        let margin = FadeMargin::default();
        // Drizzle never kills a hop.
        assert!(margin.survives(80.0, 2.0, 11.0));
        // A violent storm kills a long hop.
        assert!(!margin.survives(80.0, 90.0, 11.0));
        // The same storm over a very short hop may survive.
        assert!(margin.survives(3.0, 90.0, 11.0));
    }

    #[test]
    fn attenuation_is_not_monotone_in_rain_but_the_safe_rate_holds() {
        // The counter-example that forbids inverting `survives`.
        let at_90 = rain_attenuation_db(75.0, 90.0, 11.0);
        let at_100 = rain_attenuation_db(75.0, 100.0, 11.0);
        assert!(at_90 > at_100, "{at_90} vs {at_100}");
        for margin_db in [0.0, 8.0, 25.0, 33.4, 60.0] {
            let margin = FadeMargin { margin_db };
            let safe = margin.safe_rain_mm_h(75.0, 11.0);
            for step in 0..=1000 {
                assert!(margin.survives(75.0, safe * step as f64 / 1000.0, 11.0));
            }
        }
        // Zero-length hops never fail; the bound says so without dividing.
        assert!(FadeMargin { margin_db: 0.0 }.safe_rain_mm_h(0.0, 11.0) > 1e3);
    }

    #[test]
    #[should_panic]
    fn out_of_band_frequency_rejected() {
        specific_attenuation_db_per_km(10.0, 30.0);
    }
}
