//! Physical constants used throughout the workspace.
//!
//! The constants here are deliberately few: the paper's analysis depends only
//! on the speed of light, the refractive slowdown of optical fiber, and the
//! Earth's radius. Everything else (costs, ranges, frequencies) is a model
//! *parameter* and lives with the code that owns the model.

/// Speed of light in vacuum, in kilometres per second.
///
/// The speed of light in air differs from the vacuum value by less than
/// 0.03 %, so — like the paper — we treat free-space microwave propagation as
/// happening exactly at `c`.
pub const SPEED_OF_LIGHT_KM_PER_S: f64 = 299_792.458;

/// Mean Earth radius in kilometres (IUGG mean radius R₁).
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// Multiplier applied to fiber route distances to convert them into
/// "equivalent free-space distance" for latency purposes.
///
/// Light in silica fiber travels at roughly `2c/3`; the paper accordingly
/// multiplies fiber distances by 1.5 when comparing them with microwave
/// paths (§3.2, "The optical fiber distance ... which we multiply by 1.5").
pub const FIBER_LATENCY_FACTOR: f64 = 1.5;

/// Default microwave carrier frequency in GHz used for Fresnel-zone
/// calculations (§3.1 adopts `f = 11 GHz`).
pub const DEFAULT_MICROWAVE_FREQ_GHZ: f64 = 11.0;

/// Default atmospheric refraction factor ("effective Earth radius factor")
/// used for the Earth-bulge calculation (§3.1 adopts `K = 1.3`).
pub const DEFAULT_K_FACTOR: f64 = 1.3;

/// Maximum practicable microwave hop length in kilometres under favourable
/// conditions (§2, "A maximum range of around 100 km is practicable").
pub const DEFAULT_MAX_HOP_KM: f64 = 100.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_of_light_is_the_si_value() {
        assert!((SPEED_OF_LIGHT_KM_PER_S - 299_792.458).abs() < 1e-9);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn earth_radius_in_plausible_range() {
        assert!(EARTH_RADIUS_KM > 6_350.0 && EARTH_RADIUS_KM < 6_400.0);
    }

    #[test]
    fn fiber_factor_matches_refractive_index() {
        // n ≈ 1.468 for silica; the paper rounds to 1.5.
        assert!((FIBER_LATENCY_FACTOR - 1.5).abs() < f64::EPSILON);
    }
}
