//! Ground clutter: tree canopy and built structures.
//!
//! The SRTM surface model the paper uses "includes buildings and ground
//! clutter, and effectively incorporates the height of the tree canopy"
//! (§3.1, footnote 1). Microwave line-of-sight must clear this surface, not
//! the bare ground, so the feasibility engine adds a clutter height on top of
//! the [`crate::TerrainModel`] elevation.
//!
//! The clutter model is a noise field whose amplitude depends on a coarse
//! land-cover proxy: forested regions get up to ~30 m of canopy, open plains
//! a few metres of vegetation, and a small urban component is added near
//! cities by the caller (towers in cities are registered with their true
//! heights, so urban clutter mostly matters for the first/last hop which the
//! paper treats as within-city anyway).

use cisp_geo::GeoPoint;
use serde::{Deserialize, Serialize};

use crate::envelope::LatLonRect;
use crate::noise::{fbm, fbm_range, FbmParams};

/// Forest-cover field: large correlation length (~1.5°).
const COVER_PARAMS: FbmParams = FbmParams {
    octaves: 4,
    base_frequency: 1.0 / 1.5,
    lacunarity: 2.0,
    gain: 0.5,
};
const COVER_SEED_MASK: u64 = 0xF0_0D;

/// Canopy-height variation field: shorter correlation (~0.2°).
const VARIATION_PARAMS: FbmParams = FbmParams {
    octaves: 3,
    base_frequency: 5.0,
    lacunarity: 2.0,
    gain: 0.5,
};
const VARIATION_SEED_MASK: u64 = 0xBEEF;

/// Vegetation height the variation field adds in open terrain, metres.
const OPEN_VARIATION_M: f64 = 3.0;

/// Parameters of the clutter model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ClutterParams {
    /// Maximum canopy height in heavily forested areas, metres.
    pub max_canopy_m: f64,
    /// Minimum vegetation height in open terrain, metres.
    pub min_vegetation_m: f64,
    /// Fraction of the map that is "forest-like" (controls the threshold of
    /// the forest-cover noise field), in `[0, 1]`.
    pub forest_fraction: f64,
}

impl Default for ClutterParams {
    fn default() -> Self {
        Self {
            max_canopy_m: 30.0,
            min_vegetation_m: 2.0,
            forest_fraction: 0.45,
        }
    }
}

/// Deterministic clutter-height field.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClutterModel {
    seed: u64,
    params: ClutterParams,
}

impl ClutterModel {
    /// Create a clutter model with the given seed and parameters.
    pub fn new(seed: u64, params: ClutterParams) -> Self {
        assert!(params.max_canopy_m >= params.min_vegetation_m);
        assert!((0.0..=1.0).contains(&params.forest_fraction));
        Self { seed, params }
    }

    /// Default clutter model for a seed.
    pub fn with_seed(seed: u64) -> Self {
        Self::new(seed, ClutterParams::default())
    }

    /// A clutter model that adds nothing anywhere (for isolating geometry in
    /// tests).
    pub fn none() -> Self {
        Self::new(
            0,
            ClutterParams {
                max_canopy_m: 0.0,
                min_vegetation_m: 0.0,
                forest_fraction: 0.0,
            },
        )
    }

    /// Clutter height above ground at a point, in metres.
    pub fn clutter_m(&self, p: GeoPoint) -> f64 {
        if self.params.max_canopy_m <= 0.0 {
            return 0.0;
        }
        let cover = fbm(
            p.lon_deg,
            p.lat_deg,
            self.seed ^ COVER_SEED_MASK,
            COVER_PARAMS,
        );
        let variation = fbm(
            p.lon_deg,
            p.lat_deg,
            self.seed ^ VARIATION_SEED_MASK,
            VARIATION_PARAMS,
        );
        if cover >= self.forest_threshold() {
            self.forest_canopy_m(variation)
        } else {
            self.open_vegetation_m(variation)
        }
    }

    /// Cover-field value at and above which a point is forested.
    fn forest_threshold(&self) -> f64 {
        1.0 - self.params.forest_fraction
    }

    /// Forested: canopy between ~60% and 100% of max, modulated. Increasing
    /// in `variation`.
    fn forest_canopy_m(&self, variation: f64) -> f64 {
        let canopy = self.params.max_canopy_m * (0.6 + 0.4 * variation);
        canopy.max(self.params.min_vegetation_m)
    }

    /// Open terrain: low vegetation. Increasing in `variation`.
    fn open_vegetation_m(&self, variation: f64) -> f64 {
        self.params.min_vegetation_m + OPEN_VARIATION_M * variation
    }

    /// `(min, max)` of [`Self::clutter_m`] over the whole Earth: both
    /// land-cover branches over the variation field's full `[0, 1]` range.
    pub(crate) fn range_m(&self) -> (f64, f64) {
        if self.params.max_canopy_m <= 0.0 {
            return (0.0, 0.0);
        }
        (
            self.forest_canopy_m(0.0).min(self.open_vegetation_m(0.0)),
            self.forest_canopy_m(1.0).max(self.open_vegetation_m(1.0)),
        )
    }

    /// Upper bound on [`Self::clutter_m`] over `rect`: each land-cover
    /// branch the cover field's range over the rectangle can reach (with a
    /// slack for the rounding of that range), at the variation field's
    /// maximum over the rectangle.
    pub(crate) fn max_in(&self, rect: &LatLonRect) -> f64 {
        const COVER_SLACK: f64 = 1e-9;
        if self.params.max_canopy_m <= 0.0 {
            return 0.0;
        }
        let (cover_lo, cover_hi) = fbm_range(
            rect.lon,
            rect.lat,
            self.seed ^ COVER_SEED_MASK,
            COVER_PARAMS,
        );
        let (_, variation_hi) = fbm_range(
            rect.lon,
            rect.lat,
            self.seed ^ VARIATION_SEED_MASK,
            VARIATION_PARAMS,
        );
        let threshold = self.forest_threshold();
        let mut bound = f64::NEG_INFINITY;
        if cover_hi + COVER_SLACK >= threshold {
            bound = bound.max(self.forest_canopy_m(variation_hi));
        }
        if cover_lo - COVER_SLACK < threshold {
            bound = bound.max(self.open_vegetation_m(variation_hi));
        }
        bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_model_is_zero() {
        let c = ClutterModel::none();
        assert_eq!(c.clutter_m(GeoPoint::new(40.0, -100.0)), 0.0);
    }

    #[test]
    fn clutter_is_bounded_and_nonnegative() {
        let c = ClutterModel::with_seed(9);
        for i in 0..30 {
            for j in 0..30 {
                let p = GeoPoint::new(25.0 + i as f64, -124.0 + j as f64 * 2.0);
                let h = c.clutter_m(p);
                assert!((0.0..=35.0).contains(&h), "clutter {h} out of range");
            }
        }
    }

    #[test]
    fn clutter_is_deterministic() {
        let a = ClutterModel::with_seed(3);
        let b = ClutterModel::with_seed(3);
        let p = GeoPoint::new(44.4, -93.1);
        assert_eq!(a.clutter_m(p), b.clutter_m(p));
    }

    #[test]
    fn forest_fraction_controls_tall_clutter_prevalence() {
        let open = ClutterModel::new(
            5,
            ClutterParams {
                forest_fraction: 0.05,
                ..ClutterParams::default()
            },
        );
        let forest = ClutterModel::new(
            5,
            ClutterParams {
                forest_fraction: 0.95,
                ..ClutterParams::default()
            },
        );
        let mut tall_open = 0;
        let mut tall_forest = 0;
        for i in 0..400 {
            let p = GeoPoint::new(30.0 + (i / 20) as f64, -120.0 + (i % 20) as f64 * 2.0);
            if open.clutter_m(p) > 15.0 {
                tall_open += 1;
            }
            if forest.clutter_m(p) > 15.0 {
                tall_forest += 1;
            }
        }
        assert!(tall_forest > tall_open, "{tall_forest} vs {tall_open}");
    }

    #[test]
    #[should_panic]
    fn rejects_inverted_heights() {
        ClutterModel::new(
            1,
            ClutterParams {
                max_canopy_m: 1.0,
                min_vegetation_m: 5.0,
                forest_fraction: 0.5,
            },
        );
    }
}
