//! A synthetic year of precipitation (the TRMM/GPM stand-in).
//!
//! The paper samples one random 30-minute interval per day over a year of
//! NASA precipitation data and asks which links the rain would take down
//! (§6.1). This module generates an equivalent synthetic year: every daily
//! interval gets a set of storm systems whose number, intensity and size
//! follow a seasonal cycle (more, stronger convective storms in summer;
//! broader, weaker systems in winter). Rain rate at a point is the sum of
//! Gaussian storm-cell contributions, giving the spatial correlation that
//! makes *regional* groups of links fail together — the property Fig. 7
//! depends on.

use cisp_geo::geodesic::{self, PathSampler};
use cisp_geo::GeoPoint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A single storm cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Storm {
    /// Storm centre.
    pub center: GeoPoint,
    /// Characteristic radius (Gaussian sigma), km.
    pub radius_km: f64,
    /// Peak rain rate at the centre, mm/h.
    pub peak_mm_h: f64,
}

impl Storm {
    /// Rain rate contributed by this storm at a point.
    pub fn rain_at(&self, p: GeoPoint) -> f64 {
        self.rain_at_distance(geodesic::distance_km(self.center, p))
    }

    /// Whether `d_km` from the centre lies beyond the `4σ` cut-off, where
    /// the storm contributes exactly zero.
    pub(crate) fn is_dry_at(&self, d_km: f64) -> bool {
        d_km > 4.0 * self.radius_km
    }

    /// Rain rate contributed `d_km` from the centre: a Gaussian profile cut
    /// off to exactly zero beyond `4σ`. Non-increasing in `d_km`.
    pub(crate) fn rain_at_distance(&self, d_km: f64) -> f64 {
        if self.is_dry_at(d_km) {
            return 0.0;
        }
        let x = d_km / self.radius_km;
        self.peak_mm_h * (-0.5 * x * x).exp()
    }
}

/// The points [`StormField::max_rain_along`] evaluates on the path `a` → `b`:
/// one every ~10 km, both endpoints included, at least 2 and at most 64.
/// Bit-identical to `geodesic::sample_path(a, b, n)` without its `Vec` or
/// the path-constant trigonometry `intermediate` repeats per sample.
pub(crate) fn rain_sample_points(a: GeoPoint, b: GeoPoint) -> impl Iterator<Item = GeoPoint> {
    let d = geodesic::distance_km(a, b);
    let samples = ((d / 10.0).ceil() as usize).clamp(2, 64);
    let path = PathSampler::new(a, b);
    (0..samples).map(move |i| path.point_at(i as f64 / (samples - 1) as f64))
}

/// The storm field of one 30-minute interval.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StormField {
    /// Active storms during the interval.
    pub storms: Vec<Storm>,
}

impl StormField {
    /// Total rain rate at a point (mm/h).
    pub fn rain_at(&self, p: GeoPoint) -> f64 {
        self.storms.iter().map(|s| s.rain_at(p)).sum()
    }

    /// Maximum rain rate along a great-circle path, sampled every ~10 km.
    pub fn max_rain_along(&self, a: GeoPoint, b: GeoPoint) -> f64 {
        rain_sample_points(a, b)
            .map(|p| self.rain_at(p))
            .fold(0.0, f64::max)
    }
}

/// Configuration of the synthetic storm year.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StormYearConfig {
    /// Bounding box `(min_lat, max_lat, min_lon, max_lon)` storms appear in.
    pub bbox: (f64, f64, f64, f64),
    /// Mean number of storm systems per interval in mid-summer.
    pub summer_mean_storms: f64,
    /// Mean number of storm systems per interval in mid-winter.
    pub winter_mean_storms: f64,
    /// Number of daily intervals (the paper uses one per day for a year).
    pub days: usize,
}

impl StormYearConfig {
    /// The default configuration for the contiguous US.
    pub fn us_default() -> Self {
        Self {
            bbox: (24.5, 49.5, -125.0, -66.5),
            summer_mean_storms: 6.0,
            winter_mean_storms: 3.0,
            days: 365,
        }
    }
}

/// A year of daily 30-minute storm fields.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StormYear {
    fields: Vec<StormField>,
}

impl StormYear {
    /// Generate the synthetic year.
    pub fn generate(seed: u64, config: &StormYearConfig) -> Self {
        assert!(config.days >= 1);
        let (min_lat, max_lat, min_lon, max_lon) = config.bbox;
        assert!(max_lat > min_lat && max_lon > min_lon);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5701_2117);
        let mut fields = Vec::with_capacity(config.days);
        for day in 0..config.days {
            // Seasonal factor: 1 at mid-summer (day ~196), 0 at mid-winter.
            let season = 0.5 + 0.5 * ((day as f64 - 196.0) / 365.0 * std::f64::consts::TAU).cos();
            let mean = config.winter_mean_storms
                + season * (config.summer_mean_storms - config.winter_mean_storms);
            // Poisson-ish count via repeated Bernoulli thinning.
            let count = {
                let mut c = 0usize;
                let lambda = mean;
                let l = (-lambda).exp();
                let mut p = 1.0;
                loop {
                    p *= rng.gen::<f64>();
                    if p < l {
                        break;
                    }
                    c += 1;
                }
                c
            };
            let mut storms = Vec::with_capacity(count);
            for _ in 0..count {
                let center = GeoPoint::new(
                    min_lat + rng.gen::<f64>() * (max_lat - min_lat),
                    min_lon + rng.gen::<f64>() * (max_lon - min_lon),
                );
                // Summer: smaller, more intense convective cells; winter:
                // broad, weaker systems.
                let convective = rng.gen::<f64>() < 0.3 + 0.5 * season;
                let (radius_km, peak_mm_h) = if convective {
                    (
                        20.0 + rng.gen::<f64>() * 60.0,
                        25.0 + rng.gen::<f64>() * 85.0,
                    )
                } else {
                    (
                        80.0 + rng.gen::<f64>() * 200.0,
                        3.0 + rng.gen::<f64>() * 17.0,
                    )
                };
                storms.push(Storm {
                    center,
                    radius_km,
                    peak_mm_h,
                });
            }
            fields.push(StormField { storms });
        }
        Self { fields }
    }

    /// A year made of the given fields, in order — recorded or hand-built
    /// weather in place of the synthetic generator.
    pub fn from_fields(fields: Vec<StormField>) -> Self {
        Self { fields }
    }

    /// The per-day storm fields.
    pub fn fields(&self) -> &[StormField] {
        &self.fields
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the year has no intervals (never true for a generated year).
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_rain_decays_with_distance() {
        let storm = Storm {
            center: GeoPoint::new(40.0, -95.0),
            radius_km: 50.0,
            peak_mm_h: 60.0,
        };
        assert!((storm.rain_at(storm.center) - 60.0).abs() < 1e-9);
        let near = storm.rain_at(GeoPoint::new(40.3, -95.0));
        let far = storm.rain_at(GeoPoint::new(42.0, -95.0));
        assert!(near > far);
        assert_eq!(storm.rain_at(GeoPoint::new(45.0, -80.0)), 0.0);
    }

    #[test]
    fn field_sums_overlapping_storms() {
        let field = StormField {
            storms: vec![
                Storm {
                    center: GeoPoint::new(40.0, -95.0),
                    radius_km: 50.0,
                    peak_mm_h: 30.0,
                },
                Storm {
                    center: GeoPoint::new(40.0, -95.2),
                    radius_km: 50.0,
                    peak_mm_h: 30.0,
                },
            ],
        };
        assert!(field.rain_at(GeoPoint::new(40.0, -95.1)) > 30.0);
    }

    #[test]
    fn max_rain_along_detects_mid_path_storm() {
        let a = GeoPoint::new(40.0, -100.0);
        let b = GeoPoint::new(40.0, -90.0);
        let mid = geodesic::intermediate(a, b, 0.5);
        let field = StormField {
            storms: vec![Storm {
                center: mid,
                radius_km: 40.0,
                peak_mm_h: 80.0,
            }],
        };
        assert!(field.max_rain_along(a, b) > 70.0);
        // Endpoints far from the storm see little rain.
        assert!(field.rain_at(a) < 5.0);
    }

    #[test]
    fn max_rain_along_is_bit_identical_to_the_sample_path_formulation() {
        let year = StormYear::generate(21, &StormYearConfig::us_default());
        let a = GeoPoint::new(39.1, -94.6);
        // ~1 km, ~75 km, ~640 km (the 64-sample clamp) and a degenerate path.
        for b in [
            GeoPoint::new(39.11, -94.6),
            GeoPoint::new(39.1, -93.73),
            GeoPoint::new(41.9, -87.6),
            a,
        ] {
            let d = geodesic::distance_km(a, b);
            let samples = ((d / 10.0).ceil() as usize).clamp(2, 64);
            for field in year.fields() {
                let reference = geodesic::sample_path(a, b, samples)
                    .into_iter()
                    .map(|p| field.rain_at(p))
                    .fold(0.0, f64::max);
                assert_eq!(field.max_rain_along(a, b).to_bits(), reference.to_bits());
            }
        }
    }

    #[test]
    fn year_generation_is_deterministic_and_sized() {
        let cfg = StormYearConfig {
            days: 60,
            ..StormYearConfig::us_default()
        };
        let a = StormYear::generate(3, &cfg);
        let b = StormYear::generate(3, &cfg);
        let c = StormYear::generate(4, &cfg);
        assert_eq!(a.len(), 60);
        assert_eq!(a.fields()[10].storms.len(), b.fields()[10].storms.len());
        let total_a: usize = a.fields().iter().map(|f| f.storms.len()).sum();
        let total_c: usize = c.fields().iter().map(|f| f.storms.len()).sum();
        assert_ne!(total_a, total_c);
    }

    #[test]
    fn storms_stay_in_bbox_and_have_sane_parameters() {
        let cfg = StormYearConfig {
            days: 120,
            ..StormYearConfig::us_default()
        };
        let year = StormYear::generate(9, &cfg);
        for field in year.fields() {
            for s in &field.storms {
                assert!(s.center.lat_deg >= 24.5 && s.center.lat_deg <= 49.5);
                assert!(s.center.lon_deg >= -125.0 && s.center.lon_deg <= -66.5);
                assert!(s.radius_km > 0.0 && s.radius_km <= 280.0);
                assert!(s.peak_mm_h > 0.0 && s.peak_mm_h <= 110.0);
            }
        }
    }

    #[test]
    fn summer_is_stormier_than_winter() {
        let cfg = StormYearConfig {
            days: 365,
            ..StormYearConfig::us_default()
        };
        let year = StormYear::generate(11, &cfg);
        let winter: usize = (0..60).map(|d| year.fields()[d].storms.len()).sum();
        let summer: usize = (170..230).map(|d| year.fields()[d].storms.len()).sum();
        assert!(summer > winter, "summer {summer} vs winter {winter}");
    }
}
