//! Distance ↔ latency conversions and the paper's central "stretch" metric.
//!
//! *c-latency* is the one-way propagation time along the geodesic at the
//! speed of light; *stretch* is the ratio of an actual path's latency to the
//! c-latency of its endpoints. A stretch of 1.0 means "as fast as physics
//! allows"; today's Internet averages 3–4× and fiber shortest paths ~1.9×.

use crate::units::SPEED_OF_LIGHT_KM_PER_S;

/// One-way propagation latency of `distance_km` at the speed of light, in
/// milliseconds.
#[inline]
pub fn c_latency_ms(distance_km: f64) -> f64 {
    distance_km / SPEED_OF_LIGHT_KM_PER_S * 1_000.0
}

/// Round-trip time in milliseconds of a one-way path latency.
#[inline]
pub fn rtt_ms(one_way_ms: f64) -> f64 {
    2.0 * one_way_ms
}

/// Stretch of an achieved latency relative to the c-latency of the geodesic
/// distance between the endpoints.
///
/// Returns 1.0 for a zero-length geodesic (co-located endpoints), matching
/// the convention used when aggregating over city pairs.
#[inline]
pub fn stretch(achieved_latency_ms: f64, geodesic_km: f64) -> f64 {
    let ideal = c_latency_ms(geodesic_km);
    if ideal <= 0.0 {
        1.0
    } else {
        achieved_latency_ms / ideal
    }
}

/// Stretch expressed purely in distances: the "equivalent free-space length"
/// of the path divided by the geodesic length. This is the form used in the
/// design optimisation where everything is kept in kilometres.
#[inline]
pub fn distance_stretch(path_equivalent_km: f64, geodesic_km: f64) -> f64 {
    if geodesic_km <= 0.0 {
        1.0
    } else {
        path_equivalent_km / geodesic_km
    }
}

/// Streaming accumulator for the traffic-weighted mean stretch
/// `Σ h_i · s_i / Σ h_i` — the objective the paper's design problem
/// minimises (per-unit traffic mean stretch).
///
/// This is the single shared definition of the weighted average: the
/// slice-based [`weighted_mean_stretch`] below and the matrix sweep in
/// `cisp_core::topology::weighted_mean_stretch` both fold through it, so the
/// "skip non-positive weights, divide weighted sum by total weight"
/// convention lives in exactly one place.
#[derive(Debug, Clone, Copy, Default)]
pub struct StretchAccumulator {
    num: f64,
    den: f64,
}

impl StretchAccumulator {
    /// A fresh accumulator with no samples.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one `(weight, stretch)` sample; non-positive weights are
    /// ignored.
    #[inline]
    pub fn add(&mut self, weight: f64, stretch: f64) {
        if weight > 0.0 {
            self.num += weight * stretch;
            self.den += weight;
        }
    }

    /// Total accumulated weight.
    #[inline]
    pub fn total_weight(&self) -> f64 {
        self.den
    }

    /// The weighted mean, or `None` if no positive-weight sample was added.
    #[inline]
    pub fn mean(&self) -> Option<f64> {
        if self.den > 0.0 {
            Some(self.num / self.den)
        } else {
            None
        }
    }
}

/// Mean stretch weighted by traffic volume: `Σ h_i · s_i / Σ h_i`.
///
/// Pairs with non-positive weight are ignored; returns `None` if the total
/// weight is zero. Callers that already hold matrices use the flat sweep in
/// `cisp_core::topology::weighted_mean_stretch`, which delegates to the same
/// [`StretchAccumulator`].
pub fn weighted_mean_stretch(pairs: &[(f64, f64)]) -> Option<f64> {
    let mut acc = StretchAccumulator::new();
    for &(weight, stretch) in pairs {
        acc.add(weight, stretch);
    }
    acc.mean()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::FIBER_LATENCY_FACTOR;

    #[test]
    fn c_latency_of_known_distances() {
        // 299.792458 km in 1 ms.
        assert!((c_latency_ms(299.792458) - 1.0).abs() < 1e-12);
        // NYC-LA ≈ 3936 km → ≈ 13.1 ms one-way.
        let ms = c_latency_ms(3936.0);
        assert!((ms - 13.13).abs() < 0.05, "ms = {ms}");
    }

    #[test]
    fn fiber_is_fifty_percent_slower() {
        let d = 1000.0;
        assert!((c_latency_ms(d * FIBER_LATENCY_FACTOR) / c_latency_ms(d) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn rtt_doubles() {
        assert_eq!(rtt_ms(7.25), 14.5);
    }

    #[test]
    fn stretch_of_direct_path_is_one() {
        let d = 1234.0;
        assert!((stretch(c_latency_ms(d), d) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stretch_of_fiber_path_is_1_5_times_circuitousness() {
        // A fiber route 1.3× longer than the geodesic has stretch 1.95.
        let geo = 1000.0;
        let route = 1300.0;
        let s = stretch(c_latency_ms(route * FIBER_LATENCY_FACTOR), geo);
        assert!((s - 1.95).abs() < 1e-9, "s = {s}");
    }

    #[test]
    fn stretch_handles_zero_geodesic() {
        assert_eq!(stretch(5.0, 0.0), 1.0);
        assert_eq!(distance_stretch(5.0, 0.0), 1.0);
    }

    #[test]
    fn weighted_mean_stretch_basic() {
        let pairs = [(1.0, 1.0), (1.0, 2.0)];
        assert!((weighted_mean_stretch(&pairs).unwrap() - 1.5).abs() < 1e-12);

        // Heavier weight pulls the mean.
        let pairs = [(3.0, 1.0), (1.0, 2.0)];
        assert!((weighted_mean_stretch(&pairs).unwrap() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn weighted_mean_stretch_ignores_nonpositive_weights() {
        let pairs = [(0.0, 100.0), (-1.0, 100.0), (2.0, 1.5)];
        assert!((weighted_mean_stretch(&pairs).unwrap() - 1.5).abs() < 1e-12);
        assert!(weighted_mean_stretch(&[(0.0, 1.0)]).is_none());
        assert!(weighted_mean_stretch(&[]).is_none());
    }
}
