//! Geographic coordinates.
//!
//! [`GeoPoint`] is the workhorse type of the workspace: cities, towers, data
//! centers, fiber bend points and storm centres are all located by one. It is
//! a plain `(lat, lon)` pair in degrees with a handful of convenience methods;
//! all heavier geometry lives in [`crate::geodesic`].

use std::fmt;

/// A point on the Earth's surface, given by latitude and longitude in degrees.
///
/// Latitude is positive north, longitude positive east. The type is `Copy` and
/// ordered lexicographically (latitude first) so it can be used as a map key
/// after quantisation; exact float equality is intentional because points in
/// this workspace come from datasets, not from accumulation of arithmetic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude in degrees, in `[-90, 90]`.
    pub lat_deg: f64,
    /// Longitude in degrees, in `[-180, 180]`.
    pub lon_deg: f64,
}

impl GeoPoint {
    /// Create a new point. Debug-asserts that the coordinates are in range;
    /// use [`GeoPoint::try_new`] for checked construction from untrusted data.
    pub fn new(lat_deg: f64, lon_deg: f64) -> Self {
        debug_assert!((-90.0..=90.0).contains(&lat_deg), "latitude out of range");
        debug_assert!(
            (-180.0..=180.0).contains(&lon_deg),
            "longitude out of range"
        );
        Self { lat_deg, lon_deg }
    }

    /// Checked construction: returns `None` if either coordinate is out of
    /// range or not finite.
    pub fn try_new(lat_deg: f64, lon_deg: f64) -> Option<Self> {
        if lat_deg.is_finite()
            && lon_deg.is_finite()
            && (-90.0..=90.0).contains(&lat_deg)
            && (-180.0..=180.0).contains(&lon_deg)
        {
            Some(Self { lat_deg, lon_deg })
        } else {
            None
        }
    }

    /// Latitude in radians.
    #[inline]
    pub(crate) fn lat_rad(&self) -> f64 {
        self.lat_deg.to_radians()
    }

    /// Longitude in radians.
    #[inline]
    pub(crate) fn lon_rad(&self) -> f64 {
        self.lon_deg.to_radians()
    }

    /// Great-circle distance to another point in kilometres.
    ///
    /// Convenience wrapper around [`crate::geodesic::distance_km`].
    #[inline]
    pub fn distance_km(&self, other: GeoPoint) -> f64 {
        crate::geodesic::distance_km(*self, other)
    }

    /// Quantise to a grid cell of `cell_deg` degrees, returning integer cell
    /// coordinates `(lat_cell, lon_cell)`.
    ///
    /// Used for the paper's tower-density culling rule ("50 towers per 0.5°
    /// square grid cell") and for spatial indexing.
    pub fn grid_cell(&self, cell_deg: f64) -> (i32, i32) {
        assert!(cell_deg > 0.0, "cell size must be positive");
        (
            (self.lat_deg / cell_deg).floor() as i32,
            (self.lon_deg / cell_deg).floor() as i32,
        )
    }

    /// Unit vector on the sphere (ECEF direction, unit radius).
    pub fn to_unit_vector(&self) -> [f64; 3] {
        let lat = self.lat_rad();
        let lon = self.lon_rad();
        [lat.cos() * lon.cos(), lat.cos() * lon.sin(), lat.sin()]
    }

    /// Reconstruct a point from a unit vector; the inverse of
    /// [`GeoPoint::to_unit_vector`] up to floating-point error.
    pub(crate) fn from_unit_vector(v: [f64; 3]) -> Self {
        let norm = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
        let x = v[0] / norm;
        let y = v[1] / norm;
        let z = v[2] / norm;
        Self {
            lat_deg: z.asin().to_degrees(),
            lon_deg: y.atan2(x).to_degrees(),
        }
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}°, {:.4}°)", self.lat_deg, self.lon_deg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_new_rejects_out_of_range() {
        assert!(GeoPoint::try_new(91.0, 0.0).is_none());
        assert!(GeoPoint::try_new(-91.0, 0.0).is_none());
        assert!(GeoPoint::try_new(0.0, 181.0).is_none());
        assert!(GeoPoint::try_new(0.0, -181.0).is_none());
        assert!(GeoPoint::try_new(f64::NAN, 0.0).is_none());
        assert!(GeoPoint::try_new(45.0, -120.0).is_some());
    }

    #[test]
    fn unit_vector_roundtrip() {
        for &(lat, lon) in &[
            (0.0, 0.0),
            (41.88, -87.62),
            (-33.86, 151.21),
            (89.0, 10.0),
            (-45.0, -170.0),
        ] {
            let p = GeoPoint::new(lat, lon);
            let q = GeoPoint::from_unit_vector(p.to_unit_vector());
            assert!((p.lat_deg - q.lat_deg).abs() < 1e-9, "{p} vs {q}");
            assert!((p.lon_deg - q.lon_deg).abs() < 1e-9, "{p} vs {q}");
        }
    }

    #[test]
    fn grid_cell_quantises() {
        let p = GeoPoint::new(41.88, -87.62);
        assert_eq!(p.grid_cell(0.5), (83, -176));
        assert_eq!(p.grid_cell(1.0), (41, -88));
    }

    #[test]
    fn display_formats_degrees() {
        let p = GeoPoint::new(41.88, -87.62);
        assert_eq!(format!("{p}"), "(41.8800°, -87.6200°)");
    }

    #[test]
    #[should_panic]
    fn grid_cell_rejects_zero_cell() {
        GeoPoint::new(0.0, 0.0).grid_cell(0.0);
    }
}
