//! Great-circle ("geodesic") geometry on a spherical Earth.
//!
//! The paper's notion of ideal latency is the *geodesic distance* between two
//! sites divided by the speed of light ("c-latency"). A spherical Earth model
//! (haversine) is accurate to ~0.5 % which is far below the stretch
//! differences the paper studies (5 %–100 %), so — like the paper's own
//! analysis scripts — we use spherical formulae throughout.

use crate::coords::GeoPoint;
use crate::units::EARTH_RADIUS_KM;

/// Great-circle distance between two points, in kilometres (haversine).
///
/// Numerically stable for both antipodal and very close points.
pub fn distance_km(a: GeoPoint, b: GeoPoint) -> f64 {
    let lat1 = a.lat_rad();
    let lat2 = b.lat_rad();
    let dlat = lat2 - lat1;
    let dlon = b.lon_rad() - a.lon_rad();

    let s = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    let c = 2.0 * s.sqrt().clamp(0.0, 1.0).asin();
    EARTH_RADIUS_KM * c
}

/// Central angle between two points, in radians.
pub fn central_angle_rad(a: GeoPoint, b: GeoPoint) -> f64 {
    distance_km(a, b) / EARTH_RADIUS_KM
}

/// Initial bearing (forward azimuth) from `a` to `b`, in degrees clockwise
/// from true north, normalised to `[0, 360)`.
pub fn initial_bearing_deg(a: GeoPoint, b: GeoPoint) -> f64 {
    let lat1 = a.lat_rad();
    let lat2 = b.lat_rad();
    let dlon = b.lon_rad() - a.lon_rad();
    let y = dlon.sin() * lat2.cos();
    let x = lat1.cos() * lat2.sin() - lat1.sin() * lat2.cos() * dlon.cos();
    let deg = y.atan2(x).to_degrees();
    (deg + 360.0) % 360.0
}

/// Point reached by travelling `distance_km` from `start` along `bearing_deg`.
pub fn destination(start: GeoPoint, bearing_deg: f64, distance_km: f64) -> GeoPoint {
    let delta = distance_km / EARTH_RADIUS_KM;
    let theta = bearing_deg.to_radians();
    let lat1 = start.lat_rad();
    let lon1 = start.lon_rad();

    let lat2 = (lat1.sin() * delta.cos() + lat1.cos() * delta.sin() * theta.cos()).asin();
    let lon2 = lon1
        + (theta.sin() * delta.sin() * lat1.cos()).atan2(delta.cos() - lat1.sin() * lat2.sin());

    // Normalise longitude into [-180, 180].
    let lon_deg = ((lon2.to_degrees() + 540.0) % 360.0) - 180.0;
    GeoPoint::new(lat2.to_degrees().clamp(-90.0, 90.0), lon_deg)
}

/// Intermediate point at fraction `f ∈ [0, 1]` of the great circle from `a`
/// to `b` (spherical linear interpolation).
pub fn intermediate(a: GeoPoint, b: GeoPoint, f: f64) -> GeoPoint {
    assert!((0.0..=1.0).contains(&f), "fraction must be in [0, 1]");
    let delta = central_angle_rad(a, b);
    if delta < 1e-12 {
        return a;
    }
    let sin_delta = delta.sin();
    let wa = ((1.0 - f) * delta).sin() / sin_delta;
    let wb = (f * delta).sin() / sin_delta;

    let va = a.to_unit_vector();
    let vb = b.to_unit_vector();
    GeoPoint::from_unit_vector([
        wa * va[0] + wb * vb[0],
        wa * va[1] + wb * vb[1],
        wa * va[2] + wb * vb[2],
    ])
}

/// Sample the great-circle path from `a` to `b` at `n_samples` evenly spaced
/// points **including both endpoints**. Panics if `n_samples < 2`.
///
/// This is the sampling pattern used for terrain profiles in line-of-sight
/// checks: an elevation is looked up at each returned point.
pub fn sample_path(a: GeoPoint, b: GeoPoint, n_samples: usize) -> Vec<GeoPoint> {
    assert!(n_samples >= 2, "need at least the two endpoints");
    (0..n_samples)
        .map(|i| intermediate(a, b, i as f64 / (n_samples - 1) as f64))
        .collect()
}

/// Repeated-slerp sampler for one `a` → `b` great-circle path.
///
/// [`intermediate`] recomputes the central angle, its sine, and both unit
/// vectors on every call — seven trig evaluations that are constant across a
/// path. `PathSampler` hoists them once, making per-sample cost two sines
/// plus the vector blend. [`point_at`](PathSampler::point_at) evaluates the
/// *same expressions in the same order* as `intermediate`, so the returned
/// points are bit-identical — the hop-feasibility sweep relies on that to
/// keep line-of-sight verdicts unchanged.
#[derive(Debug, Clone, Copy)]
pub struct PathSampler {
    a: GeoPoint,
    delta: f64,
    sin_delta: f64,
    va: [f64; 3],
    vb: [f64; 3],
}

impl PathSampler {
    /// Precompute the path constants for `a` → `b`.
    pub fn new(a: GeoPoint, b: GeoPoint) -> Self {
        let delta = central_angle_rad(a, b);
        Self {
            a,
            delta,
            sin_delta: delta.sin(),
            va: a.to_unit_vector(),
            vb: b.to_unit_vector(),
        }
    }

    /// Point at fraction `f ∈ [0, 1]` of the path; bit-identical to
    /// `intermediate(a, b, f)`.
    pub fn point_at(&self, f: f64) -> GeoPoint {
        assert!((0.0..=1.0).contains(&f), "fraction must be in [0, 1]");
        if self.delta < 1e-12 {
            return self.a;
        }
        let wa = ((1.0 - f) * self.delta).sin() / self.sin_delta;
        let wb = (f * self.delta).sin() / self.sin_delta;
        GeoPoint::from_unit_vector([
            wa * self.va[0] + wb * self.vb[0],
            wa * self.va[1] + wb * self.vb[1],
            wa * self.va[2] + wb * self.vb[2],
        ])
    }
}

/// A point with the trigonometry [`distance_km`] needs of it cached.
///
/// `distance_km` converts both points to radians and takes the cosine of
/// both latitudes on every call — six operations that are constant per
/// point. `TrigPoint` hoists them, leaving two sines, a square root and an
/// arcsine per distance. [`distance_km`](TrigPoint::distance_km) evaluates
/// the *same expressions in the same order* as the free function, so the
/// distances are bit-identical — the storm-failure sweep relies on that to
/// keep rain sums, and therefore failure sets, unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrigPoint {
    lat_rad: f64,
    lon_rad: f64,
    cos_lat: f64,
}

impl TrigPoint {
    /// Cache the radians and latitude cosine of `p`.
    pub fn new(p: GeoPoint) -> Self {
        let lat_rad = p.lat_rad();
        Self {
            lat_rad,
            lon_rad: p.lon_rad(),
            cos_lat: lat_rad.cos(),
        }
    }

    /// Great-circle distance from `self` to `other`, in kilometres;
    /// bit-identical to `distance_km(a, b)` of the points they were built
    /// from.
    pub fn distance_km(&self, other: &TrigPoint) -> f64 {
        let dlat = other.lat_rad - self.lat_rad;
        let dlon = other.lon_rad - self.lon_rad;

        let s =
            (dlat / 2.0).sin().powi(2) + self.cos_lat * other.cos_lat * (dlon / 2.0).sin().powi(2);
        let c = 2.0 * s.sqrt().clamp(0.0, 1.0).asin();
        EARTH_RADIUS_KM * c
    }
}

/// Cross-track distance (in km, absolute value) of point `p` from the great
/// circle through `a` → `b`.
///
/// Used when assessing how far a parallel tower series may stray from the
/// geodesic (§3.3's "10 km divergence adds 0.2 %" argument).
pub fn cross_track_distance_km(a: GeoPoint, b: GeoPoint, p: GeoPoint) -> f64 {
    let delta13 = central_angle_rad(a, p);
    let theta13 = initial_bearing_deg(a, p).to_radians();
    let theta12 = initial_bearing_deg(a, b).to_radians();
    (delta13.sin() * (theta13 - theta12).sin()).asin().abs() * EARTH_RADIUS_KM
}

/// Total length, in km, of a polyline of points (sum of consecutive
/// great-circle segment lengths). Returns 0 for fewer than two points.
pub fn path_length_km(points: &[GeoPoint]) -> f64 {
    points.windows(2).map(|w| distance_km(w[0], w[1])).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nyc() -> GeoPoint {
        GeoPoint::new(40.7128, -74.0060)
    }
    fn chicago() -> GeoPoint {
        GeoPoint::new(41.8781, -87.6298)
    }
    fn la() -> GeoPoint {
        GeoPoint::new(34.0522, -118.2437)
    }

    #[test]
    fn known_distances() {
        // Reference values from standard great-circle calculators (±0.5 %).
        let d_nyc_chi = distance_km(nyc(), chicago());
        assert!((d_nyc_chi - 1145.0).abs() < 10.0, "NYC-CHI = {d_nyc_chi}");

        let d_nyc_la = distance_km(nyc(), la());
        assert!((d_nyc_la - 3936.0).abs() < 25.0, "NYC-LA = {d_nyc_la}");
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_diagonal() {
        let d1 = distance_km(nyc(), la());
        let d2 = distance_km(la(), nyc());
        assert!((d1 - d2).abs() < 1e-9);
        assert!(distance_km(nyc(), nyc()) < 1e-9);
    }

    #[test]
    fn triangle_inequality_holds() {
        let ab = distance_km(nyc(), chicago());
        let bc = distance_km(chicago(), la());
        let ac = distance_km(nyc(), la());
        assert!(ac <= ab + bc + 1e-6);
    }

    #[test]
    fn destination_roundtrips_distance_and_bearing() {
        let start = chicago();
        let bearing = 247.0;
        let dist = 96.0;
        let end = destination(start, bearing, dist);
        assert!((distance_km(start, end) - dist).abs() < 1e-6);
        assert!((initial_bearing_deg(start, end) - bearing).abs() < 1e-3);
    }

    #[test]
    fn intermediate_endpoints_and_midpoint() {
        let a = nyc();
        let b = la();
        let p0 = intermediate(a, b, 0.0);
        let p1 = intermediate(a, b, 1.0);
        assert!(distance_km(a, p0) < 1e-6);
        assert!(distance_km(b, p1) < 1e-6);

        let mid = intermediate(a, b, 0.5);
        let d_am = distance_km(a, mid);
        let d_mb = distance_km(mid, b);
        assert!((d_am - d_mb).abs() < 1e-6);
        assert!((d_am + d_mb - distance_km(a, b)).abs() < 1e-6);
    }

    #[test]
    fn sample_path_lengths_sum_to_total() {
        let pts = sample_path(nyc(), la(), 50);
        assert_eq!(pts.len(), 50);
        let total = path_length_km(&pts);
        assert!((total - distance_km(nyc(), la())).abs() < 1e-6);
    }

    #[test]
    fn path_sampler_is_bit_identical_to_intermediate() {
        for (a, b) in [(nyc(), la()), (nyc(), chicago()), (chicago(), la())] {
            let sampler = PathSampler::new(a, b);
            for i in 0..=160u32 {
                let f = i as f64 / 160.0;
                let p = sampler.point_at(f);
                let q = intermediate(a, b, f);
                assert!(p.lat_deg == q.lat_deg && p.lon_deg == q.lon_deg, "f = {f}");
            }
        }
        // Degenerate (coincident endpoints) path takes the early return.
        let s = PathSampler::new(nyc(), nyc());
        let p = s.point_at(0.5);
        assert!(p.lat_deg == nyc().lat_deg && p.lon_deg == nyc().lon_deg);
    }

    #[test]
    fn trig_point_distance_is_bit_identical_to_distance_km() {
        let pole = GeoPoint::new(90.0, 0.0);
        let antipode = GeoPoint::new(-40.7128, 105.994);
        let points = [nyc(), chicago(), la(), pole, antipode];
        for &a in &points {
            for &b in &points {
                let cached = TrigPoint::new(a).distance_km(&TrigPoint::new(b));
                assert_eq!(cached.to_bits(), distance_km(a, b).to_bits(), "{a} → {b}");
            }
        }
    }

    #[test]
    fn cross_track_of_on_path_point_is_zero() {
        let mid = intermediate(nyc(), la(), 0.3);
        let xt = cross_track_distance_km(nyc(), la(), mid);
        assert!(xt < 1e-6, "cross-track was {xt}");
    }

    #[test]
    fn cross_track_detects_offsets() {
        // A point ~100 km north of the midpoint of a mostly east-west path.
        let mid = intermediate(nyc(), la(), 0.5);
        let off = destination(mid, 0.0, 100.0);
        let xt = cross_track_distance_km(nyc(), la(), off);
        assert!((xt - 100.0).abs() < 5.0, "cross-track was {xt}");
    }

    #[test]
    fn small_divergence_small_stretch() {
        // §3.3: a 10 km mid-point divergence on a 500 km link inflates the
        // path by ~0.2 % or less.
        let a = GeoPoint::new(40.0, -100.0);
        let b = destination(a, 90.0, 500.0);
        let mid = intermediate(a, b, 0.5);
        let detour_mid = destination(mid, 0.0, 10.0);
        let detour_len = distance_km(a, detour_mid) + distance_km(detour_mid, b);
        let stretch = detour_len / distance_km(a, b);
        assert!(stretch < 1.002, "stretch was {stretch}");
    }

    #[test]
    fn path_length_of_degenerate_inputs() {
        assert_eq!(path_length_km(&[]), 0.0);
        assert_eq!(path_length_km(&[nyc()]), 0.0);
    }
}
