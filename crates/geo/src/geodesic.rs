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
pub(crate) fn central_angle_rad(a: GeoPoint, b: GeoPoint) -> f64 {
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
        Self::from_parts(a, distance_km(a, b), a.to_unit_vector(), b.to_unit_vector())
    }

    /// [`Self::new`] from constants the caller already holds: `distance_km`
    /// must be `distance_km(a, b)` (or [`TrigPoint::distance_km`] of the two
    /// points) and `va`, `vb` the points' [`GeoPoint::to_unit_vector`]s. A
    /// sweep over many paths between a fixed set of points computes each
    /// point's vector once and reuses the distance it has already measured;
    /// the sampler is then the one `new` builds, bit for bit.
    pub fn from_parts(a: GeoPoint, distance_km: f64, va: [f64; 3], vb: [f64; 3]) -> Self {
        let delta = distance_km / EARTH_RADIUS_KM;
        Self {
            a,
            delta,
            sin_delta: delta.sin(),
            va,
            vb,
        }
    }

    /// Point at fraction `f ∈ [0, 1]` of the path; bit-identical to
    /// `intermediate(a, b, f)`.
    pub fn point_at(&self, f: f64) -> GeoPoint {
        assert!((0.0..=1.0).contains(&f), "fraction must be in [0, 1]");
        if self.delta < 1e-12 {
            return self.a;
        }
        GeoPoint::from_unit_vector(self.blend(f))
    }

    /// The slerp blend `point_at` normalises: the unit vector of the point at
    /// fraction `f`, to within rounding.
    fn blend(&self, f: f64) -> [f64; 3] {
        let wa = ((1.0 - f) * self.delta).sin() / self.sin_delta;
        let wb = (f * self.delta).sin() / self.sin_delta;
        [
            wa * self.va[0] + wb * self.vb[0],
            wa * self.va[1] + wb * self.vb[1],
            wa * self.va[2] + wb * self.vb[2],
        ]
    }

    /// A walk along the path that starts at fraction `f` and moves by `step`
    /// (a signed fraction of the path) each time it is stepped; see
    /// [`GreatCircleWalk`].
    pub fn walk(&self, f: f64, step: f64) -> GreatCircleWalk {
        assert!((0.0..=1.0).contains(&f), "fraction must be in [0, 1]");
        if self.delta < 1e-12 {
            return GreatCircleWalk {
                v: self.va,
                t: [0.0; 3],
                cos: 1.0,
                sin: 0.0,
            };
        }
        let [ax, ay, az] = self.va;
        let [bx, by, bz] = self.vb;
        let normal = [ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx];
        let norm = (normal[0] * normal[0] + normal[1] * normal[1] + normal[2] * normal[2]).sqrt();
        let [nx, ny, nz] = normal.map(|c| c / norm);
        let v = self.blend(f);
        let theta = step * self.delta;
        GreatCircleWalk {
            v,
            t: [
                ny * v[2] - nz * v[1],
                nz * v[0] - nx * v[2],
                nx * v[1] - ny * v[0],
            ],
            cos: theta.cos(),
            sin: theta.sin(),
        }
    }
}

/// Equally spaced points of one great circle, by a fixed rotation per step
/// and no trigonometry.
///
/// The walk keeps a point `v` and the tangent `t = n × v` (`n` the circle's
/// unit normal), and a step by the angle `θ` is `v' = v·cosθ + t·sinθ`,
/// `t' = t·cosθ − v·sinθ`: twelve multiplications and six additions. It
/// starts from the exact slerp vector, so after `k` steps it is off the
/// point [`PathSampler::point_at`] computes by `k` steps' rounding (each
/// ≈ 1e-16 of the unit vector, plus the ≈ 1e-16 by which `cos²θ + sin²θ`
/// misses 1). Its vectors are therefore unit only to within that drift;
/// callers that need a point bit for bit use `point_at`.
#[derive(Debug, Clone, Copy)]
pub struct GreatCircleWalk {
    v: [f64; 3],
    t: [f64; 3],
    cos: f64,
    sin: f64,
}

impl GreatCircleWalk {
    /// The current point, as an (almost) unit vector.
    pub fn position(&self) -> [f64; 3] {
        self.v
    }

    /// Move one step along the circle.
    pub fn step(&mut self) {
        let (c, s) = (self.cos, self.sin);
        let [vx, vy, vz] = self.v;
        let [tx, ty, tz] = self.t;
        self.v = [vx * c + tx * s, vy * c + ty * s, vz * c + tz * s];
        self.t = [tx * c - vx * s, ty * c - vy * s, tz * c - vz * s];
    }
}

/// A point with the trigonometry [`distance_km`] and
/// [`initial_bearing_deg`] need of it cached.
///
/// `distance_km` converts both points to radians and takes the cosine of
/// both latitudes on every call, and `initial_bearing_deg` both latitudes'
/// sines and cosines — operations that are constant per point. `TrigPoint`
/// hoists them, leaving two sines, a square root and an arcsine per
/// distance. [`distance_km`](TrigPoint::distance_km),
/// [`initial_bearing_deg`](TrigPoint::initial_bearing_deg) and
/// [`unit_vector`](TrigPoint::unit_vector) evaluate the *same expressions in
/// the same order* as the free functions and [`GeoPoint::to_unit_vector`],
/// so their results are bit-identical — the storm-failure sweep relies on
/// that to keep rain sums, and therefore failure sets, unchanged, and the
/// hop sweep to keep its verdicts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrigPoint {
    lat_rad: f64,
    lon_rad: f64,
    cos_lat: f64,
    sin_lat: f64,
}

impl TrigPoint {
    /// Cache the radians and latitude cosine and sine of `p`.
    pub fn new(p: GeoPoint) -> Self {
        let lat_rad = p.lat_rad();
        Self {
            lat_rad,
            lon_rad: p.lon_rad(),
            cos_lat: lat_rad.cos(),
            sin_lat: lat_rad.sin(),
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

    /// Initial bearing from `self` to `other`, in degrees; bit-identical to
    /// `initial_bearing_deg(a, b)` of the points they were built from.
    pub fn initial_bearing_deg(&self, other: &TrigPoint) -> f64 {
        let dlon = other.lon_rad - self.lon_rad;
        let y = dlon.sin() * other.cos_lat;
        let x = self.cos_lat * other.sin_lat - self.sin_lat * other.cos_lat * dlon.cos();
        let deg = y.atan2(x).to_degrees();
        (deg + 360.0) % 360.0
    }

    /// The point's unit vector; bit-identical to
    /// [`GeoPoint::to_unit_vector`].
    pub fn unit_vector(&self) -> [f64; 3] {
        let lon = self.lon_rad;
        [
            self.cos_lat * lon.cos(),
            self.cos_lat * lon.sin(),
            self.sin_lat,
        ]
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
        let total: f64 = pts.windows(2).map(|w| distance_km(w[0], w[1])).sum();
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
    fn walk_stays_on_the_sampled_points() {
        // Both directions, from the middle of a 160-sample path, 79 steps.
        let (a, b) = (
            GeoPoint::new(61.5, -150.0),
            destination(GeoPoint::new(61.5, -150.0), 37.0, 99.0),
        );
        let sampler = PathSampler::new(a, b);
        let denom = 159.0;
        for dir in [-1.0, 1.0] {
            let mut walk = sampler.walk(80.0 / denom, dir / denom);
            for k in 0..=79 {
                let f = (80.0 + dir * k as f64) / denom;
                let v = walk.position();
                let exact = sampler.point_at(f).to_unit_vector();
                let drift = (0..3).map(|c| (v[c] - exact[c]).abs()).fold(0.0, f64::max);
                assert!(drift < 1e-14, "drift {drift} after {k} steps");
                walk.step();
            }
        }
        // A degenerate path stands still.
        let mut walk = PathSampler::new(a, a).walk(0.5, 0.1);
        walk.step();
        assert_eq!(walk.position(), a.to_unit_vector());
    }

    #[test]
    fn trig_point_distance_is_bit_identical_to_distance_km() {
        // The bearing and the unit vector too.
        let pole = GeoPoint::new(90.0, 0.0);
        let antipode = GeoPoint::new(-40.7128, 105.994);
        let dateline = GeoPoint::new(-12.5, 180.0);
        let points = [nyc(), chicago(), la(), pole, antipode, dateline];
        for &a in &points {
            let ta = TrigPoint::new(a);
            let vector = ta.unit_vector().map(f64::to_bits);
            assert_eq!(vector, a.to_unit_vector().map(f64::to_bits), "{a}");
            for &b in &points {
                let tb = TrigPoint::new(b);
                let cached = ta.distance_km(&tb);
                assert_eq!(cached.to_bits(), distance_km(a, b).to_bits(), "{a} → {b}");
                let bearing = ta.initial_bearing_deg(&tb);
                assert_eq!(
                    bearing.to_bits(),
                    initial_bearing_deg(a, b).to_bits(),
                    "{a} → {b}"
                );
            }
        }
    }

    #[test]
    fn path_sampler_from_parts_is_the_sampler_new_builds() {
        let short = destination(chicago(), 80.0, 0.05);
        for (a, b) in [
            (nyc(), la()),
            (chicago(), short),
            (nyc(), nyc()),
            (la(), nyc()),
        ] {
            let d = TrigPoint::new(a).distance_km(&TrigPoint::new(b));
            let parts = PathSampler::from_parts(a, d, a.to_unit_vector(), b.to_unit_vector());
            let new = PathSampler::new(a, b);
            assert_eq!(parts.delta.to_bits(), new.delta.to_bits());
            assert_eq!(parts.sin_delta.to_bits(), new.sin_delta.to_bits());
            assert_eq!((parts.va, parts.vb), (new.va, new.vb));
            for i in 0..=64u32 {
                let f = i as f64 / 64.0;
                let (p, q) = (parts.point_at(f), new.point_at(f));
                assert!(p.lat_deg.to_bits() == q.lat_deg.to_bits(), "f = {f}");
                assert!(p.lon_deg.to_bits() == q.lon_deg.to_bits(), "f = {f}");
                assert_eq!(
                    parts.walk(f, 1.0 / 64.0).position(),
                    new.walk(f, 1.0 / 64.0).position()
                );
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
}
