//! The continental elevation model.
//!
//! A [`TerrainModel`] is a pure function from a [`GeoPoint`] to an elevation
//! in metres above sea level. It is composed of:
//!
//! * a base field: low-amplitude fBm "rolling terrain" on top of a regional
//!   baseline that rises gently towards the continental interior,
//! * a set of [`MountainRange`]s: great-circle ridge segments with a Gaussian
//!   cross-section and a ridged-noise crest, and
//! * water masking is *not* modelled — the paper's own hop-feasibility example
//!   (the 96 km hop across Lake Michigan) shows over-water hops are viable, so
//!   water behaves like flat terrain at elevation ~0.
//!
//! The built-in [`TerrainModel::united_states`] and [`TerrainModel::europe`]
//! configurations place the major ranges at their true locations so that the
//! designed networks detour where the paper's do.

use cisp_geo::units::EARTH_RADIUS_KM;
use cisp_geo::{geodesic, GeoPoint};
use serde::{Deserialize, Serialize};

use crate::envelope::LatLonRect;
use crate::noise::{fbm, fbm_range, ridged, ridged_max, FbmParams};

/// Octave schedule of the ridged crest-noise field.
const CREST_PARAMS: FbmParams = FbmParams {
    octaves: 4,
    base_frequency: 2.5,
    lacunarity: 2.0,
    gain: 0.55,
};

/// Decorrelates the crest-noise field from the rolling-terrain field.
const CREST_SEED_MASK: u64 = 0xA11C_E5ED;

/// Safety margin, in km, added to the per-range chord skip bound so that
/// floating-point rounding in the chord length can never skip a range whose
/// Gaussian contribution would have been non-zero. The bound itself is exact
/// mathematics (see [`RangeAxis::skip_beyond_km`]); the margin only has to
/// cover ULP-level error, so 1 km is vast.
const SKIP_MARGIN_KM: f64 = 1.0;

/// Precomputed axis geometry of one [`MountainRange`].
///
/// `distance_to_axis_km` recomputes the axis length, the axis bearing, and
/// two haversines per query even though the axis never moves. The elevation
/// hot path (hop-feasibility sampling evaluates the terrain at millions of
/// points) caches the per-axis constants here, plus a conservative reject
/// radius that skips the whole range with one dot product.
#[derive(Debug, Clone)]
struct RangeAxis {
    /// Axis length `d(start, end)` in km.
    total_km: f64,
    /// Initial bearing of the axis at `start`, degrees.
    bearing_axis_deg: f64,
    /// Unit vector of `start` (for the chord lower bound).
    start_unit: [f64; 3],
    /// Axis shorter than 1 mm: the range degenerates to a point.
    degenerate: bool,
    /// Skip the range outright when the chord lower bound on `d(p, start)`
    /// exceeds this. Since the chord is a lower bound on the great-circle
    /// distance, `chord > total + 4σ + margin` implies the distance to every
    /// axis point exceeds `4σ`, where the Gaussian contribution is defined
    /// to be exactly `0.0` — so skipping is bit-identical.
    skip_beyond_km: f64,
}

/// A mountain range modelled as a ridge line with Gaussian cross-section.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MountainRange {
    /// Human-readable name (for diagnostics only).
    pub name: String,
    /// One end of the ridge axis.
    pub start: GeoPoint,
    /// Other end of the ridge axis.
    pub end: GeoPoint,
    /// Peak crest height added above the base terrain, in metres.
    pub peak_m: f64,
    /// Half-width of the range, in kilometres (Gaussian sigma).
    pub half_width_km: f64,
}

impl MountainRange {
    /// Convenience constructor.
    pub fn new(
        name: &str,
        start: GeoPoint,
        end: GeoPoint,
        peak_m: f64,
        half_width_km: f64,
    ) -> Self {
        assert!(peak_m > 0.0 && half_width_km > 0.0);
        Self {
            name: name.to_string(),
            start,
            end,
            peak_m,
            half_width_km,
        }
    }

    /// Shortest distance from `p` to the ridge axis segment, in kilometres.
    fn distance_to_axis_km(&self, p: GeoPoint) -> f64 {
        let total = geodesic::distance_km(self.start, self.end);
        if total < 1e-9 {
            return geodesic::distance_km(self.start, p);
        }
        // Along-track projection of p onto the axis.
        let d_sp = geodesic::distance_km(self.start, p);
        let xt = geodesic::cross_track_distance_km(self.start, self.end, p);
        // Along-track distance via the spherical right-triangle relation; for
        // the continental scales involved the planar approximation is fine.
        let at = (d_sp * d_sp - xt * xt).max(0.0).sqrt();
        // Is p "before" the start? Compare bearings.
        let bearing_axis = geodesic::initial_bearing_deg(self.start, self.end);
        let bearing_p = geodesic::initial_bearing_deg(self.start, p);
        let mut diff = (bearing_axis - bearing_p).abs();
        if diff > 180.0 {
            diff = 360.0 - diff;
        }
        let at_signed = if diff > 90.0 { -at } else { at };

        if at_signed < 0.0 {
            geodesic::distance_km(self.start, p)
        } else if at_signed > total {
            geodesic::distance_km(self.end, p)
        } else {
            xt
        }
    }

    /// Ridge height contribution at `p`, before crest noise, in metres.
    fn contribution_m(&self, p: GeoPoint) -> f64 {
        let d = self.distance_to_axis_km(p);
        // Ignore anything beyond 4 sigma: negligible and saves work.
        if d > 4.0 * self.half_width_km {
            return 0.0;
        }
        let x = d / self.half_width_km;
        self.peak_m * (-0.5 * x * x).exp()
    }

    /// Lower bound on [`Self::distance_to_axis_km`] — the value the model
    /// computes, planar along-track test included — over every point within
    /// `radius_km` of `center`.
    ///
    /// The model returns one of three great-circle quantities: `d_sp`
    /// (distance to the start), `d_ep` (to the end) or the cross-track
    /// distance `xt` to the axis' great circle, and each is 1-Lipschitz in
    /// the point, so its value at `center` minus the radius bounds it from
    /// below over the disc. Which one applies:
    ///
    /// * **Any branch is `>= xt`**: the start and the end both lie on the
    ///   great circle `xt` is measured to. So `xt(center) - radius` always
    ///   holds.
    /// * **Any branch is `>= d_sp - total`**: `d_ep >= d_sp - total` is the
    ///   triangle inequality, and the `xt` branch is only taken when the
    ///   planar along-track `at = sqrt(d_sp² - xt²)` is `<= total`, i.e.
    ///   `xt² >= d_sp² - total² >= (d_sp - total)²`. One haversine, and
    ///   enough to dismiss a far-away range.
    /// * **The `xt` branch is impossible** when `at > total` for the whole
    ///   disc (`at >= sqrt((d_sp - r)² - (xt + r)²)`): the model then
    ///   returns `d_sp` or `d_ep`, so the smaller of their lower bounds
    ///   holds. This is the cap beyond the axis' far end.
    /// * **Only `d_sp` (or an `xt` equal to it) is possible** when the
    ///   angle at the start between the axis and the point is obtuse for the
    ///   whole disc. By the spherical law of cosines that angle is obtuse
    ///   iff `cos d_ep < cos d_sp · cos total` (central angles); the test
    ///   uses the disc's extreme `d_ep`, `d_sp` and a margin that dwarfs the
    ///   rounding of the model's bearing comparison. This is the cap behind
    ///   the start.
    ///
    /// Without the two caps every range would cast its full height along the
    /// whole great circle through its axis.
    fn axis_distance_lower_bound_km(&self, center: GeoPoint, radius_km: f64) -> f64 {
        // Covers rounding in the distances below (~1e-12 km) with room.
        const SLACK_KM: f64 = 1e-6;
        const OBTUSE_MARGIN: f64 = 1e-9;
        let r = radius_km + SLACK_KM;
        let total = geodesic::distance_km(self.start, self.end);
        let d_start = geodesic::distance_km(self.start, center);
        let start_lo = d_start - r;
        if total < 1e-9 {
            return start_lo;
        }
        let far = start_lo - total;
        if far > 4.0 * self.half_width_km {
            return far;
        }
        let d_end = geodesic::distance_km(self.end, center);
        let xt = geodesic::cross_track_distance_km(self.start, self.end, center);
        let end_lo = d_end - r;
        let xt_hi = xt + r;
        let mut bound = far.max(xt - r);
        if start_lo > xt_hi && (start_lo * start_lo - xt_hi * xt_hi).sqrt() > total + SLACK_KM {
            bound = bound.max(start_lo.min(end_lo));
        }
        let angle = |km: f64| km / EARTH_RADIUS_KM;
        let total_cos = angle(total).cos();
        if total_cos > 0.0
            && angle(d_start + r) <= std::f64::consts::PI
            && angle(end_lo.max(0.0)).cos() < angle(d_start + r).cos() * total_cos - OBTUSE_MARGIN
        {
            bound = bound.max(start_lo);
        }
        bound
    }

    /// Upper bound on [`Self::contribution_m`] over every point within
    /// `radius_km` of `center`: the Gaussian is decreasing in the axis
    /// distance, so it is evaluated at that distance's lower bound.
    fn max_contribution_m(&self, center: GeoPoint, radius_km: f64) -> f64 {
        let d = self.axis_distance_lower_bound_km(center, radius_km);
        if d > 4.0 * self.half_width_km {
            return 0.0;
        }
        let x = d.max(0.0) / self.half_width_km;
        self.peak_m * (-0.5 * x * x).exp()
    }

    /// Precompute the axis constants reused by every elevation query.
    fn axis(&self) -> RangeAxis {
        let total_km = geodesic::distance_km(self.start, self.end);
        RangeAxis {
            total_km,
            bearing_axis_deg: geodesic::initial_bearing_deg(self.start, self.end),
            start_unit: self.start.to_unit_vector(),
            degenerate: total_km < 1e-9,
            skip_beyond_km: total_km + 4.0 * self.half_width_km + SKIP_MARGIN_KM,
        }
    }

    /// [`Self::distance_to_axis_km`] with the axis constants supplied from a
    /// [`RangeAxis`] cache. Every expression reuses or replays the exact
    /// arithmetic of the uncached version (the cached values are pure
    /// functions of the axis endpoints), so the result is bit-identical —
    /// which the `cached_elevation_matches_reference` test pins.
    fn distance_to_axis_cached_km(&self, axis: &RangeAxis, p: GeoPoint) -> f64 {
        if axis.degenerate {
            return geodesic::distance_km(self.start, p);
        }
        let total = axis.total_km;
        let d_sp = geodesic::distance_km(self.start, p);
        let bearing_p = geodesic::initial_bearing_deg(self.start, p);
        // cross_track_distance_km inlined so its central angle reuses d_sp
        // and its axis bearing comes from the cache: same values, computed
        // once instead of three times.
        let delta13 = d_sp / EARTH_RADIUS_KM;
        let theta13 = bearing_p.to_radians();
        let theta12 = axis.bearing_axis_deg.to_radians();
        let xt = (delta13.sin() * (theta13 - theta12).sin()).asin().abs() * EARTH_RADIUS_KM;
        let at = (d_sp * d_sp - xt * xt).max(0.0).sqrt();
        let mut diff = (axis.bearing_axis_deg - bearing_p).abs();
        if diff > 180.0 {
            diff = 360.0 - diff;
        }
        let at_signed = if diff > 90.0 { -at } else { at };

        if at_signed < 0.0 {
            d_sp
        } else if at_signed > total {
            geodesic::distance_km(self.end, p)
        } else {
            xt
        }
    }

    /// [`Self::contribution_m`] over the cached axis geometry.
    fn contribution_cached_m(&self, axis: &RangeAxis, p: GeoPoint) -> f64 {
        let d = self.distance_to_axis_cached_km(axis, p);
        if d > 4.0 * self.half_width_km {
            return 0.0;
        }
        let x = d / self.half_width_km;
        self.peak_m * (-0.5 * x * x).exp()
    }
}

/// Parameters of the base (non-mountain) terrain field.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BaseTerrainParams {
    /// Mean elevation of the lowlands, metres.
    pub baseline_m: f64,
    /// Amplitude of rolling-terrain noise, metres.
    pub relief_m: f64,
    /// Correlation length of the rolling terrain, in degrees of arc.
    pub correlation_deg: f64,
}

impl Default for BaseTerrainParams {
    fn default() -> Self {
        Self {
            baseline_m: 150.0,
            relief_m: 220.0,
            correlation_deg: 0.8,
        }
    }
}

/// The procedural elevation model. See the module docs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TerrainModel {
    seed: u64,
    base: BaseTerrainParams,
    ranges: Vec<MountainRange>,
    /// Extra crest-noise amplitude as a fraction of the local ridge height.
    crest_noise_fraction: f64,
    /// Per-range axis cache, parallel to `ranges`. Rebuilt by the
    /// constructor; when absent (e.g. a deserialized model) queries fall
    /// back to the uncached path, so the cache is purely a speedup.
    #[serde(skip)]
    axes: Vec<RangeAxis>,
}

impl TerrainModel {
    /// Build a model from explicit parts.
    pub fn new(
        seed: u64,
        base: BaseTerrainParams,
        ranges: Vec<MountainRange>,
        crest_noise_fraction: f64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&crest_noise_fraction));
        let axes = ranges.iter().map(MountainRange::axis).collect();
        Self {
            seed,
            base,
            ranges,
            crest_noise_fraction,
            axes,
        }
    }

    /// Perfectly flat terrain at sea level — useful for tests and for
    /// isolating the pure-geometry behaviour of line-of-sight checks.
    pub fn flat() -> Self {
        Self {
            seed: 0,
            base: BaseTerrainParams {
                baseline_m: 0.0,
                relief_m: 0.0,
                correlation_deg: 1.0,
            },
            ranges: Vec::new(),
            crest_noise_fraction: 0.0,
            axes: Vec::new(),
        }
    }

    /// The contiguous-United-States configuration: Rockies, Sierra Nevada,
    /// Cascades, Appalachians, plus a high-plains uplift towards the west.
    pub fn united_states(seed: u64) -> Self {
        let ranges = vec![
            MountainRange::new(
                "Rocky Mountains (north)",
                GeoPoint::new(48.8, -114.0),
                GeoPoint::new(43.5, -110.0),
                2600.0,
                160.0,
            ),
            MountainRange::new(
                "Rocky Mountains (central)",
                GeoPoint::new(43.5, -110.0),
                GeoPoint::new(38.5, -106.0),
                2900.0,
                170.0,
            ),
            MountainRange::new(
                "Rocky Mountains (south)",
                GeoPoint::new(38.5, -106.0),
                GeoPoint::new(33.5, -105.5),
                2400.0,
                140.0,
            ),
            MountainRange::new(
                "Sierra Nevada",
                GeoPoint::new(40.5, -121.3),
                GeoPoint::new(35.5, -118.0),
                2700.0,
                90.0,
            ),
            MountainRange::new(
                "Cascades",
                GeoPoint::new(48.8, -121.5),
                GeoPoint::new(41.0, -122.0),
                2200.0,
                80.0,
            ),
            MountainRange::new(
                "Wasatch / Great Basin",
                GeoPoint::new(42.0, -112.0),
                GeoPoint::new(37.5, -113.5),
                1900.0,
                150.0,
            ),
            MountainRange::new(
                "Appalachians (north)",
                GeoPoint::new(44.0, -72.5),
                GeoPoint::new(38.5, -79.5),
                900.0,
                110.0,
            ),
            MountainRange::new(
                "Appalachians (south)",
                GeoPoint::new(38.5, -79.5),
                GeoPoint::new(34.5, -84.0),
                1100.0,
                110.0,
            ),
            MountainRange::new(
                "Ozarks",
                GeoPoint::new(37.5, -93.0),
                GeoPoint::new(35.5, -94.0),
                450.0,
                90.0,
            ),
        ];
        Self::new(seed, BaseTerrainParams::default(), ranges, 0.35)
    }

    /// The European configuration: Alps, Pyrenees, Carpathians, Apennines,
    /// Scandinavian mountains, Dinarides.
    pub fn europe(seed: u64) -> Self {
        let ranges = vec![
            MountainRange::new(
                "Alps",
                GeoPoint::new(44.2, 6.8),
                GeoPoint::new(47.5, 14.5),
                3000.0,
                110.0,
            ),
            MountainRange::new(
                "Pyrenees",
                GeoPoint::new(43.3, -1.8),
                GeoPoint::new(42.4, 2.8),
                2300.0,
                60.0,
            ),
            MountainRange::new(
                "Carpathians",
                GeoPoint::new(49.5, 19.5),
                GeoPoint::new(45.5, 25.5),
                1800.0,
                100.0,
            ),
            MountainRange::new(
                "Apennines",
                GeoPoint::new(44.5, 9.5),
                GeoPoint::new(40.0, 16.0),
                1700.0,
                70.0,
            ),
            MountainRange::new(
                "Dinarides",
                GeoPoint::new(46.0, 14.0),
                GeoPoint::new(42.5, 19.5),
                1600.0,
                80.0,
            ),
            MountainRange::new(
                "Scandinavian Mountains",
                GeoPoint::new(62.0, 9.0),
                GeoPoint::new(68.0, 17.0),
                1500.0,
                130.0,
            ),
            MountainRange::new(
                "Massif Central",
                GeoPoint::new(45.8, 2.5),
                GeoPoint::new(44.5, 3.8),
                1200.0,
                90.0,
            ),
        ];
        Self::new(
            seed,
            BaseTerrainParams {
                baseline_m: 120.0,
                relief_m: 200.0,
                correlation_deg: 0.7,
            },
            ranges,
            0.35,
        )
    }

    /// The model's seed (useful for reporting experiment provenance).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured mountain ranges.
    pub fn ranges(&self) -> &[MountainRange] {
        &self.ranges
    }

    /// Ground elevation (metres above sea level) at a point. Always finite
    /// and non-negative.
    pub fn elevation_m(&self, p: GeoPoint) -> f64 {
        let mut elevation = self.base.baseline_m;
        if self.base.relief_m > 0.0 {
            let rolling = fbm(p.lon_deg, p.lat_deg, self.seed, self.rolling_params());
            elevation += self.base.relief_m * rolling;
        }

        if !self.ranges.is_empty() {
            // The crest-noise modulation is the same value for every range
            // at a given point; compute it at most once per query.
            let mut modulation: Option<f64> = None;
            if self.axes.len() == self.ranges.len() {
                let vp = p.to_unit_vector();
                for (range, axis) in self.ranges.iter().zip(&self.axes) {
                    // Chord length is a lower bound on the great-circle
                    // distance to the axis start; beyond the reject radius
                    // the Gaussian is exactly zero, so skipping changes
                    // nothing.
                    let dx = vp[0] - axis.start_unit[0];
                    let dy = vp[1] - axis.start_unit[1];
                    let dz = vp[2] - axis.start_unit[2];
                    let chord_km = EARTH_RADIUS_KM * (dx * dx + dy * dy + dz * dz).sqrt();
                    if chord_km > axis.skip_beyond_km {
                        continue;
                    }
                    let ridge = range.contribution_cached_m(axis, p);
                    if ridge > 0.0 {
                        let m = *modulation.get_or_insert_with(|| self.crest_modulation(p));
                        elevation += ridge * m;
                    }
                }
            } else {
                for range in &self.ranges {
                    let ridge = range.contribution_m(p);
                    if ridge > 0.0 {
                        let m = *modulation.get_or_insert_with(|| self.crest_modulation(p));
                        elevation += ridge * m;
                    }
                }
            }
        }
        elevation.max(0.0)
    }

    /// The ridged crest-noise modulation factor at `p` (a pure function of
    /// the point and seed — identical for every range).
    fn crest_modulation(&self, p: GeoPoint) -> f64 {
        let crest = ridged(
            p.lon_deg,
            p.lat_deg,
            self.seed ^ CREST_SEED_MASK,
            CREST_PARAMS,
        );
        1.0 - self.crest_noise_fraction + self.crest_noise_fraction * crest
    }

    /// Octave schedule of the rolling-terrain field.
    fn rolling_params(&self) -> FbmParams {
        FbmParams {
            octaves: 5,
            base_frequency: 1.0 / self.base.correlation_deg,
            lacunarity: 2.1,
            gain: 0.5,
        }
    }

    /// Whether [`Self::elevation_m`] is the same everywhere (no relief, no
    /// ranges), in which case [`Self::global_max_m`] is that value.
    pub(crate) fn is_constant(&self) -> bool {
        self.base.relief_m <= 0.0 && self.ranges.is_empty()
    }

    /// Upper bound on [`Self::elevation_m`] over the whole Earth: full
    /// relief plus every range at its peak with an unattenuated crest.
    pub(crate) fn global_max_m(&self) -> f64 {
        let peaks: f64 = self.ranges.iter().map(|range| range.peak_m).sum();
        (self.base.baseline_m + self.base.relief_m.max(0.0) + peaks).max(0.0)
    }

    /// Upper bound on [`Self::elevation_m`] over `rect`: the terms of
    /// `elevation_m`, each at its maximum over the rectangle (see
    /// [`crate::envelope`] for why each maximum holds). The crest
    /// modulation multiplies non-negative ridge heights, so the sum of
    /// ridge maxima times the modulation maximum bounds the ridge total.
    pub(crate) fn max_in(&self, rect: &LatLonRect) -> f64 {
        let mut bound = self.base.baseline_m;
        if self.base.relief_m > 0.0 {
            let (_, rolling_hi) = fbm_range(rect.lon, rect.lat, self.seed, self.rolling_params());
            bound += self.base.relief_m * rolling_hi;
        }
        if !self.ranges.is_empty() {
            let (center, radius_km) = rect.bounding_disc();
            let ridges: f64 = self
                .ranges
                .iter()
                .map(|range| range.max_contribution_m(center, radius_km))
                .sum();
            if ridges > 0.0 {
                let crest_hi = ridged_max(
                    rect.lon,
                    rect.lat,
                    self.seed ^ CREST_SEED_MASK,
                    CREST_PARAMS,
                );
                bound += ridges
                    * (1.0 - self.crest_noise_fraction + self.crest_noise_fraction * crest_hi);
            }
        }
        bound.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_terrain_is_zero_everywhere() {
        let t = TerrainModel::flat();
        for &(lat, lon) in &[(40.0, -100.0), (35.0, -80.0), (47.0, 8.0)] {
            assert_eq!(t.elevation_m(GeoPoint::new(lat, lon)), 0.0);
        }
    }

    #[test]
    fn us_model_is_deterministic_per_seed() {
        let t1 = TerrainModel::united_states(7);
        let t2 = TerrainModel::united_states(7);
        let t3 = TerrainModel::united_states(8);
        let p = GeoPoint::new(39.0, -105.0);
        assert_eq!(t1.elevation_m(p), t2.elevation_m(p));
        assert_ne!(t1.elevation_m(p), t3.elevation_m(p));
    }

    #[test]
    fn rockies_are_high_great_plains_are_not() {
        let t = TerrainModel::united_states(42);
        let rockies = t.elevation_m(GeoPoint::new(39.5, -106.0));
        let kansas = t.elevation_m(GeoPoint::new(38.5, -98.0));
        let florida = t.elevation_m(GeoPoint::new(28.5, -81.5));
        assert!(rockies > 1800.0, "Rockies = {rockies}");
        assert!(kansas < 800.0, "Kansas = {kansas}");
        assert!(florida < 800.0, "Florida = {florida}");
        assert!(rockies > kansas + 1000.0);
    }

    #[test]
    fn appalachians_are_moderate() {
        let t = TerrainModel::united_states(42);
        let appalachia = t.elevation_m(GeoPoint::new(37.0, -81.5));
        assert!(
            appalachia > 400.0 && appalachia < 2000.0,
            "Appalachia = {appalachia}"
        );
    }

    #[test]
    fn alps_dominate_european_lowlands() {
        let t = TerrainModel::europe(42);
        let alps = t.elevation_m(GeoPoint::new(46.5, 10.5));
        let netherlands = t.elevation_m(GeoPoint::new(52.2, 5.3));
        assert!(alps > 1800.0, "Alps = {alps}");
        assert!(netherlands < 700.0, "NL = {netherlands}");
    }

    #[test]
    fn elevation_is_nonnegative_and_finite_everywhere() {
        let t = TerrainModel::united_states(3);
        for i in 0..40 {
            for j in 0..40 {
                let lat = 25.0 + i as f64 * 0.6;
                let lon = -124.0 + j as f64 * 1.4;
                let e = t.elevation_m(GeoPoint::new(lat, lon));
                assert!(
                    e.is_finite() && e >= 0.0,
                    "bad elevation {e} at {lat},{lon}"
                );
            }
        }
    }

    #[test]
    fn elevation_is_spatially_continuous() {
        let t = TerrainModel::united_states(5);
        // 100 m steps must not produce cliffs of more than a few metres of
        // noise plus the mountain gradient (generous bound: 50 m).
        let base = GeoPoint::new(39.7, -105.2);
        let mut prev = t.elevation_m(base);
        for i in 1..50 {
            let p = GeoPoint::new(39.7, -105.2 + i as f64 * 0.001);
            let e = t.elevation_m(p);
            assert!((e - prev).abs() < 50.0, "cliff of {} m", (e - prev).abs());
            prev = e;
        }
    }

    #[test]
    fn mountain_range_distance_handles_off_axis_points() {
        let range = MountainRange::new(
            "test",
            GeoPoint::new(40.0, -110.0),
            GeoPoint::new(40.0, -105.0),
            2000.0,
            100.0,
        );
        // A point past the east end is measured to the endpoint, not the
        // infinite great circle.
        let east = GeoPoint::new(40.0, -100.0);
        let d = range.distance_to_axis_km(east);
        let expected = geodesic::distance_km(GeoPoint::new(40.0, -105.0), east);
        assert!((d - expected).abs() < 1.0, "d = {d}, expected {expected}");

        // A point near the middle of the axis is close to it (the great
        // circle between two points at latitude 40° arcs slightly north of
        // the parallel, hence the ~10 km tolerance) and gets essentially the
        // full ridge contribution.
        let on_axis = GeoPoint::new(40.0, -107.5);
        assert!(range.distance_to_axis_km(on_axis) < 15.0);
        assert!(range.contribution_m(on_axis) > 1900.0);

        // Far away contributes nothing.
        assert_eq!(range.contribution_m(GeoPoint::new(30.0, -85.0)), 0.0);
    }

    // The cached-axis fast path (chord skip + reused haversine/bearing) must
    // be bit-identical to a reference evaluation built from the uncached
    // `contribution_m`, across points near, on, beyond, and far from every
    // range — any drift here would silently change hop feasibility.
    #[test]
    fn cached_elevation_matches_reference() {
        for t in [TerrainModel::united_states(42), TerrainModel::europe(7)] {
            let reference = |p: GeoPoint| {
                let mut elevation = t.base.baseline_m;
                if t.base.relief_m > 0.0 {
                    let params = FbmParams {
                        octaves: 5,
                        base_frequency: 1.0 / t.base.correlation_deg,
                        lacunarity: 2.1,
                        gain: 0.5,
                    };
                    elevation += t.base.relief_m * fbm(p.lon_deg, p.lat_deg, t.seed, params);
                }
                for range in &t.ranges {
                    let ridge = range.contribution_m(p);
                    if ridge > 0.0 {
                        elevation += ridge * t.crest_modulation(p);
                    }
                }
                elevation.max(0.0)
            };
            for i in 0..30 {
                for j in 0..30 {
                    let lat = 25.0 + i as f64 * 1.5;
                    let lon = -125.0 + j as f64 * 5.0;
                    let p = GeoPoint::new(lat, lon);
                    let fast = t.elevation_m(p);
                    let slow = reference(p);
                    assert!(fast == slow, "divergence at {lat},{lon}: {fast} vs {slow}");
                }
            }
            // Per-range parity of the cached distance itself.
            for (range, axis) in t.ranges.iter().zip(&t.axes) {
                for k in 0..20 {
                    let p = GeoPoint::new(28.0 + k as f64, -120.0 + k as f64 * 4.0);
                    assert!(
                        range.distance_to_axis_cached_km(axis, p) == range.distance_to_axis_km(p),
                        "axis distance diverged for {} at point {k}",
                        range.name
                    );
                }
            }
        }
    }

    #[test]
    fn contribution_decays_with_distance() {
        let range = MountainRange::new(
            "test",
            GeoPoint::new(40.0, -110.0),
            GeoPoint::new(40.0, -105.0),
            2000.0,
            100.0,
        );
        let near = range.contribution_m(GeoPoint::new(40.5, -107.5));
        let far = range.contribution_m(GeoPoint::new(42.5, -107.5));
        assert!(near > far, "near {near} vs far {far}");
    }
}
