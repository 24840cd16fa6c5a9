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
use cisp_geo::{geodesic, GeoPoint, TrigPoint};

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

/// Slack of `MountainRange::axis_distance_lower_bound_km`, in km: covers
/// rounding in its distances (~1e-12 km) with room.
const AXIS_BOUND_SLACK_KM: f64 = 1e-6;

/// Margin of the same bound's obtuse-angle test, on cosines: dwarfs the
/// rounding of the model's bearing comparison.
const AXIS_BOUND_OBTUSE_MARGIN: f64 = 1e-9;

/// Precomputed axis geometry of one [`MountainRange`].
///
/// The axis distance needs the axis length, the axis bearing and two
/// haversines, even though the axis never moves. The elevation hot path
/// (hop-feasibility sampling evaluates the terrain at millions of points)
/// caches the per-axis constants here, the trigonometry of both axis ends
/// included, plus a conservative reject radius that skips the whole range
/// with one dot product.
#[derive(Debug, Clone)]
struct RangeAxis {
    /// Axis length `d(start, end)` in km.
    total_km: f64,
    /// Initial bearing of the axis at `start`, degrees.
    bearing_axis_deg: f64,
    /// The same bearing in radians.
    bearing_axis_rad: f64,
    /// `start` and `end`, with their distance and bearing trigonometry.
    start: TrigPoint,
    end: TrigPoint,
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

impl RangeAxis {
    /// `geodesic::cross_track_distance_km(start, end, p)` from the distance
    /// `d_start_km` and bearing `bearing_deg` of `p` seen from the start:
    /// the same expression, with its central angle and axis bearing taken
    /// from values the caller and the cache already hold.
    #[inline]
    fn cross_track_km(&self, d_start_km: f64, bearing_deg: f64) -> f64 {
        let delta13 = d_start_km / EARTH_RADIUS_KM;
        let theta13 = bearing_deg.to_radians();
        let theta12 = self.bearing_axis_rad;
        (delta13.sin() * (theta13 - theta12).sin()).asin().abs() * EARTH_RADIUS_KM
    }
}

/// A mountain range modelled as a ridge line with Gaussian cross-section.
#[derive(Debug, Clone)]
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

    /// Shortest distance from `p` to the ridge axis segment, in kilometres:
    /// the reference the cached query is pinned against.
    #[cfg(test)]
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

    /// Ridge height contribution at `p`, before crest noise, in metres: the
    /// reference the cached query is pinned against.
    #[cfg(test)]
    fn contribution_m(&self, p: GeoPoint) -> f64 {
        let d = self.distance_to_axis_km(p);
        // Ignore anything beyond 4 sigma: negligible and saves work.
        if d > 4.0 * self.half_width_km {
            return 0.0;
        }
        let x = d / self.half_width_km;
        self.peak_m * (-0.5 * x * x).exp()
    }

    /// [`Self::axis_distance_lower_bound_km`] from the range's endpoints
    /// alone: the reference the cached bound is pinned against.
    #[cfg(test)]
    fn axis_distance_lower_bound_uncached_km(&self, center: GeoPoint, radius_km: f64) -> f64 {
        let r = radius_km + AXIS_BOUND_SLACK_KM;
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
        if start_lo > xt_hi
            && (start_lo * start_lo - xt_hi * xt_hi).sqrt() > total + AXIS_BOUND_SLACK_KM
        {
            bound = bound.max(start_lo.min(end_lo));
        }
        let angle = |km: f64| km / EARTH_RADIUS_KM;
        let total_cos = angle(total).cos();
        if total_cos > 0.0
            && angle(d_start + r) <= std::f64::consts::PI
            && angle(end_lo.max(0.0)).cos()
                < angle(d_start + r).cos() * total_cos - AXIS_BOUND_OBTUSE_MARGIN
        {
            bound = bound.max(start_lo);
        }
        bound
    }

    /// Lower bound on [`Self::distance_to_axis_cached_km`] — the value the
    /// model computes, planar along-track test included — over every point
    /// within `radius_km` of `center`.
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
    ///
    /// The axis length, bearing and end trigonometry come from the
    /// [`RangeAxis`] cache, the centre's from the caller, and the
    /// cross-track distance reuses `d_start` for its central angle
    /// ([`RangeAxis::cross_track_km`], as in
    /// [`Self::distance_to_axis_cached_km`]): the same values as the
    /// uncached expression, bit for bit (pinned by a test).
    fn axis_distance_lower_bound_km(
        &self,
        axis: &RangeAxis,
        center: &TrigPoint,
        radius_km: f64,
    ) -> f64 {
        let r = radius_km + AXIS_BOUND_SLACK_KM;
        let total = axis.total_km;
        let d_start = axis.start.distance_km(center);
        let start_lo = d_start - r;
        if total < 1e-9 {
            return start_lo;
        }
        let far = start_lo - total;
        if far > 4.0 * self.half_width_km {
            return far;
        }
        let d_end = axis.end.distance_km(center);
        let xt = axis.cross_track_km(d_start, axis.start.initial_bearing_deg(center));
        let end_lo = d_end - r;
        let xt_hi = xt + r;
        let mut bound = far.max(xt - r);
        if start_lo > xt_hi
            && (start_lo * start_lo - xt_hi * xt_hi).sqrt() > total + AXIS_BOUND_SLACK_KM
        {
            bound = bound.max(start_lo.min(end_lo));
        }
        let angle = |km: f64| km / EARTH_RADIUS_KM;
        let total_cos = angle(total).cos();
        if total_cos > 0.0
            && angle(d_start + r) <= std::f64::consts::PI
            && angle(end_lo.max(0.0)).cos()
                < angle(d_start + r).cos() * total_cos - AXIS_BOUND_OBTUSE_MARGIN
        {
            bound = bound.max(start_lo);
        }
        bound
    }

    /// Upper bound on [`Self::contribution_cached_m`] over every point
    /// within `radius_km` of `center`: the Gaussian is decreasing in the axis
    /// distance, so it is evaluated at that distance's lower bound.
    fn max_contribution_m(&self, axis: &RangeAxis, center: &TrigPoint, radius_km: f64) -> f64 {
        let d = self.axis_distance_lower_bound_km(axis, center, radius_km);
        if d > 4.0 * self.half_width_km {
            return 0.0;
        }
        let x = d.max(0.0) / self.half_width_km;
        self.peak_m * (-0.5 * x * x).exp()
    }

    /// Precompute the axis constants reused by every elevation query.
    fn axis(&self) -> RangeAxis {
        let total_km = geodesic::distance_km(self.start, self.end);
        let bearing_axis_deg = geodesic::initial_bearing_deg(self.start, self.end);
        RangeAxis {
            total_km,
            bearing_axis_deg,
            bearing_axis_rad: bearing_axis_deg.to_radians(),
            start: TrigPoint::new(self.start),
            end: TrigPoint::new(self.end),
            start_unit: self.start.to_unit_vector(),
            degenerate: total_km < 1e-9,
            skip_beyond_km: total_km + 4.0 * self.half_width_km + SKIP_MARGIN_KM,
        }
    }

    /// Shortest distance from `p` to the ridge axis segment, in kilometres,
    /// with the axis constants supplied from a [`RangeAxis`] cache and the
    /// point's trigonometry from the caller. Every expression reuses or
    /// replays the exact arithmetic of the test-only uncached reference (the
    /// cached values are pure functions of the axis endpoints and of `p`),
    /// so the result is bit-identical — which the
    /// `cached_elevation_matches_reference` test pins.
    fn distance_to_axis_cached_km(&self, axis: &RangeAxis, p: &TrigPoint) -> f64 {
        if axis.degenerate {
            return axis.start.distance_km(p);
        }
        let total = axis.total_km;
        let d_sp = axis.start.distance_km(p);
        let bearing_p = axis.start.initial_bearing_deg(p);
        let xt = axis.cross_track_km(d_sp, bearing_p);
        let at = (d_sp * d_sp - xt * xt).max(0.0).sqrt();
        let mut diff = (axis.bearing_axis_deg - bearing_p).abs();
        if diff > 180.0 {
            diff = 360.0 - diff;
        }
        let at_signed = if diff > 90.0 { -at } else { at };

        if at_signed < 0.0 {
            d_sp
        } else if at_signed > total {
            axis.end.distance_km(p)
        } else {
            xt
        }
    }

    /// Ridge height contribution at `p`, before crest noise, in metres, over
    /// the cached axis geometry.
    fn contribution_cached_m(&self, axis: &RangeAxis, p: &TrigPoint) -> f64 {
        let d = self.distance_to_axis_cached_km(axis, p);
        if d > 4.0 * self.half_width_km {
            return 0.0;
        }
        let x = d / self.half_width_km;
        self.peak_m * (-0.5 * x * x).exp()
    }
}

/// Parameters of the base (non-mountain) terrain field.
#[derive(Debug, Clone, Copy)]
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
#[derive(Debug, Clone)]
pub struct TerrainModel {
    seed: u64,
    base: BaseTerrainParams,
    ranges: Vec<MountainRange>,
    /// Extra crest-noise amplitude as a fraction of the local ridge height.
    crest_noise_fraction: f64,
    /// Per-range axis constants, parallel to `ranges`, built by the
    /// constructor and read by every elevation query.
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
            // at a given point; compute it at most once per query. So is the
            // point's trigonometry: its unit vector's four sines and cosines
            // serve every range's distances and bearing too.
            let mut modulation: Option<f64> = None;
            let trig = TrigPoint::new(p);
            let vp = trig.unit_vector();
            for (range, axis) in self.ranges.iter().zip(&self.axes) {
                // Chord length is a lower bound on the great-circle
                // distance to the axis start; beyond the reject radius
                // the Gaussian is exactly zero, so skipping changes
                // nothing.
                if chord_km(vp, axis.start_unit) > axis.skip_beyond_km {
                    continue;
                }
                let ridge = range.contribution_cached_m(axis, &trig);
                if ridge > 0.0 {
                    let m = *modulation.get_or_insert_with(|| self.crest_modulation(p));
                    elevation += ridge * m;
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
    ///
    /// Most ranges are hundreds of kilometres from a cell, so each is first
    /// dismissed, if it can be, without a haversine: with `m` the middle of
    /// the rectangle (the centre of [`LatLonRect::bounding_disc`]) and `ρ`
    /// the rectangle's half-height plus half-width as an arc, every point of
    /// the rectangle lies within `ρ` of `m` (a meridian arc, then a parallel
    /// arc no longer than its longitude offset on the equator), so the disc's
    /// radius is at most `ρ`. The chord from `m` to the range's start is at
    /// most `d(m, start)`. So `chord − ρ > skip_beyond_km` — the reject
    /// radius `elevation_m` uses, whose kilometre of margin dwarfs the
    /// rounding of both bounds — puts the lower bound's `d_start − radius −
    /// total` beyond 4σ: `max_contribution_m` would return exactly `0.0`,
    /// and adding it to the sum changes no bit. The disc's four haversines
    /// are paid only when some range survives.
    pub(crate) fn max_in(&self, rect: &LatLonRect) -> f64 {
        let mut bound = self.base.baseline_m;
        if self.base.relief_m > 0.0 {
            let (_, rolling_hi) = fbm_range(rect.lon, rect.lat, self.seed, self.rolling_params());
            bound += self.base.relief_m * rolling_hi;
        }
        if !self.ranges.is_empty() {
            let middle = GeoPoint {
                lat_deg: 0.5 * (rect.lat.0 + rect.lat.1),
                lon_deg: 0.5 * (rect.lon.0 + rect.lon.1),
            };
            let v_middle = middle.to_unit_vector();
            let half_extent_deg =
                0.5 * ((rect.lat.1 - rect.lat.0).abs() + (rect.lon.1 - rect.lon.0).abs());
            let reach_km = EARTH_RADIUS_KM * half_extent_deg.to_radians();
            let mut disc: Option<(TrigPoint, f64)> = None;
            let ridges: f64 = self
                .ranges
                .iter()
                .zip(&self.axes)
                .filter(|(_, axis)| {
                    // A NaN chord is not beyond the radius: the range stays.
                    let beyond =
                        chord_km(v_middle, axis.start_unit) - reach_km > axis.skip_beyond_km;
                    !beyond
                })
                .map(|(range, axis)| {
                    let (center, radius_km) = disc.get_or_insert_with(|| {
                        let (center, radius_km) = rect.bounding_disc();
                        (TrigPoint::new(center), radius_km)
                    });
                    range.max_contribution_m(axis, center, *radius_km)
                })
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

/// Chord length, in km on the Earth's sphere, between two unit vectors: a
/// lower bound on their great-circle distance.
#[inline]
fn chord_km(v: [f64; 3], w: [f64; 3]) -> f64 {
    let dx = v[0] - w[0];
    let dy = v[1] - w[1];
    let dz = v[2] - w[2];
    EARTH_RADIUS_KM * (dx * dx + dy * dy + dz * dz).sqrt()
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
                        range.distance_to_axis_cached_km(axis, &TrigPoint::new(p))
                            == range.distance_to_axis_km(p),
                        "axis distance diverged for {} at point {k}",
                        range.name
                    );
                }
            }
        }
    }

    // The fill-time axis-distance bound takes the axis length and bearing
    // from the cache and reuses `d_start` for the cross-track angle; it must
    // equal the expression built from the endpoints alone, bit for bit, on
    // rectangles near, across, beyond and far from every range (degenerate
    // and random axes included).
    #[test]
    fn cached_axis_bound_matches_the_uncached_expression() {
        let unit = |k: u64| (crate::noise::mix64(k) >> 11) as f64 / (1u64 << 53) as f64;
        let mut ranges: Vec<MountainRange> = TerrainModel::united_states(42).ranges;
        ranges.extend(TerrainModel::europe(42).ranges);
        let start = GeoPoint::new(40.0, -100.0);
        ranges.push(MountainRange::new("point", start, start, 900.0, 20.0));
        for k in 0..40u64 {
            let end = geodesic::destination(start, unit(k) * 360.0, unit(k + 99) * 600.0);
            ranges.push(MountainRange::new(
                "random",
                start,
                end,
                1_000.0,
                5.0 + 80.0 * unit(k + 7),
            ));
        }
        let mut draw = 0u64;
        for range in &ranges {
            let axis = range.axis();
            for _ in 0..200 {
                draw += 3;
                // A centre within ≈ 8° of the axis start, a rectangle of
                // 0.001°–1°.
                let center = GeoPoint::new(
                    range.start.lat_deg + 16.0 * (unit(draw) - 0.5),
                    range.start.lon_deg + 16.0 * (unit(draw + 1) - 0.5),
                );
                let side = 10f64.powf(-3.0 * unit(draw + 2));
                let rect = LatLonRect {
                    lat: (center.lat_deg - side / 2.0, center.lat_deg + side / 2.0),
                    lon: (center.lon_deg - side, center.lon_deg + side),
                };
                let (c, r) = rect.bounding_disc();
                let cached = range.axis_distance_lower_bound_km(&axis, &TrigPoint::new(c), r);
                let uncached = range.axis_distance_lower_bound_uncached_km(c, r);
                assert_eq!(
                    cached.to_bits(),
                    uncached.to_bits(),
                    "{} at {c}",
                    range.name
                );
            }
        }
    }

    /// [`TerrainModel::max_in`] without the chord dismissal: every range's
    /// bound over the rectangle's bounding disc, summed.
    fn max_in_undismissed(t: &TerrainModel, rect: &LatLonRect) -> f64 {
        let mut bound = t.base.baseline_m;
        if t.base.relief_m > 0.0 {
            let (_, rolling_hi) = fbm_range(rect.lon, rect.lat, t.seed, t.rolling_params());
            bound += t.base.relief_m * rolling_hi;
        }
        if !t.ranges.is_empty() {
            let (center, radius_km) = rect.bounding_disc();
            let center = TrigPoint::new(center);
            let ridges: f64 = t
                .ranges
                .iter()
                .zip(&t.axes)
                .map(|(range, axis)| range.max_contribution_m(axis, &center, radius_km))
                .sum();
            if ridges > 0.0 {
                let crest_hi =
                    ridged_max(rect.lon, rect.lat, t.seed ^ CREST_SEED_MASK, CREST_PARAMS);
                bound +=
                    ridges * (1.0 - t.crest_noise_fraction + t.crest_noise_fraction * crest_hi);
            }
        }
        bound.max(0.0)
    }

    // The chord dismissal in `max_in` skips only ranges whose bound is
    // exactly zero, so the sum is the undismissed one bit for bit: on both
    // built-in terrains and on random models with degenerate, short, long
    // and overlapping axes, for rectangles from a fine cell to 2°, centred
    // anywhere in the region and around the reject radius of each range.
    #[test]
    fn dismissed_max_in_equals_the_undismissed_sum() {
        let mut draw = 0u64;
        let mut unit = move || {
            draw += 1;
            (crate::noise::mix64(draw ^ 0x5EED) >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut models = vec![
            (TerrainModel::united_states(42), (24.0, 50.0, -125.0, -66.0)),
            (TerrainModel::europe(7), (35.0, 71.0, -11.0, 32.0)),
        ];
        for k in 0..40 {
            let mut ranges: Vec<MountainRange> = Vec::new();
            for r in 0..1 + (unit() * 4.0) as usize {
                let start = if r > 0 && unit() < 0.3 {
                    let previous = &ranges[r - 1];
                    if unit() < 0.5 {
                        previous.start
                    } else {
                        previous.end
                    }
                } else {
                    GeoPoint::new(36.0 + 8.0 * unit(), -105.0 + 10.0 * unit())
                };
                let length_km = [0.0, 1e-6, 0.5, 20.0, 300.0, 900.0][(unit() * 6.0) as usize];
                let end = geodesic::destination(start, 360.0 * unit(), length_km);
                let half_width_km = [3.0, 15.0, 60.0, 180.0][(unit() * 4.0) as usize];
                ranges.push(MountainRange::new(
                    "random",
                    start,
                    end,
                    100.0 + 2900.0 * unit(),
                    half_width_km,
                ));
            }
            let base = BaseTerrainParams {
                baseline_m: -100.0 + 700.0 * unit(),
                relief_m: [0.0, 40.0, 220.0][k % 3],
                correlation_deg: [0.01, 0.1, 0.8, 3.0][k % 4],
            };
            let crest = [0.0, 0.35, 1.0][(unit() * 3.0) as usize];
            models.push((
                TerrainModel::new(k as u64, base, ranges, crest),
                (25.0, 55.0, -120.0, -80.0),
            ));
        }
        let (mut dismissed, mut kept) = (0usize, 0usize);
        for (t, (lat0, lat1, lon0, lon1)) in &models {
            for q in 0..600 {
                let center = if q % 2 == 0 {
                    GeoPoint::new(lat0 + (lat1 - lat0) * unit(), lon0 + (lon1 - lon0) * unit())
                } else {
                    let axis = &t.axes[q / 2 % t.axes.len()];
                    let range = &t.ranges[q / 2 % t.ranges.len()];
                    let d_km = axis.skip_beyond_km * (0.8 + 0.4 * unit());
                    geodesic::destination(range.start, 360.0 * unit(), d_km)
                };
                let side = [0.025, 0.1, 2.0 * unit()][q % 3];
                let rect = LatLonRect {
                    lat: (center.lat_deg - side / 2.0, center.lat_deg + side / 2.0),
                    lon: (center.lon_deg - side / 2.0, center.lon_deg + side / 2.0),
                };
                let fast = t.max_in(&rect);
                let slow = max_in_undismissed(t, &rect);
                assert_eq!(fast.to_bits(), slow.to_bits(), "{rect:?}: {fast} vs {slow}");
                let middle = GeoPoint::new(center.lat_deg, center.lon_deg).to_unit_vector();
                for axis in &t.axes {
                    let chord = chord_km(middle, axis.start_unit);
                    if chord - EARTH_RADIUS_KM * side.to_radians() > axis.skip_beyond_km {
                        dismissed += 1;
                    } else {
                        kept += 1;
                    }
                }
            }
        }
        assert!(
            dismissed > 10_000 && kept > 10_000,
            "{dismissed} dismissed, {kept} kept"
        );
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
