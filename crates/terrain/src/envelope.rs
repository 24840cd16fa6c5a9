//! A conservative upper envelope of the obstruction surface.
//!
//! Line-of-sight assessment asks, at millions of points, whether
//! `elevation_m(p) + clutter_m(p)` stays below a clearance line. Most points
//! are nowhere near marginal, so an upper bound on the surface that is much
//! cheaper than the surface itself decides them. [`ObstructionEnvelope`]
//! offers two such bounds, both derived from the models' own parameters
//! rather than from samples, so neither can be exceeded at any point:
//!
//! * a **global** scalar: baseline + full relief + every range's peak + the
//!   tallest clutter — exact for a constant model (flat terrain, no
//!   clutter), loose otherwise;
//! * a **per-cell** maximum over a `CELLS_PER_DEG`-per-degree lat/lon grid
//!   (0.05° cells, ≈ 5.5 km of latitude), computed the first time a point in
//!   the cell is looked up and kept as an `f32` rounded up.
//!
//! # Why the per-cell bound holds
//!
//! * **Noise fields.** [`crate::noise::value_noise_range`] returns the exact
//!   extrema of one value-noise octave over a rectangle (the octave is
//!   bilinear in its smoothed coordinates, so after splitting at lattice
//!   lines the extrema sit at sub-rectangle corners). fBm, the ridged crest
//!   field and both clutter fields are positive-weight sums of octaves, so
//!   the sum of per-octave maxima bounds each of them.
//! * **Mountain ranges.** A range adds `peak · exp(−d²/2σ²)` (0 beyond 4σ),
//!   decreasing in the axis distance `d` *as the model computes it*: the
//!   distance to the start, to the end, or the cross-track distance to the
//!   axis' great circle, chosen by a planar along-track test. The bound
//!   evaluates the Gaussian at a lower bound of that `d` over the cell; see
//!   `MountainRange::axis_distance_lower_bound_km`.
//! * **Rounding.** The bounds are exact in real arithmetic; evaluated in
//!   `f64` they can fall short of a sampled value by rounding error many
//!   orders of magnitude below a millimetre. Consumers compare against a
//!   bound with a slack ε (see `cisp_core::hops`) instead of with `>= 0`.
//!
//! The grid is shared by reference across threads: cells are `AtomicU32`s
//! holding `f32` bits, read and written with `Relaxed` ordering. A cell's
//! value is a pure function of the cell, publishes no other data, and two
//! threads racing to fill it store the same bits.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use cisp_geo::{geodesic, GeoPoint};

use crate::clutter::ClutterModel;
use crate::elevation::TerrainModel;

/// Grid resolution: cells per degree of latitude and of longitude. At 20
/// (0.05°) a cell spans about one lattice cell of the finest noise octaves,
/// so per-octave ranges stay tight, while a continental bounding box needs
/// well under a million cells (the contiguous US: ≈ 0.57 M, 2.2 MiB).
pub(crate) const CELLS_PER_DEG: f64 = 20.0;

/// Largest grid allocated (8 MiB of cells). A bounding box needing more gets
/// no grid and every lookup answers `None`.
const MAX_GRID_CELLS: usize = 1 << 21;

/// Each cell's bound is taken over the cell grown by this much on every
/// side, so a point whose index computation rounds across a cell edge is
/// still inside the rectangle its cell was bounded over.
const CELL_PAD_DEG: f64 = 1e-9;

/// A closed latitude/longitude rectangle, in degrees (`(low, high)` pairs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LatLonRect {
    pub(crate) lat: (f64, f64),
    pub(crate) lon: (f64, f64),
}

impl LatLonRect {
    /// The rectangle's mid-point and the radius, in km, of a disc around it
    /// that contains the rectangle. The farthest point of a (small) lat/lon
    /// rectangle from its mid-point is a corner: along a parallel the
    /// distance grows with the longitude offset, along a meridian edge it is
    /// convex in latitude.
    pub(crate) fn bounding_disc(&self) -> (GeoPoint, f64) {
        let center = GeoPoint {
            lat_deg: 0.5 * (self.lat.0 + self.lat.1),
            lon_deg: 0.5 * (self.lon.0 + self.lon.1),
        };
        let radius_km = [self.lat.0, self.lat.1]
            .into_iter()
            .flat_map(|lat_deg| {
                [self.lon.0, self.lon.1].map(|lon_deg| GeoPoint { lat_deg, lon_deg })
            })
            .map(|corner| geodesic::distance_km(center, corner))
            .fold(0.0, f64::max);
        (center, radius_km)
    }
}

/// The lazily filled per-cell maxima.
struct CellGrid {
    min_lat_deg: f64,
    min_lon_deg: f64,
    n_lat: usize,
    n_lon: usize,
    /// `f32` bits of each cell's bound; 0 = not computed yet (a stored bound
    /// is at least `f32::MIN_POSITIVE`, whose bits are non-zero).
    cells: Vec<AtomicU32>,
    filled: AtomicUsize,
}

/// Upper bounds on `terrain.elevation_m(p) + clutter.clutter_m(p)`; see the
/// module docs.
pub struct ObstructionEnvelope<'a> {
    terrain: &'a TerrainModel,
    clutter: &'a ClutterModel,
    global_max_m: f64,
    clutter_range_m: (f64, f64),
    grid: Option<CellGrid>,
}

impl<'a> ObstructionEnvelope<'a> {
    /// Bound `terrain + clutter`, with a per-cell grid over
    /// `bbox = (min_lat, max_lat, min_lon, max_lon)` in degrees. Cell
    /// `(i, j)` covers latitudes `min_lat + [i, i + 1] / CELLS_PER_DEG` and
    /// the matching longitudes.
    ///
    /// No grid is allocated when the obstruction surface is constant (flat
    /// terrain without clutter: the global bound is already exact), when the
    /// box is empty or not finite, or when it would need more than 2 M
    /// cells.
    pub fn new(
        terrain: &'a TerrainModel,
        clutter: &'a ClutterModel,
        bbox: (f64, f64, f64, f64),
    ) -> Self {
        let clutter_range_m = clutter.range_m();
        let constant = terrain.is_constant() && clutter_range_m.0 == clutter_range_m.1;
        let grid = if constant { None } else { CellGrid::new(bbox) };
        Self {
            terrain,
            clutter,
            global_max_m: terrain.global_max_m() + clutter_range_m.1,
            clutter_range_m,
            grid,
        }
    }

    /// Upper bound on the obstruction height at every point on Earth.
    pub fn global_max_m(&self) -> f64 {
        self.global_max_m
    }

    /// `(min, max)` of the clutter height over every point on Earth.
    pub fn clutter_range_m(&self) -> (f64, f64) {
        self.clutter_range_m
    }

    /// Upper bound on the obstruction height over the grid cell containing
    /// `p` (so in particular at `p`), or `None` when `p` is outside the grid
    /// or there is no grid. Fills the cell on first use.
    #[inline]
    pub fn cell_max_m(&self, p: GeoPoint) -> Option<f64> {
        let grid = self.grid.as_ref()?;
        let (i, j) = grid.cell_of(p)?;
        let slot = &grid.cells[i * grid.n_lon + j];
        let bits = slot.load(Ordering::Relaxed);
        if bits != 0 {
            return Some(f64::from(f32::from_bits(bits)));
        }
        let rect = grid.rect(i, j);
        let bound = round_up_to_f32(self.terrain.max_in(&rect) + self.clutter.max_in(&rect));
        if slot
            .compare_exchange(0, bound.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            grid.filled.fetch_add(1, Ordering::Relaxed);
        }
        Some(f64::from(bound))
    }

    /// Number of grid cells computed so far.
    pub fn cells_filled(&self) -> usize {
        self.grid
            .as_ref()
            .map_or(0, |grid| grid.filled.load(Ordering::Relaxed))
    }
}

impl CellGrid {
    fn new((min_lat, max_lat, min_lon, max_lon): (f64, f64, f64, f64)) -> Option<Self> {
        let n_lat = ((max_lat - min_lat) * CELLS_PER_DEG).ceil();
        let n_lon = ((max_lon - min_lon) * CELLS_PER_DEG).ceil();
        // Written so that NaN extents are refused too.
        if !(n_lat >= 1.0 && n_lon >= 1.0 && n_lat * n_lon <= MAX_GRID_CELLS as f64) {
            return None;
        }
        let (n_lat, n_lon) = (n_lat as usize, n_lon as usize);
        Some(Self {
            min_lat_deg: min_lat,
            min_lon_deg: min_lon,
            n_lat,
            n_lon,
            cells: (0..n_lat * n_lon).map(|_| AtomicU32::new(0)).collect(),
            filled: AtomicUsize::new(0),
        })
    }

    #[inline]
    fn cell_of(&self, p: GeoPoint) -> Option<(usize, usize)> {
        let fi = (p.lat_deg - self.min_lat_deg) * CELLS_PER_DEG;
        let fj = (p.lon_deg - self.min_lon_deg) * CELLS_PER_DEG;
        // Written so that NaN coordinates fall outside.
        if !(fi >= 0.0 && fj >= 0.0 && fi < self.n_lat as f64 && fj < self.n_lon as f64) {
            return None;
        }
        Some((fi as usize, fj as usize))
    }

    fn rect(&self, i: usize, j: usize) -> LatLonRect {
        let edge = |min_deg: f64, k: usize| min_deg + k as f64 / CELLS_PER_DEG;
        LatLonRect {
            lat: (
                edge(self.min_lat_deg, i) - CELL_PAD_DEG,
                edge(self.min_lat_deg, i + 1) + CELL_PAD_DEG,
            ),
            lon: (
                edge(self.min_lon_deg, j) - CELL_PAD_DEG,
                edge(self.min_lon_deg, j + 1) + CELL_PAD_DEG,
            ),
        }
    }
}

/// The smallest positive `f32` that is `>= bound` (`+inf` for a bound that
/// is not finite), so narrowing never lowers a bound and never yields the
/// all-zero bit pattern that marks an empty cell.
fn round_up_to_f32(bound: f64) -> f32 {
    if !bound.is_finite() {
        return f32::INFINITY;
    }
    let narrowed = bound as f32;
    let up = if f64::from(narrowed) < bound {
        narrowed.next_up()
    } else {
        narrowed
    };
    up.max(f32::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrowing_rounds_up_and_never_stores_zero() {
        for bound in [0.1, 1_234.567_890_123, 3_000.000_000_1, 16_777_217.0] {
            let stored = round_up_to_f32(bound);
            assert!(f64::from(stored) >= bound, "{stored} < {bound}");
            assert!(f64::from(stored.next_down()) < bound, "{bound} not tight");
        }
        assert_eq!(round_up_to_f32(0.0), f32::MIN_POSITIVE);
        assert_eq!(round_up_to_f32(-5.0), f32::MIN_POSITIVE);
        assert_eq!(round_up_to_f32(f64::NAN), f32::INFINITY);
        assert_eq!(round_up_to_f32(1e300), f32::INFINITY);
    }

    #[test]
    fn constant_surface_allocates_no_grid() {
        let terrain = TerrainModel::flat();
        let clutter = ClutterModel::none();
        let envelope = ObstructionEnvelope::new(&terrain, &clutter, (25.0, 50.0, -125.0, -66.0));
        assert_eq!(envelope.global_max_m(), 0.0);
        assert_eq!(envelope.cell_max_m(GeoPoint::new(40.0, -100.0)), None);
        assert_eq!(envelope.cells_filled(), 0);
    }

    #[test]
    fn lookups_outside_the_box_and_oversized_boxes_answer_none() {
        let terrain = TerrainModel::united_states(42);
        let clutter = ClutterModel::with_seed(42);
        let envelope = ObstructionEnvelope::new(&terrain, &clutter, (38.0, 40.0, -106.0, -104.0));
        assert!(envelope.cell_max_m(GeoPoint::new(39.02, -104.98)).is_some());
        for (lat, lon) in [
            (37.99, -105.0),
            (40.0, -105.0),
            (39.0, -106.01),
            (39.0, -104.0),
        ] {
            assert_eq!(envelope.cell_max_m(GeoPoint::new(lat, lon)), None);
        }
        assert_eq!(envelope.cells_filled(), 1);
        // Looking the same cell up again reads the stored bound.
        envelope.cell_max_m(GeoPoint::new(39.03, -104.97));
        assert_eq!(envelope.cells_filled(), 1);

        for bbox in [
            (-90.0, 90.0, -180.0, 180.0),
            (40.0, 39.0, -105.0, -104.0),
            (f64::NAN, 40.0, -105.0, -104.0),
        ] {
            let none = ObstructionEnvelope::new(&terrain, &clutter, bbox);
            assert_eq!(none.cell_max_m(GeoPoint::new(39.5, -104.5)), None);
        }
    }

    #[test]
    fn cell_bound_lies_between_the_surface_and_the_global_bound() {
        let terrain = TerrainModel::united_states(42);
        let clutter = ClutterModel::with_seed(42);
        let envelope = ObstructionEnvelope::new(&terrain, &clutter, (30.0, 45.0, -115.0, -90.0));
        for k in 0..400 {
            let p = GeoPoint::new(
                30.0 + (k % 20) as f64 * 0.73,
                -115.0 + (k / 20) as f64 * 1.21,
            );
            let bound = envelope.cell_max_m(p).expect("inside the box");
            let surface = terrain.elevation_m(p) + clutter.clutter_m(p);
            assert!(bound >= surface, "{bound} < {surface} at {p}");
            assert!(bound <= envelope.global_max_m() + 1.0);
        }
        // Kansas is bounded far below the Rockies' crest.
        let plains = envelope.cell_max_m(GeoPoint::new(38.5, -98.0)).unwrap();
        let rockies = envelope.cell_max_m(GeoPoint::new(39.5, -106.0)).unwrap();
        assert!(plains < 500.0 && rockies > 2000.0, "{plains} / {rockies}");
    }
}
