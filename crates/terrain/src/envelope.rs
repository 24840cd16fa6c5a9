//! A conservative upper envelope of the obstruction surface.
//!
//! Line-of-sight assessment asks, at millions of points, whether
//! `elevation_m(p) + clutter_m(p)` stays below a clearance line. Most points
//! are nowhere near marginal, so an upper bound on the surface that is much
//! cheaper than the surface itself decides them. [`ObstructionEnvelope`]
//! offers three such bounds, all derived from the models' own parameters
//! rather than from samples, so none can be exceeded at any point:
//!
//! * a **global** scalar: baseline + full relief + every range's peak + the
//!   tallest clutter — exact for a constant model (flat terrain, no
//!   clutter), loose otherwise;
//! * a **coarse cell** maximum over a `CELLS_PER_DEG`-per-degree lat/lon
//!   grid (0.1° cells, ≈ 11 km of latitude), computed the first time a point
//!   in the cell is looked up and kept as an `f32` rounded up;
//! * a **fine cell** maximum over each coarse cell's `FINE_PER_CELL` ×
//!   `FINE_PER_CELL` sub-cells (0.025°), computed the first time it is asked
//!   for — a consumer asks only where the coarse bound did not decide — and
//!   kept as one byte: the whole number of `FINE_QUANTUM_M` steps the fine
//!   maximum lies below its coarse cell's stored bound, rounded *down*, so
//!   the bound it decodes to is rounded *up* (at most 254 steps; a maximum
//!   further below keeps 254, one above the coarse bound keeps 0).
//!
//! # Why the cell bounds hold
//!
//! * **Noise fields.** [`crate::noise::value_noise_range`] returns the exact
//!   extrema of one value-noise octave over a rectangle (the octave is
//!   bilinear in its smoothed coordinates, so after splitting at lattice
//!   lines the extrema sit at sub-rectangle corners; each lattice corner is
//!   hashed once per call). fBm, the ridged crest field and both clutter
//!   fields are positive-weight sums of octaves, so the sum of per-octave
//!   maxima bounds each of them.
//! * **Mountain ranges.** A range adds `peak · exp(−d²/2σ²)` (0 beyond 4σ),
//!   decreasing in the axis distance `d` *as the model computes it*: the
//!   distance to the start, to the end, or the cross-track distance to the
//!   axis' great circle, chosen by a planar along-track test. The bound
//!   evaluates the Gaussian at a lower bound of that `d` over the cell; see
//!   `MountainRange::axis_distance_lower_bound_km`. Most ranges lie hundreds
//!   of kilometres from a cell; a fill first dismisses each range whose
//!   chord from the cell's middle, less a trigonometry-free bound on the
//!   cell's radius, exceeds the range's reject radius — a range whose bound
//!   is exactly 0 anyway — and computes the cell's bounding disc (four
//!   haversines) and the survivors' bounds only when one survives
//!   (`TerrainModel::max_in`).
//! * **Rounding.** The bounds are exact in real arithmetic; evaluated in
//!   `f64` they can fall short of a sampled value by rounding error many
//!   orders of magnitude below a millimetre. Consumers compare against a
//!   bound with a slack ε (see `cisp_core::hops`) instead of with `>= 0`.
//!   Storing only ever rounds a bound up: the `f32` to the next
//!   representable value above, the fine byte to the whole step above, with
//!   the decoded value checked in the very expression every reader
//!   evaluates.
//!
//! # Finding a point's cell
//!
//! [`ObstructionEnvelope::cell_at`] locates a [`GeoPoint`]. A consumer that
//! walks a great circle holds unit vectors, not points, and
//! [`ObstructionEnvelope::walk_cell`] locates those without inverse
//! trigonometry: a row by comparing `z` with a table of `sin(edge
//! latitude)`, a column by the sign of `y·cosλ − x·sinλ` (`cos φ · sin(λp −
//! λ)`) for each edge longitude `λ`. The sign test is unambiguous within
//! 180° of longitude, so tables exist only for a grid spanning less than
//! that, and a vector more than 90° from the grid's centre meridian is not
//! located. A vector whose comparison lies within `WALK_GUARD` of a cell
//! edge answers [`Walked::Undecided`], and the consumer locates the exact
//! point instead. `WALK_GUARD` (1e-12 of the unit vector, 6 µm on the
//! ground, ≤ 1.2e-10° of latitude or longitude up to 62°) is over a hundred
//! times the drift of an 80-step [`cisp_geo::geodesic::GreatCircleWalk`]
//! from the exact point's vector, the amount by which the walked vector
//! misses unit length included (≤ 7e-15 over random hops; a test holds it
//! to a tenth of the guard). So a vector the walk places strictly inside a
//! cell has its exact point strictly inside too — the very cell `cell_at`
//! finds. The guard is also far below `CELL_PAD_DEG` (1e-9°), the margin
//! each cell is bounded over for the rounding of `cell_at`'s own index
//! arithmetic, so the fallback is rare: a sample has to lie within
//! micrometres of an edge.
//!
//! The grids are shared by reference across threads: coarse cells are
//! `AtomicU32`s holding `f32` bits, fine cells `AtomicU8`s, read and written
//! with `Relaxed` ordering. A cell's value is a pure function of the cell (a
//! fine cell's of its own rectangle and its coarse cell's bound), publishes
//! no other data, and two threads racing to fill it store the same bits.
//! Both grids come from zeroed allocations, so the pages of cells never
//! looked up never become resident.

use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicU32, AtomicU8, AtomicUsize, Ordering};

use cisp_geo::{geodesic, GeoPoint};

use crate::clutter::ClutterModel;
use crate::elevation::TerrainModel;

/// Coarse grid resolution: cells per degree of latitude and of longitude.
/// At 10 (0.1°) a coarse bound decides most samples of a continental sweep,
/// and the contiguous US needs ≈ 0.15 M cells (0.6 MiB).
pub(crate) const CELLS_PER_DEG: f64 = 10.0;

/// Fine cells per coarse cell, along each axis: 0.025° cells, at most about
/// half a lattice cell of the finest noise octaves, so per-octave ranges
/// stay tight.
const FINE_PER_CELL: usize = 4;

/// Fine grid resolution, cells per degree.
const FINE_PER_DEG: f64 = CELLS_PER_DEG * FINE_PER_CELL as f64;

/// Metres per step of a fine cell's stored drop below its coarse bound: 254
/// steps reach 508 m below it.
const FINE_QUANTUM_M: f64 = 2.0;

/// Largest coarse grid allocated (512 Ki cells: 2 MiB of coarse and 8 MiB
/// of fine cells). A bounding box needing more gets no grid and every lookup
/// answers `None`.
const MAX_GRID_CELLS: usize = 1 << 19;

/// Each cell's bound is taken over the cell grown by this much on every
/// side, so a point whose index computation rounds across a cell edge is
/// still inside the rectangle its cell was bounded over.
const CELL_PAD_DEG: f64 = 1e-9;

/// How far, in unit-vector components, a walked vector's comparison must
/// clear every cell edge to be located by [`ObstructionEnvelope::walk_cell`];
/// see the module docs.
const WALK_GUARD: f64 = 1e-12;

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

/// One cell of an envelope's fine grid, and so of the coarse cell holding
/// it: fine row and column from the grid's south-west corner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridCell {
    row: usize,
    col: usize,
}

/// Where a walk was last located on the grid (fine row and column, `-1`
/// and the row or column count meaning beyond the first or last edge); the
/// next lookup starts its search there. A default cursor has no position
/// yet.
#[derive(Debug, Clone, Copy, Default)]
pub struct GridCursor(Option<(isize, isize)>);

/// What [`ObstructionEnvelope::walk_cell`] found for a vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walked {
    /// Strictly inside this cell: the exact point is in it too.
    Cell(GridCell),
    /// Strictly outside the grid: so is the exact point.
    Outside,
    /// Within the guard of a cell edge, or too far from the grid to tell:
    /// locate the exact point with [`ObstructionEnvelope::cell_at`].
    Undecided,
}

/// The lazily filled cell maxima.
struct CellGrid {
    min_lat_deg: f64,
    min_lon_deg: f64,
    /// Coarse rows and columns; the fine grid has `FINE_PER_CELL` times as
    /// many of each.
    n_lat: usize,
    n_lon: usize,
    /// `f32` bits of each coarse cell's bound, row-major; 0 = not computed
    /// yet (a stored bound is at least `f32::MIN_POSITIVE`, whose bits are
    /// non-zero).
    cells: Vec<AtomicU32>,
    /// Each fine cell's drop below its coarse bound in `FINE_QUANTUM_M`
    /// steps, plus one; 0 = not computed yet. A coarse cell's fine cells are
    /// consecutive, row-major within it.
    fine: Vec<AtomicU8>,
    filled: AtomicUsize,
    fine_filled: AtomicUsize,
    walk: Option<WalkTables>,
}

/// The fine grid's edges in the form [`ObstructionEnvelope::walk_cell`]
/// compares unit vectors against.
struct WalkTables {
    /// `sin` of each fine row edge's latitude, south to north.
    sin_lat: Vec<f64>,
    /// `(cos, sin)` of each fine column edge's longitude, west to east.
    lon: Vec<(f64, f64)>,
    /// `(cos, sin)` of the grid's centre meridian.
    mid_lon: (f64, f64),
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
    /// Bound `terrain + clutter`, with cell grids over
    /// `bbox = (min_lat, max_lat, min_lon, max_lon)` in degrees. Coarse cell
    /// `(i, j)` covers latitudes `min_lat + [i, i + 1] / CELLS_PER_DEG` and
    /// the matching longitudes; fine cells divide it evenly.
    ///
    /// No grid is allocated when the obstruction surface is constant (flat
    /// terrain without clutter: the global bound is already exact), when the
    /// box is empty or not finite, or when it would need more than 512 Ki
    /// coarse cells.
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

    /// The cell containing `p`, or `None` when `p` is outside the grid or
    /// there is no grid.
    #[inline]
    pub fn cell_at(&self, p: GeoPoint) -> Option<GridCell> {
        let grid = self.grid.as_ref()?;
        let fi = (p.lat_deg - grid.min_lat_deg) * FINE_PER_DEG;
        let fj = (p.lon_deg - grid.min_lon_deg) * FINE_PER_DEG;
        let (rows, cols) = grid.fine_dims();
        // Written so that NaN coordinates fall outside.
        if !(fi >= 0.0 && fj >= 0.0 && fi < rows as f64 && fj < cols as f64) {
            return None;
        }
        Some(GridCell {
            row: fi as usize,
            col: fj as usize,
        })
    }

    /// Whether [`Self::walk_cell`] can locate vectors: there is a grid and
    /// it spans less than 180° of longitude.
    pub fn walks(&self) -> bool {
        self.grid.as_ref().is_some_and(|grid| grid.walk.is_some())
    }

    /// Locate the (almost) unit vector `v` of a point without inverse
    /// trigonometry, starting the search at `cursor` and leaving it at the
    /// cell found. Every vector answers [`Walked::Undecided`] when
    /// [`Self::walks`] is false. See the module docs.
    #[inline]
    pub fn walk_cell(&self, v: [f64; 3], cursor: &mut GridCursor) -> Walked {
        let Some((grid, tables)) = self.grid.as_ref().and_then(|g| Some((g, g.walk.as_ref()?)))
        else {
            return Walked::Undecided;
        };
        let [x, y, z] = v;
        let (mid_cos, mid_sin) = tables.mid_lon;
        let facing = x * mid_cos + y * mid_sin;
        if facing.is_nan() || facing < WALK_GUARD {
            return Walked::Undecided;
        }
        let east_of = |k: usize| {
            let (cos, sin) = tables.lon[k];
            y * cos - x * sin
        };
        let (mut row, mut col) = cursor.0.unwrap_or_else(|| {
            (
                tables.sin_lat.partition_point(|&sin| z >= sin) as isize - 1,
                tables
                    .lon
                    .partition_point(|&(cos, sin)| y * cos - x * sin >= 0.0)
                    as isize
                    - 1,
            )
        });
        let near_row = settle(&mut row, tables.sin_lat.len(), |k| z - tables.sin_lat[k]);
        let near_col = settle(&mut col, tables.lon.len(), east_of);
        cursor.0 = Some((row, col));
        let (rows, cols) = grid.fine_dims();
        if near_row || near_col {
            Walked::Undecided
        } else if (0..rows as isize).contains(&row) && (0..cols as isize).contains(&col) {
            Walked::Cell(GridCell {
                row: row as usize,
                col: col as usize,
            })
        } else {
            Walked::Outside
        }
    }

    /// Upper bound on the obstruction height over the coarse cell holding
    /// `cell`. Fills the coarse cell on first use.
    #[inline]
    pub fn cell_max_m(&self, cell: GridCell) -> f64 {
        let grid = self.grid.as_ref().expect("a cell implies a grid");
        let (i, j) = (cell.row / FINE_PER_CELL, cell.col / FINE_PER_CELL);
        let slot = &grid.cells[i * grid.n_lon + j];
        let bits = slot.load(Ordering::Relaxed);
        if bits != 0 {
            return f64::from(f32::from_bits(bits));
        }
        let rect = grid.rect(i, j, CELLS_PER_DEG);
        let bound = round_up_to_f32(self.terrain.max_in(&rect) + self.clutter.max_in(&rect));
        if slot
            .compare_exchange(0, bound.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            grid.filled.fetch_add(1, Ordering::Relaxed);
        }
        f64::from(bound)
    }

    /// Upper bound on the obstruction height over the fine cell `cell`: at
    /// most [`Self::cell_max_m`] of it, and usually below. Fills the fine
    /// cell (and its coarse cell) on first use.
    #[inline]
    pub fn fine_max_m(&self, cell: GridCell) -> f64 {
        let grid = self.grid.as_ref().expect("a cell implies a grid");
        let coarse_m = self.cell_max_m(cell);
        let (i, j) = (cell.row / FINE_PER_CELL, cell.col / FINE_PER_CELL);
        let within = (cell.row % FINE_PER_CELL) * FINE_PER_CELL + cell.col % FINE_PER_CELL;
        let slot = &grid.fine[(i * grid.n_lon + j) * FINE_PER_CELL * FINE_PER_CELL + within];
        let code = slot.load(Ordering::Relaxed);
        if code != 0 {
            return fine_bound_m(coarse_m, code - 1);
        }
        let rect = grid.rect(cell.row, cell.col, FINE_PER_DEG);
        let drop = fine_drop(
            coarse_m,
            self.terrain.max_in(&rect) + self.clutter.max_in(&rect),
        );
        if slot
            .compare_exchange(0, drop + 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            grid.fine_filled.fetch_add(1, Ordering::Relaxed);
        }
        fine_bound_m(coarse_m, drop)
    }

    /// Number of coarse cells computed so far.
    pub fn cells_filled(&self) -> usize {
        self.grid
            .as_ref()
            .map_or(0, |grid| grid.filled.load(Ordering::Relaxed))
    }

    /// Number of fine cells computed so far.
    pub fn fine_cells_filled(&self) -> usize {
        self.grid
            .as_ref()
            .map_or(0, |grid| grid.fine_filled.load(Ordering::Relaxed))
    }
}

/// Move `at` (a cell index in `-1..=edges - 1`, the ends meaning beyond the
/// first or the last of `edges` edges) to the cell whose edges bracket a
/// point, given `past(k)`: how far the point lies beyond edge `k`, `>= 0`
/// at or past it and decreasing in `k`. Returns whether the point lies
/// within [`WALK_GUARD`] of a bracketing edge (or `past` is NaN).
#[inline]
fn settle(at: &mut isize, edges: usize, past: impl Fn(usize) -> f64) -> bool {
    let edge = |k: isize| match usize::try_from(k) {
        Err(_) => f64::INFINITY,
        Ok(k) if k >= edges => f64::NEG_INFINITY,
        Ok(k) => past(k),
    };
    let (mut below, mut above) = (edge(*at), edge(*at + 1));
    while above >= 0.0 {
        *at += 1;
        below = above;
        above = edge(*at + 1);
    }
    while below < 0.0 {
        *at -= 1;
        above = below;
        below = edge(*at);
    }
    !(below >= WALK_GUARD && above <= -WALK_GUARD)
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
        let mut grid = Self {
            min_lat_deg: min_lat,
            min_lon_deg: min_lon,
            n_lat,
            n_lon,
            cells: zeroed_u32_cells(n_lat * n_lon),
            fine: zeroed_u8_cells(n_lat * n_lon * FINE_PER_CELL * FINE_PER_CELL),
            filled: AtomicUsize::new(0),
            fine_filled: AtomicUsize::new(0),
            walk: None,
        };
        grid.walk = grid.walk_tables();
        Some(grid)
    }

    /// Fine rows and columns.
    fn fine_dims(&self) -> (usize, usize) {
        (self.n_lat * FINE_PER_CELL, self.n_lon * FINE_PER_CELL)
    }

    /// Edge `k` of a grid starting at `min_deg` with `per_deg` cells a degree.
    fn edge(min_deg: f64, k: usize, per_deg: f64) -> f64 {
        min_deg + k as f64 / per_deg
    }

    /// The walk's tables, for a grid within `[-90°, 90°] × [-180°, 180°]`
    /// spanning less than 180° of longitude.
    fn walk_tables(&self) -> Option<WalkTables> {
        let (rows, cols) = self.fine_dims();
        let top = Self::edge(self.min_lat_deg, rows, FINE_PER_DEG);
        let east = Self::edge(self.min_lon_deg, cols, FINE_PER_DEG);
        let fits = self.min_lat_deg >= -90.0
            && top <= 90.0
            && self.min_lon_deg >= -180.0
            && east <= 180.0
            && east - self.min_lon_deg < 180.0;
        if !fits {
            return None;
        }
        let mid_lon = (0.5 * (self.min_lon_deg + east)).to_radians();
        Some(WalkTables {
            sin_lat: (0..=rows)
                .map(|k| {
                    Self::edge(self.min_lat_deg, k, FINE_PER_DEG)
                        .to_radians()
                        .sin()
                })
                .collect(),
            lon: (0..=cols)
                .map(|k| {
                    let lon = Self::edge(self.min_lon_deg, k, FINE_PER_DEG).to_radians();
                    (lon.cos(), lon.sin())
                })
                .collect(),
            mid_lon: (mid_lon.cos(), mid_lon.sin()),
        })
    }

    /// Cell `(i, j)` of the grid with `per_deg` cells a degree, padded.
    fn rect(&self, i: usize, j: usize, per_deg: f64) -> LatLonRect {
        let edge = |min_deg, k| Self::edge(min_deg, k, per_deg);
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

/// The bound a fine cell stored as `drop` steps below `coarse_m` decodes to;
/// the one expression both the filler's check and every reader evaluate.
#[inline]
fn fine_bound_m(coarse_m: f64, drop: u8) -> f64 {
    coarse_m - FINE_QUANTUM_M * f64::from(drop)
}

/// The most whole steps (at most 254) below `coarse_m` a fine cell whose
/// maximum is `max_m` can be stored at without its bound falling below
/// `max_m`; 0 when `max_m` is not below `coarse_m` or is NaN.
fn fine_drop(coarse_m: f64, max_m: f64) -> u8 {
    let steps = ((coarse_m - max_m) / FINE_QUANTUM_M).floor();
    // Written so that NaN stores no drop.
    let mut drop = if steps >= 1.0 {
        steps.min(254.0) as u8
    } else {
        0
    };
    while drop > 0 && fine_bound_m(coarse_m, drop) < max_m {
        drop -= 1;
    }
    drop
}

// `AtomicU32` / `AtomicU8` always have the alignment of their size; the
// conversions below also need it to be that of `u32` / `u8`.
const _: () = assert!(std::mem::align_of::<AtomicU32>() == std::mem::align_of::<u32>());
const _: () = assert!(std::mem::align_of::<AtomicU8>() == std::mem::align_of::<u8>());

/// `len` zero cells, taken from zero-initialised memory (`vec![0; len]`
/// asks the allocator for it), so the pages of cells never stored to never
/// become resident.
fn zeroed_u32_cells(len: usize) -> Vec<AtomicU32> {
    let mut zeros = ManuallyDrop::new(vec![0u32; len]);
    // SAFETY: `AtomicU32` has the size, bit validity and (asserted above)
    // alignment of `u32`, so the allocation holds `len` valid atomics and
    // is freed with the layout it was allocated with.
    unsafe { Vec::from_raw_parts(zeros.as_mut_ptr().cast(), zeros.len(), zeros.capacity()) }
}

/// [`zeroed_u32_cells`] for byte cells.
fn zeroed_u8_cells(len: usize) -> Vec<AtomicU8> {
    let mut zeros = ManuallyDrop::new(vec![0u8; len]);
    // SAFETY: as in `zeroed_u32_cells`, for `AtomicU8` and `u8`.
    unsafe { Vec::from_raw_parts(zeros.as_mut_ptr().cast(), zeros.len(), zeros.capacity()) }
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
    use cisp_geo::geodesic;

    /// The coarse bound at `p`, `None` off the grid.
    fn coarse_at(envelope: &ObstructionEnvelope, p: GeoPoint) -> Option<f64> {
        envelope.cell_at(p).map(|cell| envelope.cell_max_m(cell))
    }

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
    fn fine_packing_rounds_up_to_the_next_step() {
        let coarse = f64::from(round_up_to_f32(2_345.678));
        for max in [
            coarse,
            coarse + 3.0,
            coarse - 0.5,
            coarse - 2.0,
            coarse - 77.3,
        ] {
            let drop = fine_drop(coarse, max);
            let bound = fine_bound_m(coarse, drop);
            assert!(
                bound >= max.min(coarse) && bound <= coarse,
                "{bound} for {max}"
            );
            assert!(
                drop == 0 || fine_bound_m(coarse, drop + 1) < max,
                "not tight at {max}"
            );
        }
        assert_eq!(fine_drop(coarse, coarse - 2.0), 1);
        assert_eq!(fine_drop(coarse, coarse - 1e4), 254);
        assert_eq!(fine_drop(coarse, f64::NAN), 0);
        assert_eq!(fine_drop(f64::INFINITY, 10.0), 254);
        assert_eq!(fine_bound_m(f64::INFINITY, 254), f64::INFINITY);
    }

    #[test]
    fn constant_surface_allocates_no_grid() {
        let terrain = TerrainModel::flat();
        let clutter = ClutterModel::none();
        let envelope = ObstructionEnvelope::new(&terrain, &clutter, (25.0, 50.0, -125.0, -66.0));
        assert_eq!(envelope.global_max_m(), 0.0);
        assert_eq!(envelope.cell_at(GeoPoint::new(40.0, -100.0)), None);
        assert!(!envelope.walks());
        let v = GeoPoint::new(40.0, -100.0).to_unit_vector();
        assert_eq!(
            envelope.walk_cell(v, &mut GridCursor::default()),
            Walked::Undecided
        );
        assert_eq!(envelope.cells_filled(), 0);
    }

    #[test]
    fn lookups_outside_the_box_and_oversized_boxes_answer_none() {
        let terrain = TerrainModel::united_states(42);
        let clutter = ClutterModel::with_seed(42);
        let envelope = ObstructionEnvelope::new(&terrain, &clutter, (38.0, 40.0, -106.0, -104.0));
        assert!(coarse_at(&envelope, GeoPoint::new(39.02, -104.98)).is_some());
        for (lat, lon) in [
            (37.99, -105.0),
            (40.0, -105.0),
            (39.0, -106.01),
            (39.0, -104.0),
        ] {
            assert_eq!(envelope.cell_at(GeoPoint::new(lat, lon)), None);
        }
        // Off the grid's edges (those above lie on them), the walk agrees.
        for (lat, lon) in [
            (37.99, -105.01),
            (40.01, -104.99),
            (39.02, -106.01),
            (39.02, -103.99),
        ] {
            let v = GeoPoint::new(lat, lon).to_unit_vector();
            assert_eq!(
                envelope.walk_cell(v, &mut GridCursor::default()),
                Walked::Outside
            );
        }
        assert_eq!(envelope.cells_filled(), 1);
        // Looking the same coarse cell up again reads the stored bound.
        coarse_at(&envelope, GeoPoint::new(39.07, -104.93));
        assert_eq!(envelope.cells_filled(), 1);
        assert_eq!(envelope.fine_cells_filled(), 0);

        for bbox in [
            (-90.0, 90.0, -180.0, 180.0),
            (40.0, 39.0, -105.0, -104.0),
            (f64::NAN, 40.0, -105.0, -104.0),
        ] {
            let none = ObstructionEnvelope::new(&terrain, &clutter, bbox);
            assert_eq!(none.cell_at(GeoPoint::new(39.5, -104.5)), None);
            assert!(!none.walks());
        }
        // A grid as wide as a hemisphere is not walked.
        let wide = ObstructionEnvelope::new(&terrain, &clutter, (38.0, 40.0, -170.0, 10.0));
        assert!(wide.cell_at(GeoPoint::new(39.5, -104.5)).is_some() && !wide.walks());
    }

    #[test]
    fn cell_bound_lies_between_the_surface_and_the_global_bound() {
        let terrain = TerrainModel::united_states(42);
        let clutter = ClutterModel::with_seed(42);
        let envelope = ObstructionEnvelope::new(&terrain, &clutter, (30.0, 45.0, -115.0, -90.0));
        let mut tighter = 0;
        for k in 0..400 {
            let p = GeoPoint::new(
                30.0 + (k % 20) as f64 * 0.73,
                -115.0 + (k / 20) as f64 * 1.21,
            );
            let cell = envelope.cell_at(p).expect("inside the box");
            let (coarse, fine) = (envelope.cell_max_m(cell), envelope.fine_max_m(cell));
            let surface = terrain.elevation_m(p) + clutter.clutter_m(p);
            assert!(fine >= surface, "{fine} < {surface} at {p}");
            assert!(fine <= coarse && coarse <= envelope.global_max_m() + 1.0);
            tighter += usize::from(fine < coarse);
        }
        assert!(
            tighter > 200,
            "the fine level is tighter at only {tighter} of 400 points"
        );
        // Kansas is bounded far below the Rockies' crest.
        let plains = coarse_at(&envelope, GeoPoint::new(38.5, -98.0)).unwrap();
        let rockies = coarse_at(&envelope, GeoPoint::new(39.5, -106.0)).unwrap();
        assert!(plains < 500.0 && rockies > 2000.0, "{plains} / {rockies}");
    }

    // Random hops of 0.1–100 km at 25–62° N on every bearing, walked from
    // the middle sample both ways as the hop sweep walks them: every cell
    // the walk reports has a padded rectangle holding the exact point (and
    // is the cell `cell_at` finds), every point it puts outside the grid is
    // outside, and over a 160-sample path (79 steps a side) the walk drifts
    // from the exact vector by at most a tenth of the guard.
    #[test]
    fn walked_cells_of_random_hops_hold_their_exact_points() {
        let unit = |k: u64| (crate::noise::mix64(k ^ 0x5EED) >> 11) as f64 / (1u64 << 53) as f64;
        let terrain = TerrainModel::united_states(42);
        let clutter = ClutterModel::none();
        let envelope = ObstructionEnvelope::new(&terrain, &clutter, (25.0, 62.0, -130.0, -65.0));
        let grid = envelope.grid.as_ref().unwrap();
        let (mut located, mut max_drift) = (0usize, 0f64);
        for hop in 0..1_500u64 {
            let a = GeoPoint::new(
                25.0 + 37.0 * unit(4 * hop),
                -128.0 + 61.0 * unit(4 * hop + 1),
            );
            let length_km = 0.1 + 99.9 * unit(4 * hop + 2);
            let b = geodesic::destination(a, 360.0 * unit(4 * hop + 3), length_km);
            let sampler = geodesic::PathSampler::new(a, b);
            let n = crate::profile::samples_for_hop(length_km);
            for samples in [n, 160] {
                let denom = (samples - 1) as f64;
                let mid = (samples - 1) / 2;
                for (direction, steps) in [(-1.0, mid), (1.0, samples - 1 - mid)] {
                    let mut walk = sampler.walk(mid as f64 / denom, direction / denom);
                    let mut cursor = GridCursor::default();
                    for k in 0..=steps {
                        let idx = (mid as f64 + direction * k as f64) as usize;
                        let exact = sampler.point_at(idx as f64 / denom);
                        let v = walk.position();
                        let drift = (0..3)
                            .map(|c| (v[c] - exact.to_unit_vector()[c]).abs())
                            .fold(0.0, f64::max);
                        max_drift = max_drift.max(drift);
                        match envelope.walk_cell(v, &mut cursor) {
                            Walked::Cell(cell) => {
                                let rect = grid.rect(cell.row, cell.col, FINE_PER_DEG);
                                assert!(
                                    (rect.lat.0..=rect.lat.1).contains(&exact.lat_deg)
                                        && (rect.lon.0..=rect.lon.1).contains(&exact.lon_deg),
                                    "{exact} outside {rect:?}"
                                );
                                assert_eq!(envelope.cell_at(exact), Some(cell));
                                located += 1;
                            }
                            Walked::Outside => assert_eq!(envelope.cell_at(exact), None),
                            Walked::Undecided => {}
                        }
                        walk.step();
                    }
                }
            }
        }
        assert!(max_drift <= WALK_GUARD / 10.0, "drift {max_drift:e}");
        assert!(located > 200_000, "{located}");
    }

    // Points on a lattice that is not aligned with the grid, some exactly on
    // cell edges: the walk either agrees with `cell_at` or defers to it.
    #[test]
    fn walked_cells_agree_with_the_exact_lookup() {
        let terrain = TerrainModel::united_states(42);
        let clutter = ClutterModel::none();
        let envelope = ObstructionEnvelope::new(&terrain, &clutter, (30.0, 45.0, -115.0, -90.0));
        assert!(envelope.walks());
        let mut cursor = GridCursor::default();
        let on_edge = |deg: f64, min_deg: f64| {
            let k = (deg - min_deg) * FINE_PER_DEG;
            (k - k.round()).abs() < 1e-6
        };
        let (mut located, mut undecided) = (0, 0);
        for k in 0..2_000 {
            let p = GeoPoint::new(
                29.9 + (k % 50) as f64 * 0.3125,
                -115.1 + (k / 50) as f64 * 0.6375,
            );
            match envelope.walk_cell(p.to_unit_vector(), &mut cursor) {
                Walked::Cell(cell) => {
                    assert_eq!(Some(cell), envelope.cell_at(p), "at {p}");
                    located += 1;
                }
                Walked::Outside => assert_eq!(envelope.cell_at(p), None, "at {p}"),
                Walked::Undecided => {
                    assert!(
                        on_edge(p.lat_deg, 30.0) || on_edge(p.lon_deg, -115.0),
                        "at {p}"
                    );
                    undecided += 1;
                }
            }
        }
        // Every other latitude sits on a fine row edge (0.3125° = 12.5 fine
        // rows), and so does every other longitude (0.6375° = 25.5 fine
        // columns): only those defer.
        assert!(
            located > 400 && undecided > 1_000,
            "{located} / {undecided}"
        );
        // A vector on the far side of the Earth is not located.
        let antipode = GeoPoint::new(-38.0, 80.0).to_unit_vector();
        assert_eq!(envelope.walk_cell(antipode, &mut cursor), Walked::Undecided);
    }
}
