//! Synthetic microwave-tower registry.
//!
//! The paper culls the FCC Antenna Structure Registration database plus
//! several commercial tower-company databases down to 12,080 usable towers
//! (§4, Step 1): rental-company towers are kept, FCC towers only above 100 m,
//! and when density exceeds 50 towers per 0.5° grid cell the excess is
//! sampled away. Those databases cannot be redistributed, so this module
//! generates a registry with the same statistical structure:
//!
//! * tower density follows population (towers cluster around cities, with a
//!   thinner uniform rural background along the long-haul corridors),
//! * heights follow a registry-like distribution (mostly 60–200 m, a tail to
//!   350 m), and
//! * the paper's culling rules are applied afterwards, so downstream code
//!   sees exactly the kind of input the paper's Step 1 consumed.
//!
//! The registry also provides the spatial grid index used to enumerate
//! candidate tower pairs within microwave range.

use std::collections::HashMap;
use std::ops::RangeInclusive;

use cisp_geo::units::EARTH_RADIUS_KM;
use cisp_geo::{geodesic, GeoPoint, TrigPoint};
use rand::Rng;

use crate::cities::City;
use crate::rng::seeded_rng;

/// Where a synthetic tower "came from", mirroring the paper's data sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TowerSource {
    /// FCC Antenna Structure Registration-like entry (subject to the 100 m
    /// height rule).
    FccRegistration,
    /// Commercial tower-rental company entry (kept regardless of height).
    RentalCompany,
}

/// A single tower.
#[derive(Debug, Clone, PartialEq)]
pub struct Tower {
    /// Ground location of the tower.
    pub location: GeoPoint,
    /// Structural height above ground, in metres.
    pub height_m: f64,
    /// Data source the tower mimics.
    pub source: TowerSource,
}

/// Configuration of the synthetic registry generator.
#[derive(Debug, Clone)]
pub struct TowerRegistryConfig {
    /// Number of towers to generate *before* culling.
    pub raw_count: usize,
    /// Fraction of towers clustered around cities (the rest are uniform
    /// rural background).
    pub city_clustered_fraction: f64,
    /// Scatter radius (km) of the city-clustered towers around their city.
    pub city_scatter_km: f64,
    /// Fraction of towers tagged as rental-company towers.
    pub rental_fraction: f64,
    /// Minimum height for FCC-like towers to survive culling (paper: 100 m).
    pub fcc_min_height_m: f64,
    /// Maximum towers kept per 0.5° × 0.5° grid cell (paper: 50).
    pub max_per_half_degree_cell: usize,
}

impl Default for TowerRegistryConfig {
    fn default() -> Self {
        Self {
            raw_count: 18_000,
            city_clustered_fraction: 0.6,
            city_scatter_km: 90.0,
            rental_fraction: 0.45,
            fcc_min_height_m: 100.0,
            max_per_half_degree_cell: 50,
        }
    }
}

impl TowerRegistryConfig {
    /// A small configuration for fast tests: a few thousand towers.
    pub fn small() -> Self {
        Self {
            raw_count: 3_000,
            ..Self::default()
        }
    }
}

/// The culled tower registry with a spatial index.
#[derive(Debug, Clone)]
pub struct TowerRegistry {
    towers: Vec<Tower>,
    /// Each tower's location with its distance trigonometry cached,
    /// parallel to `towers`: a range query computes one haversine per
    /// candidate and none of the candidate's own trigonometry.
    trig: Vec<TrigPoint>,
    /// Grid index: 0.5°-cell → tower indices, for range queries.
    grid: GridIndex,
}

/// Cell size of the spatial index, in degrees.
const CELL_DEG: f64 = 0.5;

/// How far, in degrees, a range query's window reaches beyond the exact
/// extent of its disc: it covers the rounding of the window's own
/// arithmetic and of the haversine each candidate is tested with (both
/// ≈ 1e-12° at most), so a tower the distance test accepts always lies in a
/// probed cell.
const WINDOW_MARGIN_DEG: f64 = 1e-6;

/// Grid row or column of a latitude or longitude, as
/// [`GeoPoint::grid_cell`] computes it.
fn cell_index(deg: f64) -> i32 {
    (deg / CELL_DEG).floor() as i32
}

/// The grid cells a disc of `radius_km` around `point` can reach: a band of
/// rows, and in each row one or two runs of columns.
///
/// The disc's angular radius `δ` bounds its latitude offset. When the disc
/// reaches a pole it holds every longitude, so the band is whole. Otherwise
/// its longitude offset is at most the cap's half-width
/// `asin(sin δ / cos φ)`, and the run of columns it spans is cut at ±180°
/// with the part beyond wrapped to the other side of the antimeridian.
fn query_window(
    point: GeoPoint,
    radius_km: f64,
) -> (RangeInclusive<i32>, [Option<RangeInclusive<i32>>; 2]) {
    let delta = radius_km / EARTH_RADIUS_KM;
    let lat_reach = delta.to_degrees() + WINDOW_MARGIN_DEG;
    let rows = cell_index((point.lat_deg - lat_reach).max(-90.0))
        ..=cell_index((point.lat_deg + lat_reach).min(90.0));
    let whole_band = [Some(cell_index(-180.0)..=cell_index(180.0)), None];
    if point.lat_deg.abs() + lat_reach >= 90.0 {
        return (rows, whole_band);
    }
    let ratio = delta.sin() / point.lat_deg.to_radians().cos();
    let lon_reach = ratio.min(1.0).asin().to_degrees() + WINDOW_MARGIN_DEG;
    // Beyond 90° the two runs could meet in one cell; scan everything.
    if lon_reach >= 90.0 {
        return (rows, whole_band);
    }
    let (west, east) = (point.lon_deg - lon_reach, point.lon_deg + lon_reach);
    let main = cell_index(west.max(-180.0))..=cell_index(east.min(180.0));
    let wrapped = if west < -180.0 {
        Some(cell_index(west + 360.0)..=cell_index(180.0))
    } else if east > 180.0 {
        Some(cell_index(-180.0)..=cell_index(east - 360.0))
    } else {
        None
    };
    (rows, [Some(main), wrapped])
}

/// Flat grid-bucket index: one sorted array of packed cell keys, one CSR
/// offset array, one contiguous item array.
///
/// The previous `HashMap<(i32, i32), Vec<usize>>` paid a hash plus a
/// pointer-chase per probed cell and scattered every bucket across the heap;
/// a full `pairs_within` sweep probes hundreds of thousands of cells. Here
/// the keys order cells by row, then column, so a run of columns in one row
/// is one run of keys and one slice of one shared allocation, found with
/// two binary searches. Buckets hold tower indices in ascending order (the
/// build sort is by `(key, index)`), matching the hash version's per-bucket
/// insertion order.
#[derive(Debug, Clone, Default)]
struct GridIndex {
    /// Packed `(lat_cell, lon_cell)` keys, sorted ascending, one per
    /// non-empty cell.
    keys: Vec<i64>,
    /// `offsets[k]..offsets[k + 1]` is cell `k`'s slice of `items`.
    offsets: Vec<u32>,
    /// Tower indices, grouped by cell, ascending within each cell.
    items: Vec<u32>,
}

/// Pack a grid cell into one key, ordered as `(lat_cell, lon_cell)` is.
#[inline]
fn pack_cell(cell: (i32, i32)) -> i64 {
    ((cell.0 as i64) << 32) | i64::from(cell.1 as u32 ^ 0x8000_0000)
}

impl GridIndex {
    fn build(towers: &[Tower]) -> Self {
        let mut entries: Vec<(i64, u32)> = towers
            .iter()
            .enumerate()
            .map(|(i, t)| (pack_cell(t.location.grid_cell(CELL_DEG)), i as u32))
            .collect();
        entries.sort_unstable();
        let mut keys = Vec::new();
        let mut offsets = Vec::new();
        let mut items = Vec::with_capacity(entries.len());
        for (key, idx) in entries {
            if keys.last() != Some(&key) {
                keys.push(key);
                offsets.push(items.len() as u32);
            }
            items.push(idx);
        }
        offsets.push(items.len() as u32);
        Self {
            keys,
            offsets,
            items,
        }
    }

    /// Tower indices in the cells `(row, col)` for every `col` in `cols`,
    /// cell by cell, or an empty slice.
    #[inline]
    fn run(&self, row: i32, cols: RangeInclusive<i32>) -> &[u32] {
        let first = self
            .keys
            .partition_point(|&k| k < pack_cell((row, *cols.start())));
        let end =
            first + self.keys[first..].partition_point(|&k| k <= pack_cell((row, *cols.end())));
        &self.items[self.offsets[first] as usize..self.offsets[end] as usize]
    }
}

impl TowerRegistry {
    /// Generate a synthetic registry for a bounding box and set of cities.
    ///
    /// `bbox` is `(min_lat, max_lat, min_lon, max_lon)`; towers are clustered
    /// around `cities` in proportion to population. The result is already
    /// culled per the paper's rules.
    pub fn synthesize(
        seed: u64,
        bbox: (f64, f64, f64, f64),
        cities: &[City],
        config: &TowerRegistryConfig,
    ) -> Self {
        assert!(!cities.is_empty(), "need at least one city for clustering");
        let (min_lat, max_lat, min_lon, max_lon) = bbox;
        assert!(max_lat > min_lat && max_lon > min_lon, "degenerate bbox");
        let mut rng = seeded_rng(seed, "towers");

        // Cumulative population weights for city selection.
        let total_pop: f64 = cities.iter().map(|c| c.population as f64).sum();
        let mut cumulative = Vec::with_capacity(cities.len());
        let mut acc = 0.0;
        for c in cities {
            acc += c.population as f64 / total_pop;
            cumulative.push(acc);
        }

        let mut raw: Vec<Tower> = Vec::with_capacity(config.raw_count);
        while raw.len() < config.raw_count {
            let clustered = rng.gen::<f64>() < config.city_clustered_fraction;
            let location = if clustered {
                let u: f64 = rng.gen();
                let city_idx = cumulative.iter().position(|&c| u <= c).unwrap_or(0);
                let bearing = rng.gen::<f64>() * 360.0;
                // Exponential-ish scatter: most towers near the city, a tail
                // reaching out along the corridors.
                let distance = -config.city_scatter_km * (1.0 - rng.gen::<f64>()).ln() * 0.5;
                geodesic::destination(cities[city_idx].location, bearing, distance)
            } else {
                GeoPoint::new(
                    min_lat + rng.gen::<f64>() * (max_lat - min_lat),
                    min_lon + rng.gen::<f64>() * (max_lon - min_lon),
                )
            };
            // Keep only towers inside the bounding box (scatter can escape it).
            if location.lat_deg < min_lat
                || location.lat_deg > max_lat
                || location.lon_deg < min_lon
                || location.lon_deg > max_lon
            {
                continue;
            }
            // Height: 60 m base plus an exponential tail, truncated at 350 m.
            let height_m = (60.0 - 70.0 * (1.0 - rng.gen::<f64>()).ln()).min(350.0);
            let source = if rng.gen::<f64>() < config.rental_fraction {
                TowerSource::RentalCompany
            } else {
                TowerSource::FccRegistration
            };
            raw.push(Tower {
                location,
                height_m,
                source,
            });
        }

        // Culling rule 1: FCC towers must be at least `fcc_min_height_m` tall.
        raw.retain(|t| match t.source {
            TowerSource::FccRegistration => t.height_m >= config.fcc_min_height_m,
            TowerSource::RentalCompany => true,
        });

        // Culling rule 2: at most `max_per_half_degree_cell` per 0.5° cell,
        // sampled deterministically (keep the first N in generation order —
        // the generator is already random, so this is a uniform subsample).
        let mut per_cell: HashMap<(i32, i32), usize> = HashMap::new();
        let mut culled = Vec::with_capacity(raw.len());
        for t in raw {
            let cell = t.location.grid_cell(CELL_DEG);
            let count = per_cell.entry(cell).or_insert(0);
            if *count < config.max_per_half_degree_cell {
                *count += 1;
                culled.push(t);
            }
        }

        Self::from_towers(culled)
    }

    /// Build a registry from an explicit tower list (used by tests and by
    /// callers with their own data).
    pub fn from_towers(towers: Vec<Tower>) -> Self {
        let grid = GridIndex::build(&towers);
        let trig = towers.iter().map(|t| TrigPoint::new(t.location)).collect();
        Self { towers, trig, grid }
    }

    /// All towers.
    pub fn towers(&self) -> &[Tower] {
        &self.towers
    }

    /// Number of towers.
    pub fn len(&self) -> usize {
        self.towers.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.towers.is_empty()
    }

    /// Indices of towers within `radius_km` of `point`.
    pub fn towers_within(&self, point: GeoPoint, radius_km: f64) -> Vec<usize> {
        let mut result = Vec::new();
        self.towers_within_into(point, radius_km, &mut result);
        result
    }

    /// [`Self::towers_within`] writing into a caller-owned buffer (cleared
    /// first), so sweeping callers — site attachment — reuse one allocation
    /// across queries. Results are ascending tower indices, identical to
    /// `towers_within`.
    pub fn towers_within_into(&self, point: GeoPoint, radius_km: f64, result: &mut Vec<usize>) {
        assert!(radius_km >= 0.0);
        result.clear();
        let center = TrigPoint::new(point);
        for run in self.window_runs(point, radius_km) {
            result.extend(
                run.iter()
                    .map(|&i| i as usize)
                    .filter(|&i| center.distance_km(&self.trig[i]) <= radius_km),
            );
        }
        result.sort_unstable();
    }

    /// The towers `j > i` within `radius_km` of tower `i`, with their
    /// distances `geodesic::distance_km(location(i), location(j))` bit for
    /// bit, in ascending `j`, written into `result` (cleared first). The
    /// hop sweep's partner query: a pair's distance is measured once, here,
    /// and candidates `j <= i` cost no haversine.
    pub fn higher_towers_within_into(
        &self,
        i: usize,
        radius_km: f64,
        result: &mut Vec<(usize, f64)>,
    ) {
        assert!(radius_km >= 0.0);
        result.clear();
        let center = &self.trig[i];
        for run in self.window_runs(self.towers[i].location, radius_km) {
            for j in run.iter().map(|&j| j as usize).filter(|&j| j > i) {
                let d = center.distance_km(&self.trig[j]);
                if d <= radius_km {
                    result.push((j, d));
                }
            }
        }
        result.sort_unstable_by_key(|&(j, _)| j);
    }

    /// The tower indices in the cells [`query_window`] selects, one slice
    /// per run of columns.
    fn window_runs(&self, point: GeoPoint, radius_km: f64) -> impl Iterator<Item = &[u32]> + '_ {
        let (rows, cols) = query_window(point, radius_km);
        rows.flat_map(move |row| {
            cols.clone()
                .into_iter()
                .flatten()
                .map(move |cols| self.grid.run(row, cols))
        })
    }

    /// All unordered tower pairs within `range_km` of each other, as index
    /// pairs `(i, j)` with `i < j`.
    pub fn pairs_within(&self, range_km: f64) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        let mut near = Vec::new();
        for i in 0..self.towers.len() {
            self.higher_towers_within_into(i, range_km, &mut near);
            pairs.extend(near.iter().map(|&(j, _)| (i, j)));
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cities::us_top_cities;

    fn small_registry(seed: u64) -> TowerRegistry {
        let cities = us_top_cities(30);
        TowerRegistry::synthesize(
            seed,
            (24.5, 49.5, -125.0, -66.5),
            &cities,
            &TowerRegistryConfig::small(),
        )
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = small_registry(1);
        let b = small_registry(1);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.towers()[0], b.towers()[0]);
        let c = small_registry(2);
        assert_ne!(
            a.towers()[0].location.lat_deg,
            c.towers()[0].location.lat_deg
        );
    }

    #[test]
    fn culling_respects_fcc_height_rule() {
        let reg = small_registry(3);
        for t in reg.towers() {
            if t.source == TowerSource::FccRegistration {
                assert!(
                    t.height_m >= 100.0,
                    "FCC tower of {} m survived",
                    t.height_m
                );
            }
            assert!(t.height_m >= 60.0 && t.height_m <= 350.0);
        }
    }

    #[test]
    fn culling_respects_cell_cap() {
        let reg = small_registry(4);
        let mut per_cell = std::collections::HashMap::new();
        for t in reg.towers() {
            *per_cell.entry(t.location.grid_cell(CELL_DEG)).or_insert(0) += 1;
        }
        assert!(per_cell.values().all(|&n| n <= 50), "{per_cell:?}");
    }

    #[test]
    fn towers_stay_inside_bounding_box() {
        let reg = small_registry(5);
        for t in reg.towers() {
            assert!(t.location.lat_deg >= 24.5 && t.location.lat_deg <= 49.5);
            assert!(t.location.lon_deg >= -125.0 && t.location.lon_deg <= -66.5);
        }
    }

    #[test]
    fn density_is_higher_near_big_cities() {
        let reg = small_registry(6);
        let nyc = GeoPoint::new(40.71, -74.0);
        let rural_montana = GeoPoint::new(47.0, -108.5);
        let near_nyc = reg.towers_within(nyc, 100.0).len();
        let near_rural = reg.towers_within(rural_montana, 100.0).len();
        assert!(
            near_nyc > near_rural,
            "NYC {near_nyc} towers vs rural Montana {near_rural}"
        );
        assert!(
            near_nyc >= 5,
            "cities must host several towers ({near_nyc})"
        );
    }

    #[test]
    fn range_query_matches_brute_force() {
        let reg = small_registry(7);
        let p = GeoPoint::new(39.0, -95.0);
        let radius = 120.0;
        let fast = reg.towers_within(p, radius);
        let brute: Vec<usize> = reg
            .towers()
            .iter()
            .enumerate()
            .filter(|(_, t)| geodesic::distance_km(p, t.location) <= radius)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(fast, brute);
    }

    #[test]
    fn pairs_within_are_symmetric_free_and_in_range() {
        let cities = us_top_cities(10);
        let reg = TowerRegistry::synthesize(
            8,
            (30.0, 45.0, -100.0, -80.0),
            &cities,
            &TowerRegistryConfig {
                raw_count: 400,
                ..TowerRegistryConfig::default()
            },
        );
        let pairs = reg.pairs_within(100.0);
        for &(i, j) in &pairs {
            assert!(i < j);
            let d = geodesic::distance_km(reg.towers()[i].location, reg.towers()[j].location);
            assert!(d <= 100.0 + 1e-9);
        }
        // No duplicates.
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), pairs.len());
    }

    #[test]
    fn towers_within_into_reuses_buffer_and_matches() {
        let reg = small_registry(9);
        let mut buf = vec![usize::MAX; 7]; // stale contents must be cleared
        for (k, &(lat, lon)) in [(40.0, -90.0), (35.0, -110.0), (45.0, -75.0)]
            .iter()
            .enumerate()
        {
            let p = GeoPoint::new(lat, lon);
            let radius = 80.0 + 40.0 * k as f64;
            reg.towers_within_into(p, radius, &mut buf);
            assert_eq!(buf, reg.towers_within(p, radius));
        }
    }

    /// `n` towers scattered up to `reach_km` from `center`.
    fn scattered(center: GeoPoint, reach_km: f64, n: usize) -> TowerRegistry {
        let mut rng = seeded_rng(n as u64, "scattered towers");
        TowerRegistry::from_towers(
            (0..n)
                .map(|_| Tower {
                    location: geodesic::destination(
                        center,
                        360.0 * rng.gen::<f64>(),
                        reach_km * rng.gen::<f64>().sqrt(),
                    ),
                    height_m: 100.0,
                    source: TowerSource::RentalCompany,
                })
                .collect(),
        )
    }

    /// Every query of `reg` around each of its towers and at `extra`
    /// points against a scan of every tower, results in ascending order;
    /// the partner query's distances bit for bit.
    fn assert_queries_match_brute_force(reg: &TowerRegistry, extra: &[GeoPoint], radius_km: f64) {
        let brute = |p: GeoPoint| -> Vec<usize> {
            (0..reg.len())
                .filter(|&i| geodesic::distance_km(p, reg.towers()[i].location) <= radius_km)
                .collect()
        };
        let mut near = Vec::new();
        let mut partners = Vec::new();
        let towers = reg.towers().iter().map(|t| t.location);
        for (k, p) in towers.chain(extra.iter().copied()).enumerate() {
            reg.towers_within_into(p, radius_km, &mut near);
            let expected = brute(p);
            assert_eq!(near, expected, "query {k} at {p}");
            if k < reg.len() {
                reg.higher_towers_within_into(k, radius_km, &mut partners);
                let higher: Vec<(usize, u64)> = expected
                    .iter()
                    .filter(|&&j| j > k)
                    .map(|&j| {
                        (
                            j,
                            geodesic::distance_km(p, reg.towers()[j].location).to_bits(),
                        )
                    })
                    .collect();
                let got: Vec<(usize, u64)> =
                    partners.iter().map(|&(j, d)| (j, d.to_bits())).collect();
                assert_eq!(got, higher, "partners of tower {k} at {p}");
            }
        }
    }

    // At 80° N a 100 km disc spans ±5.19° of longitude: a window padded as
    // if cos φ were never below 0.2 reaches only ±5.0° plus the query's
    // offset within its cell, and drops towers near the disc's east and
    // west edges.
    #[test]
    fn range_query_at_80_north_matches_brute_force() {
        let center = GeoPoint::new(80.0, 20.0);
        let reg = scattered(center, 140.0, 1_500);
        let edges: Vec<GeoPoint> = [0.0, 0.13, 0.26, 0.37, 0.49]
            .iter()
            .flat_map(|&off| {
                [
                    GeoPoint::new(80.0, 20.0 + off),
                    GeoPoint::new(79.9, 19.8 - off),
                ]
            })
            .collect();
        assert_queries_match_brute_force(&reg, &edges, 100.0);
        // The towers the old padding missed are there: some lie beyond 5°
        // of longitude from a query point yet within range.
        let far_east = reg
            .towers_within(center, 100.0)
            .into_iter()
            .filter(|&i| (reg.towers()[i].location.lon_deg - center.lon_deg).abs() > 5.0);
        assert!(far_east.count() > 0);
    }

    #[test]
    fn range_query_across_the_antimeridian_matches_brute_force() {
        for center in [
            GeoPoint::new(0.0, 179.9),
            GeoPoint::new(52.0, -179.7),
            GeoPoint::new(-65.0, 180.0),
        ] {
            let reg = scattered(center, 160.0, 800);
            let west = reg
                .towers()
                .iter()
                .filter(|t| t.location.lon_deg < 0.0)
                .count();
            assert!(
                west > 0 && west < reg.len(),
                "both sides of ±180° hold towers"
            );
            assert_queries_match_brute_force(&reg, &[center], 100.0);
        }
    }

    #[test]
    fn range_query_over_a_pole_scans_the_whole_band() {
        let reg = scattered(GeoPoint::new(90.0, 0.0), 250.0, 600);
        let extra = [GeoPoint::new(89.5, -135.0), GeoPoint::new(88.0, 45.0)];
        assert_queries_match_brute_force(&reg, &extra, 100.0);
    }

    #[test]
    fn from_towers_roundtrip_and_empty() {
        let empty = TowerRegistry::from_towers(Vec::new());
        assert!(empty.is_empty());
        assert!(empty
            .towers_within(GeoPoint::new(0.0, 0.0), 50.0)
            .is_empty());
    }
}
