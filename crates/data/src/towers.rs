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

use cisp_geo::{geodesic, GeoPoint};
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
    /// Grid index: 0.5°-cell → tower indices, for range queries.
    grid: GridIndex,
}

/// Cell size of the spatial index, in degrees.
const CELL_DEG: f64 = 0.5;

/// Flat grid-bucket index: one sorted array of packed cell keys, one CSR
/// offset array, one contiguous item array.
///
/// The previous `HashMap<(i32, i32), Vec<usize>>` paid a hash plus a
/// pointer-chase per probed cell and scattered every bucket across the heap;
/// a full `pairs_within` sweep probes hundreds of thousands of cells. Here a
/// probe is one binary search over a dense `i64` array and the bucket is a
/// slice of one shared allocation. Buckets hold tower indices in ascending
/// order (the build sort is by `(key, index)`), matching the hash version's
/// per-bucket insertion order.
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

/// Pack a grid cell into one orderable key.
#[inline]
fn pack_cell(cell: (i32, i32)) -> i64 {
    ((cell.0 as i64) << 32) | (cell.1 as i64 & 0xFFFF_FFFF)
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

    /// Tower indices in `cell`, or an empty slice.
    #[inline]
    fn bucket(&self, cell: (i32, i32)) -> &[u32] {
        match self.keys.binary_search(&pack_cell(cell)) {
            Ok(k) => &self.items[self.offsets[k] as usize..self.offsets[k + 1] as usize],
            Err(_) => &[],
        }
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
        Self { towers, grid }
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
    /// first), so sweeping callers — site attachment, the hop sweep,
    /// `pairs_within` — reuse one allocation across queries. Results are
    /// ascending tower indices, identical to `towers_within`.
    pub fn towers_within_into(&self, point: GeoPoint, radius_km: f64, result: &mut Vec<usize>) {
        assert!(radius_km >= 0.0);
        result.clear();
        // 0.5° of latitude ≈ 55.6 km; pad the cell search generously for
        // longitude shrink at high latitudes.
        let lat_cells = (radius_km / 55.6 / CELL_DEG).ceil() as i32 + 1;
        let cos_lat = point.lat_deg.to_radians().cos().max(0.2);
        let lon_cells = (radius_km / (111.32 * cos_lat) / CELL_DEG).ceil() as i32 + 1;
        let (cell_lat, cell_lon) = point.grid_cell(CELL_DEG);

        for dlat in -lat_cells..=lat_cells {
            for dlon in -lon_cells..=lon_cells {
                for &i in self.grid.bucket((cell_lat + dlat, cell_lon + dlon)) {
                    let i = i as usize;
                    if geodesic::distance_km(point, self.towers[i].location) <= radius_km {
                        result.push(i);
                    }
                }
            }
        }
        result.sort_unstable();
    }

    /// All unordered tower pairs within `range_km` of each other, as index
    /// pairs `(i, j)` with `i < j`.
    pub fn pairs_within(&self, range_km: f64) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        let mut near = Vec::new();
        for i in 0..self.towers.len() {
            self.towers_within_into(self.towers[i].location, range_km, &mut near);
            for &j in &near {
                if j > i {
                    pairs.push((i, j));
                }
            }
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

    #[test]
    fn from_towers_roundtrip_and_empty() {
        let empty = TowerRegistry::from_towers(Vec::new());
        assert!(empty.is_empty());
        assert!(empty
            .towers_within(GeoPoint::new(0.0, 0.0), 50.0)
            .is_empty());
    }
}
