//! The obstruction envelope and the hop-feasibility cascade built on it,
//! checked against oracles that share none of their code:
//!
//! * `value_noise_range` against dense sampling of `value_noise`;
//! * the envelope's per-cell bound against `elevation_m + clutter_m` at
//!   random points, for the two built-in terrains and for random models
//!   with hostile range geometry;
//! * the cascaded hop sweep against an exact-only sweep written here from
//!   the public per-sample functions, hop list order included.

use cisp::core::hops::{FeasibleHop, HopConfig, HopFeasibility};
use cisp::core::scenario::ScenarioConfig;
use cisp::data::cities::us_population_centers;
use cisp::data::towers::{TowerRegistry, TowerRegistryConfig};
use cisp::geo::{fresnel, geodesic, GeoPoint};
use cisp::terrain::clutter::{ClutterModel, ClutterParams};
use cisp::terrain::elevation::BaseTerrainParams;
use cisp::terrain::noise::{mix64, value_noise, value_noise_range};
use cisp::terrain::{profile, MountainRange, ObstructionEnvelope, TerrainModel};
use proptest::prelude::*;

/// A counter-mode generator over `mix64`, for the many draws one case needs.
struct Draws {
    seed: u64,
    next: u64,
}

impl Draws {
    fn new(seed: u64) -> Self {
        Self { seed, next: 0 }
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        self.next += 1;
        (mix64(self.seed ^ mix64(self.next)) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn between(&mut self, low: f64, high: f64) -> f64 {
        low + (high - low) * self.unit()
    }

    fn pick<T: Clone>(&mut self, options: &[T]) -> T {
        options[(self.unit() * options.len() as f64) as usize].clone()
    }
}

/// Check `cell_max_m(p) >= elevation_m(p) + clutter_m(p)` at `p` and at a
/// few points scattered within a cell's width of it (so several positions
/// of the same and of neighbouring cells are hit).
fn check_bound_around(
    envelope: &ObstructionEnvelope,
    terrain: &TerrainModel,
    clutter: &ClutterModel,
    anchor: GeoPoint,
    draws: &mut Draws,
) -> TestCaseResult {
    for k in 0..4 {
        let spread = if k == 0 { 0.0 } else { 0.05 };
        let p = GeoPoint::new(
            anchor.lat_deg + draws.between(-spread, spread),
            anchor.lon_deg + draws.between(-spread, spread),
        );
        let Some(bound) = envelope.cell_max_m(p) else {
            continue; // off the grid: the sweep samples such points exactly
        };
        let surface = terrain.elevation_m(p) + clutter.clutter_m(p);
        prop_assert!(
            bound >= surface,
            "bound {bound} < surface {surface} at {p} ({terrain:?}, {clutter:?})"
        );
    }
    Ok(())
}

/// A random terrain whose ranges all lie near (40°, -100°): short,
/// degenerate (zero-length), long and overlapping axes, narrow and wide
/// Gaussians, with or without relief and crest noise.
fn hostile_terrain(draws: &mut Draws) -> TerrainModel {
    let n_ranges = 1 + (draws.unit() * 4.0) as usize;
    let mut ranges: Vec<MountainRange> = Vec::new();
    for k in 0..n_ranges {
        let start = match (k, draws.unit() < 0.3) {
            // Overlap: start where the previous range started or ended.
            (1.., true) => draws.pick(&[ranges[k - 1].start, ranges[k - 1].end]),
            _ => GeoPoint::new(draws.between(36.0, 44.0), draws.between(-105.0, -95.0)),
        };
        let length_km = draws.pick(&[0.0, 1e-6, 0.5, 20.0, 300.0, 900.0]);
        let end = geodesic::destination(start, draws.between(0.0, 360.0), length_km);
        ranges.push(MountainRange::new(
            "random",
            start,
            end,
            draws.between(100.0, 3000.0),
            draws.pick(&[3.0, 15.0, 60.0, 180.0]),
        ));
    }
    let base = BaseTerrainParams {
        baseline_m: draws.between(-100.0, 600.0),
        relief_m: draws.pick(&[0.0, 40.0, 220.0, 500.0]),
        correlation_deg: draws.pick(&[0.01, 0.1, 0.8, 3.0]),
    };
    TerrainModel::new(draws.next, base, ranges, draws.pick(&[0.0, 0.35, 1.0]))
}

fn random_clutter(draws: &mut Draws) -> ClutterModel {
    let max_canopy_m = draws.pick(&[0.0, 8.0, 30.0, 60.0]);
    ClutterModel::new(
        draws.next,
        ClutterParams {
            max_canopy_m,
            min_vegetation_m: max_canopy_m * draws.pick(&[0.0, 0.1, 1.0]),
            forest_fraction: draws.pick(&[0.0, 0.05, 0.45, 0.95, 1.0]),
        },
    )
}

/// Points that stress one range's bound: along the axis and its great
/// circle beyond both ends, offset sideways by multiples of the half-width
/// on either side of the 4σ cut-off.
fn points_around(range: &MountainRange, draws: &mut Draws) -> Vec<GeoPoint> {
    let length_km = geodesic::distance_km(range.start, range.end);
    let heading = if length_km > 1e-9 {
        geodesic::initial_bearing_deg(range.start, range.end)
    } else {
        draws.between(0.0, 360.0)
    };
    let reach_km = length_km + 5.0 * range.half_width_km;
    (0..24)
        .map(|_| {
            // Signed along-track position: negative is behind the start.
            let along_km = draws.between(-reach_km, length_km + reach_km);
            let on_circle = if along_km >= 0.0 {
                geodesic::destination(range.start, heading, along_km)
            } else {
                geodesic::destination(range.start, heading + 180.0, -along_km)
            };
            let sigmas = draws.pick(&[0.0, 0.5, 2.0, 3.95, 4.0, 4.05, 6.0]);
            let side = draws.pick(&[90.0, 270.0]);
            geodesic::destination(on_circle, heading + side, sigmas * range.half_width_km)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // (a) The range brackets every sampled value.
    #[test]
    fn value_noise_range_brackets_dense_sampling(
        x0 in -40.0..40.0f64,
        y0 in -40.0..40.0f64,
        // Up to several lattice lines per axis, down to a sliver of a cell.
        width in 0.0..4.5f64,
        height in 0.0..4.5f64,
        seed in 0u64..1_000_000,
    ) {
        let (x1, y1) = (x0 + width, y0 + height);
        let (lo, hi) = value_noise_range((x0, x1), (y0, y1), seed);
        // Ends given in either order describe the same rectangle.
        prop_assert_eq!(value_noise_range((x1, x0), (y1, y0), seed), (lo, hi));
        prop_assert!((0.0..=1.0).contains(&lo) && lo <= hi && hi <= 1.0);
        let steps = 48;
        let (mut seen_lo, mut seen_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for i in 0..=steps {
            for j in 0..=steps {
                let x = x0 + width * i as f64 / steps as f64;
                let y = y0 + height * j as f64 / steps as f64;
                let v = value_noise(x, y, seed);
                prop_assert!(
                    lo - 1e-12 <= v && v <= hi + 1e-12,
                    "value {v} at ({x}, {y}) outside [{lo}, {hi}]"
                );
                seen_lo = seen_lo.min(v);
                seen_hi = seen_hi.max(v);
            }
        }
        // And it is tight: each end is attained inside the rectangle, and
        // the noise moves by at most 1.875 (the quintic's steepest slope)
        // per unit of either coordinate, so the nearest sample is close.
        let resolution = 1.875 * (width + height) / steps as f64 + 1e-12;
        prop_assert!(seen_lo - lo <= resolution && hi - seen_hi <= resolution);
    }

    // (b) Built-in terrains: random points over the whole region.
    #[test]
    fn cell_bound_covers_the_builtin_terrains(seed in 0u64..1_000_000) {
        let mut draws = Draws::new(seed);
        let us = (24.0, 50.0, -125.0, -66.0);
        let europe = (35.0, 71.0, -11.0, 32.0);
        for (terrain, bbox) in [
            (TerrainModel::united_states(seed), us),
            (TerrainModel::europe(seed), europe),
        ] {
            let clutter = ClutterModel::with_seed(seed);
            let envelope = ObstructionEnvelope::new(&terrain, &clutter, bbox);
            let mut anchors: Vec<GeoPoint> = (0..24)
                .map(|_| GeoPoint::new(
                    draws.between(bbox.0, bbox.1),
                    draws.between(bbox.2, bbox.3),
                ))
                .collect();
            let range = draws.pick(terrain.ranges());
            anchors.extend(points_around(&range, &mut draws));
            for anchor in anchors {
                check_bound_around(&envelope, &terrain, &clutter, anchor, &mut draws)?;
            }
            prop_assert!(envelope.cells_filled() > 0);
        }
    }

    // (b) Random models with short, degenerate and overlapping axes, points
    // beyond both axis ends and cells straddling the 4σ cut-off.
    #[test]
    fn cell_bound_covers_random_models(seed in 0u64..1_000_000) {
        let mut draws = Draws::new(seed);
        let terrain = hostile_terrain(&mut draws);
        let clutter = random_clutter(&mut draws);
        let envelope = ObstructionEnvelope::new(&terrain, &clutter, (25.0, 55.0, -120.0, -80.0));
        for range in terrain.ranges() {
            for anchor in points_around(range, &mut draws) {
                check_bound_around(&envelope, &terrain, &clutter, anchor, &mut draws)?;
            }
        }
    }
}

/// The feasible hops of `towers` from per-sample exact arithmetic only:
/// every interior sample of every in-range pair is located with
/// `geodesic::intermediate`, its obstacle sampled from the models and its
/// clearance judged by `fresnel::sample_is_clear`.
fn exact_only_hops(
    towers: &TowerRegistry,
    terrain: &TerrainModel,
    clutter: &ClutterModel,
    config: HopConfig,
) -> Vec<FeasibleHop> {
    let all = towers.towers();
    towers
        .pairs_within(config.max_range_km)
        .into_iter()
        .filter_map(|(i, j)| {
            let (a, b) = (i.min(j), i.max(j));
            let (ta, tb) = (&all[a], &all[b]);
            let length_km = geodesic::distance_km(ta.location, tb.location);
            if length_km > config.max_range_km || length_km < 0.1 {
                return None;
            }
            let h_a =
                terrain.elevation_m(ta.location) + ta.height_m * config.usable_height_fraction;
            let h_b =
                terrain.elevation_m(tb.location) + tb.height_m * config.usable_height_fraction;
            let n = profile::samples_for_hop(length_km);
            (1..n - 1)
                .all(|idx| {
                    let frac = idx as f64 / (n - 1) as f64;
                    let p = geodesic::intermediate(ta.location, tb.location, frac);
                    fresnel::sample_is_clear(
                        length_km,
                        h_a,
                        h_b,
                        frac,
                        terrain.elevation_m(p) + clutter.clutter_m(p),
                        config.frequency_ghz,
                        config.k_factor,
                    )
                })
                .then_some(FeasibleHop {
                    tower_a: a,
                    tower_b: b,
                    length_km,
                })
        })
        .collect()
}

// (c) Regional terrain: a registry straddling the central Rockies' crest
// (≈ -106°) from the Great Basin to the high plains, so the sweep sees
// blocked, marginal and wide-open hops.
#[test]
fn cascaded_sweep_equals_exact_only_sweep_across_the_rockies() {
    let bbox = (32.0, 46.0, -116.0, -96.0);
    let cities: Vec<_> = us_population_centers()
        .into_iter()
        .filter(|c| {
            (bbox.0..=bbox.1).contains(&c.location.lat_deg)
                && (bbox.2..=bbox.3).contains(&c.location.lon_deg)
        })
        .collect();
    let towers = TowerRegistry::synthesize(
        11,
        bbox,
        &cities,
        &TowerRegistryConfig {
            raw_count: 2_150,
            ..TowerRegistryConfig::default()
        },
    );
    assert!(towers.len() >= 1_500, "only {} towers", towers.len());
    let terrain = TerrainModel::united_states(11);
    let clutter = ClutterModel::with_seed(11);
    let config = HopConfig::default();

    let reference = exact_only_hops(&towers, &terrain, &clutter, config);
    let pairs = towers.pairs_within(config.max_range_km).len();
    // Both verdicts are well represented.
    assert!(reference.len() * 10 > pairs && reference.len() * 10 < pairs * 9);

    // A fresh engine per worker count: every sweep fills its own grid.
    let engine = HopFeasibility::new(&towers, &terrain, &clutter, config);
    let (serial, stats) = engine.all_feasible_hops_profiled(1);
    assert!(serial == reference, "serial hop list differs");
    for workers in [0, 3] {
        let engine = HopFeasibility::new(&towers, &terrain, &clutter, config);
        let hops = engine.all_feasible_hops_with(workers);
        assert!(hops == reference, "hop list differs at workers = {workers}");
    }
    // The bounds did decide samples on the way, and some were marginal.
    assert_eq!(
        stats.samples,
        stats.by_global_bound + stats.by_cell_bound + stats.elevation_only + stats.exact
    );
    assert!(stats.bound_share() > 0.25 && stats.exact > 0, "{stats:?}");
    assert!(stats.cells_filled > 0);
}

// (c) Flat terrain: the global bound is the surface, no grid exists, and
// the list still equals the exact-only one.
#[test]
fn cascaded_sweep_equals_exact_only_sweep_on_tiny_test() {
    let scenario = ScenarioConfig::tiny_test();
    let bbox = scenario.site_bbox.expect("tiny_test has a site box");
    let mut cities = us_population_centers();
    cities.retain(|c| {
        (bbox.0..=bbox.1).contains(&c.location.lat_deg)
            && (bbox.2..=bbox.3).contains(&c.location.lon_deg)
    });
    cities.truncate(scenario.max_sites.expect("tiny_test caps its sites"));
    let towers = TowerRegistry::synthesize(scenario.seed, bbox, &cities, &scenario.towers);
    let terrain = TerrainModel::flat();
    let clutter = ClutterModel::none();

    let reference = exact_only_hops(&towers, &terrain, &clutter, scenario.hops);
    assert!(!reference.is_empty());
    for workers in [1, 0, 3] {
        let engine = HopFeasibility::new(&towers, &terrain, &clutter, scenario.hops);
        let (hops, stats) = engine.all_feasible_hops_profiled(workers);
        assert!(hops == reference, "hop list differs at workers = {workers}");
        assert_eq!(stats.by_cell_bound, 0);
        assert_eq!(stats.cells_filled, 0);
        // Every clear sample is decided before its position is computed;
        // only a blocked hop's one blocked sample reaches the terrain.
        assert_eq!(
            stats.samples - stats.by_global_bound,
            (towers.pairs_within(scenario.hops.max_range_km).len() - reference.len()) as u64
        );
    }
}
