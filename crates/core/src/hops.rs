//! Step 1(a): microwave hop feasibility between tower pairs.
//!
//! A hop between two towers is feasible when (§2, §3.1):
//!
//! * the towers are within the maximum practicable range (default 100 km, we
//!   also evaluate 60–100 km, Fig. 10),
//! * the straight line between the two antennas clears the Earth bulge (with
//!   refraction factor `K = 1.3`) plus a fully clear first Fresnel zone at
//!   `f = 11 GHz`, over the terrain + clutter surface, and
//! * the antennas can only be mounted up to a *usable height fraction* of the
//!   tower (Fig. 10 evaluates 1.0, 0.85, 0.65, 0.45).
//!
//! # The per-sample cascade
//!
//! A hop is feasible iff every interior sample of its profile is clear, and
//! a sample is clear iff `headroom − obstacle >= 0`, where the *headroom*
//! (sight line minus bulge and Fresnel radius,
//! [`fresnel::sample_headroom_m`]) depends only on the two antennas and the
//! *obstacle* is `elevation_m(p) + clutter_m(p)` — four noise fields (16
//! octaves) and nine ridge distances, ~0.7 µs. The median feasible hop
//! clears its tightest sample by tens of metres, so most samples can be
//! decided from an upper bound on the obstacle ([`ObstructionEnvelope`])
//! that costs a table look-up. Each sample runs down four tiers and stops
//! at the first that decides it; every tier returns the verdict the last
//! one would:
//!
//! 1. **Global bound**: `headroom − U_global >= ε` ⇒ clear, before the
//!    sample's position is even computed. On flat terrain `U_global` is the
//!    surface itself, so this decides every clear sample.
//! 2. **Cell bound**: locate the sample, look its 0.05° cell's maximum up:
//!    `headroom − U_cell >= ε` ⇒ clear.
//! 3. **Elevation only**: sample the terrain but not the clutter. With
//!    `bare = headroom − elevation_m(p)` and the clutter model's global
//!    `[c_min, c_max]`: `bare − c_max >= ε` ⇒ clear, `bare − c_min < −ε` ⇒
//!    blocked.
//! 4. **Exact**: [`fresnel::sample_is_clear`] on the sampled obstacle — the
//!    arithmetic of the reference profile pipeline, and the only place a
//!    marginal sample is ever judged.
//!
//! **Soundness.** `U_global`, `U_cell`, `c_min` and `c_max` bound the
//! sampled surface at every point (the argument for each is in
//! [`cisp_terrain::envelope`]), so in real arithmetic tiers 1–3 can only
//! fire when tier 4 would agree. `BOUND_SLACK_M` (ε = 1 mm) covers the
//! difference between real and `f64` arithmetic: the bounds and the
//! headroom/obstacle subtraction are each off by at most ~1e-9 m at
//! kilometre magnitudes, six orders below ε, so a sample within ε of
//! marginal always reaches tier 4. Samples outside the envelope's grid skip
//! tier 2. Nothing here is a second implementation of the verdict: tiers
//! 1–3 only ever *skip* work tier 4 would have done.
//!
//! The sweep over every tower pair in range
//! ([`HopFeasibility::all_feasible_hops_with`]) drains fixed-length runs of
//! towers through [`cisp_netsim::jobs::drain_jobs`]; each job enumerates its
//! own towers' in-range partners, so the list of pairs is never held, and
//! the jobs merge in pair order.

use cisp_data::towers::TowerRegistry;
use cisp_geo::{fresnel, geodesic, units};
use cisp_netsim::jobs::{drain_jobs, resolve_workers};
use cisp_terrain::{clutter::ClutterModel, profile, ObstructionEnvelope, TerrainModel};
use serde::{Deserialize, Serialize};

/// ε of the cascade: a bound decides a sample only with this much margin to
/// spare, in metres. See the module docs.
const BOUND_SLACK_M: f64 = 1e-3;

/// The envelope's grid covers the towers' bounding box grown by this much,
/// in degrees: a great-circle hop bows poleward of both its ends (by
/// ≈ 0.002° for 100 km at 49° N).
const GRID_MARGIN_DEG: f64 = 0.1;

/// Consecutive towers one job of the sweep enumerates the partners `j > i`
/// of and assesses: ≈ 1 000 pairs at paper scale (470 k pairs over 10.5 k
/// towers), a few milliseconds of work, and several hundred jobs.
const TOWERS_PER_JOB: usize = 24;

/// Parameters of the hop-feasibility assessment.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HopConfig {
    /// Maximum tower-to-tower range in kilometres (paper default: 100 km).
    pub max_range_km: f64,
    /// Microwave carrier frequency in GHz (paper: 11 GHz).
    pub frequency_ghz: f64,
    /// Effective-Earth-radius factor for refraction (paper: K = 1.3).
    pub k_factor: f64,
    /// Fraction of each tower's height usable for mounting antennas
    /// (paper baseline: 1.0, i.e. the tower top; Fig. 10 explores less).
    pub usable_height_fraction: f64,
}

impl Default for HopConfig {
    fn default() -> Self {
        Self {
            max_range_km: units::DEFAULT_MAX_HOP_KM,
            frequency_ghz: units::DEFAULT_MICROWAVE_FREQ_GHZ,
            k_factor: units::DEFAULT_K_FACTOR,
            usable_height_fraction: 1.0,
        }
    }
}

impl HopConfig {
    /// The paper's baseline configuration (100 km, 11 GHz, K = 1.3, tops).
    pub fn paper_baseline() -> Self {
        Self::default()
    }

    /// A restricted configuration for the Fig. 10 sensitivity study.
    pub fn restricted(max_range_km: f64, usable_height_fraction: f64) -> Self {
        assert!(max_range_km > 0.0);
        assert!((0.0..=1.0).contains(&usable_height_fraction) && usable_height_fraction > 0.0);
        Self {
            max_range_km,
            usable_height_fraction,
            ..Self::default()
        }
    }
}

/// A feasible microwave hop between two towers of a [`TowerRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeasibleHop {
    /// Index of the first tower (lower index).
    pub tower_a: usize,
    /// Index of the second tower (higher index).
    pub tower_b: usize,
    /// Great-circle length of the hop in kilometres.
    pub length_km: f64,
}

/// How one hop sweep's interior samples were decided, by cascade tier (see
/// the module docs). `samples` is the sum of the four tiers; a blocked hop
/// stops at its first blocked sample, so it contributes only the samples
/// probed up to there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HopSweepStats {
    /// Interior samples probed.
    pub samples: u64,
    /// Cleared by the global obstruction bound (tier 1).
    pub by_global_bound: u64,
    /// Cleared by the sample's grid-cell bound (tier 2).
    pub by_cell_bound: u64,
    /// Decided from the terrain elevation without sampling clutter (tier 3).
    pub elevation_only: u64,
    /// Judged by the exact terrain + clutter arithmetic (tier 4).
    pub exact: u64,
    /// Envelope grid cells computed during the sweep.
    pub cells_filled: u64,
}

impl HopSweepStats {
    /// Share of the probed samples decided by a bound (tiers 1 and 2),
    /// without sampling the terrain; 0 for an empty sweep.
    pub fn bound_share(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        (self.by_global_bound + self.by_cell_bound) as f64 / self.samples as f64
    }

    fn add_samples(&mut self, other: &Self) {
        self.samples += other.samples;
        self.by_global_bound += other.by_global_bound;
        self.by_cell_bound += other.by_cell_bound;
        self.elevation_only += other.elevation_only;
        self.exact += other.exact;
    }
}

/// The hop-feasibility engine: bundles the terrain, clutter, tower registry
/// and configuration, and answers per-pair feasibility queries.
///
/// Construction precomputes each tower's antenna height above sea level
/// (ground elevation + usable fraction of the structure) and sets up the
/// [`ObstructionEnvelope`] over the registry's bounding box (its cells fill
/// lazily, during sweeps). Per-pair assessment probes the interior samples
/// middle-out with early exit — the Earth-bulge clearance requirement peaks
/// mid-hop and most blocked hops fail there first — and decides each sample
/// through the cascade of the module docs. Feasibility verdicts are
/// identical to the reference profile pipeline
/// ([`profile::obstruction_profile`] → [`fresnel::evaluate_profile`] →
/// [`fresnel::profile_is_clear`]): the exact tier's arithmetic is the same,
/// the bound tiers only fire where it would agree, and "every interior
/// sample clear" does not depend on evaluation order.
pub struct HopFeasibility<'a> {
    towers: &'a TowerRegistry,
    terrain: &'a TerrainModel,
    clutter: &'a ClutterModel,
    config: HopConfig,
    /// Per-tower antenna height above sea level, in metres.
    antenna_asl_m: Vec<f64>,
    envelope: ObstructionEnvelope<'a>,
}

impl<'a> HopFeasibility<'a> {
    /// Create the engine.
    pub fn new(
        towers: &'a TowerRegistry,
        terrain: &'a TerrainModel,
        clutter: &'a ClutterModel,
        config: HopConfig,
    ) -> Self {
        assert!(config.max_range_km > 0.0);
        assert!(config.frequency_ghz > 0.0);
        assert!(config.k_factor > 0.0);
        assert!(config.usable_height_fraction > 0.0 && config.usable_height_fraction <= 1.0);
        let antenna_asl_m = towers
            .towers()
            .iter()
            .map(|t| terrain.elevation_m(t.location) + t.height_m * config.usable_height_fraction)
            .collect();
        let inf = f64::INFINITY;
        let (min_lat, max_lat, min_lon, max_lon) = towers.towers().iter().fold(
            (inf, -inf, inf, -inf),
            |(min_lat, max_lat, min_lon, max_lon), t| {
                (
                    min_lat.min(t.location.lat_deg),
                    max_lat.max(t.location.lat_deg),
                    min_lon.min(t.location.lon_deg),
                    max_lon.max(t.location.lon_deg),
                )
            },
        );
        let envelope = ObstructionEnvelope::new(
            terrain,
            clutter,
            (
                min_lat - GRID_MARGIN_DEG,
                max_lat + GRID_MARGIN_DEG,
                min_lon - GRID_MARGIN_DEG,
                max_lon + GRID_MARGIN_DEG,
            ),
        );
        Self {
            towers,
            terrain,
            clutter,
            config,
            antenna_asl_m,
            envelope,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> HopConfig {
        self.config
    }

    /// Assess a single tower pair. Returns the hop if it is feasible.
    pub fn assess_pair(&self, i: usize, j: usize) -> Option<FeasibleHop> {
        self.assess_pair_counted(i, j, &mut HopSweepStats::default())
    }

    /// [`Self::assess_pair`], adding the tier that decided each probed
    /// sample to `stats`.
    fn assess_pair_counted(
        &self,
        i: usize,
        j: usize,
        stats: &mut HopSweepStats,
    ) -> Option<FeasibleHop> {
        let (a, b) = (i.min(j), i.max(j));
        let ta = &self.towers.towers()[a];
        let tb = &self.towers.towers()[b];
        let length_km = geodesic::distance_km(ta.location, tb.location);
        if length_km > self.config.max_range_km || length_km < 0.1 {
            return None;
        }

        // Antenna heights above sea level: ground + usable fraction of the
        // structure (precomputed per tower).
        let h_a = self.antenna_asl_m[a];
        let h_b = self.antenna_asl_m[b];
        let HopConfig {
            frequency_ghz,
            k_factor,
            ..
        } = self.config;

        let n = profile::samples_for_hop(length_km);
        let sampler = geodesic::PathSampler::new(ta.location, tb.location);
        let denom = (n - 1) as f64;
        let global_max_m = self.envelope.global_max_m();
        let (clutter_min_m, clutter_max_m) = self.envelope.clutter_range_m();
        // One interior sample of the reference profile pipeline, decided by
        // the first tier of the cascade that can (module docs).
        let mut clear = |idx: usize| -> bool {
            let frac = idx as f64 / denom;
            let headroom_m =
                fresnel::sample_headroom_m(length_km, h_a, h_b, frac, frequency_ghz, k_factor);
            stats.samples += 1;
            if headroom_m - global_max_m >= BOUND_SLACK_M {
                stats.by_global_bound += 1;
                return true;
            }
            let p = sampler.point_at(frac);
            if let Some(cell_max_m) = self.envelope.cell_max_m(p) {
                if headroom_m - cell_max_m >= BOUND_SLACK_M {
                    stats.by_cell_bound += 1;
                    return true;
                }
            }
            let elevation_m = self.terrain.elevation_m(p);
            let bare_m = headroom_m - elevation_m;
            let clear_of_any_clutter = bare_m - clutter_max_m >= BOUND_SLACK_M;
            if clear_of_any_clutter || bare_m - clutter_min_m < -BOUND_SLACK_M {
                stats.elevation_only += 1;
                return clear_of_any_clutter;
            }
            stats.exact += 1;
            let obstacle_m = elevation_m + self.clutter.clutter_m(p);
            fresnel::sample_is_clear(
                length_km,
                h_a,
                h_b,
                frac,
                obstacle_m,
                frequency_ghz,
                k_factor,
            )
        };
        // Interior samples are indices 1..=n-2 (endpoints are the antennas
        // themselves); probe them middle-out with early exit.
        let mid = (n - 1) / 2;
        let mut lo = mid as isize;
        let mut hi = mid + 1;
        while lo >= 1 || hi <= n - 2 {
            if lo >= 1 {
                if !clear(lo as usize) {
                    return None;
                }
                lo -= 1;
            }
            if hi <= n - 2 {
                if !clear(hi) {
                    return None;
                }
                hi += 1;
            }
        }
        Some(FeasibleHop {
            tower_a: a,
            tower_b: b,
            length_km,
        })
    }

    /// Enumerate every feasible hop in the registry (all tower pairs within
    /// range, filtered by line-of-sight), serially.
    pub fn all_feasible_hops(&self) -> Vec<FeasibleHop> {
        self.all_feasible_hops_with(1)
    }

    /// [`Self::all_feasible_hops`] fanned out over `workers` threads
    /// (`0` = one per core). The hop list is identical — order included —
    /// for every worker count.
    pub fn all_feasible_hops_with(&self, workers: usize) -> Vec<FeasibleHop> {
        self.all_feasible_hops_profiled(workers).0
    }

    /// [`Self::all_feasible_hops_with`], also reporting which cascade tier
    /// decided the sweep's samples.
    ///
    /// One [`drain_jobs`] job per `TOWERS_PER_JOB` consecutive towers `i`:
    /// it finds each tower's partners `j > i` within range, in ascending
    /// order, and assesses those pairs, counting into its own
    /// [`HopSweepStats`]. That is [`TowerRegistry::pairs_within`]'s order,
    /// job by job, without holding its list. Hops are concatenated and
    /// counts summed in job order. The jobs do not depend on `workers`, and
    /// a sample's tier depends only on the sample and on cell bounds that
    /// are pure functions of the cell, so the hop list and the counts are
    /// the same for every worker count. A pair over mountains costs several
    /// times a pair over plains (its samples reach the later tiers) and
    /// neighbouring pairs share terrain; workers claim the next job as they
    /// finish one, so none is left holding a mountain range.
    pub fn all_feasible_hops_profiled(&self, workers: usize) -> (Vec<FeasibleHop>, HopSweepStats) {
        let towers = self.towers.towers();
        assert!(towers.len() <= u32::MAX as usize, "tower index exceeds u32");
        let range_km = self.config.max_range_km;
        let cells_before = self.envelope.cells_filled();
        let (per_job, _) = drain_jobs(
            towers.len().div_ceil(TOWERS_PER_JOB),
            resolve_workers(workers),
            Vec::new,
            |near, job| {
                let mut stats = HopSweepStats::default();
                let mut found = JobHops::default();
                let run = towers.iter().enumerate().skip(job * TOWERS_PER_JOB);
                for (i, tower) in run.take(TOWERS_PER_JOB) {
                    self.towers
                        .towers_within_into(tower.location, range_km, near);
                    let before = found.partners.len();
                    for &j in near.iter().filter(|&&j| j > i) {
                        if let Some(hop) = self.assess_pair_counted(i, j, &mut stats) {
                            found.partners.push(j as u32);
                            found.lengths_km.push(hop.length_km);
                        }
                    }
                    found.per_tower.push((found.partners.len() - before) as u32);
                }
                (found, stats)
            },
        );
        let total = per_job.iter().map(|(found, _)| found.partners.len()).sum();
        let mut hops = Vec::with_capacity(total);
        let mut stats = HopSweepStats::default();
        for (job, (found, job_stats)) in per_job.into_iter().enumerate() {
            let mut k = 0;
            for (i, &count) in (job * TOWERS_PER_JOB..).zip(&found.per_tower) {
                hops.extend((k..k + count as usize).map(|k| FeasibleHop {
                    tower_a: i,
                    tower_b: found.partners[k] as usize,
                    length_km: found.lengths_km[k],
                }));
                k += count as usize;
            }
            stats.add_samples(&job_stats);
        }
        stats.cells_filled = (self.envelope.cells_filled() - cells_before) as u64;
        (hops, stats)
    }
}

/// One sweep job's feasible hops, held compact until the merge: the job's
/// `k`-th tower owns the next `per_tower[k]` entries of `partners` and
/// `lengths_km`. That is 12 bytes a hop where the merged list spends 24, so
/// the merge, which holds both, is not the build's peak.
#[derive(Default)]
struct JobHops {
    per_tower: Vec<u32>,
    partners: Vec<u32>,
    lengths_km: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisp_data::towers::{Tower, TowerSource};
    use cisp_geo::GeoPoint;

    fn tower(lat: f64, lon: f64, height: f64) -> Tower {
        Tower {
            location: GeoPoint::new(lat, lon),
            height_m: height,
            source: TowerSource::RentalCompany,
        }
    }

    fn registry(towers: Vec<Tower>) -> TowerRegistry {
        TowerRegistry::from_towers(towers)
    }

    #[test]
    fn flat_terrain_tall_towers_within_range_is_feasible() {
        // Two 200 m towers 80 km apart on flat ground: clear.
        let reg = registry(vec![
            tower(40.0, -100.0, 200.0),
            tower(40.0, -99.06, 200.0), // ~80 km east
        ]);
        let terrain = TerrainModel::flat();
        let clutter = ClutterModel::none();
        let engine = HopFeasibility::new(&reg, &terrain, &clutter, HopConfig::default());
        let hop = engine.assess_pair(0, 1);
        assert!(hop.is_some());
        let hop = hop.unwrap();
        assert!((hop.length_km - 79.8).abs() < 2.0, "len {}", hop.length_km);
        assert_eq!(engine.all_feasible_hops().len(), 1);
    }

    #[test]
    fn short_towers_cannot_span_long_hops() {
        // Two 60 m towers 90 km apart: Earth bulge (~156 m at K=1.3) blocks it.
        let reg = registry(vec![tower(40.0, -100.0, 60.0), tower(40.0, -98.94, 60.0)]);
        let terrain = TerrainModel::flat();
        let clutter = ClutterModel::none();
        let engine = HopFeasibility::new(&reg, &terrain, &clutter, HopConfig::default());
        assert!(engine.assess_pair(0, 1).is_none());
    }

    #[test]
    fn out_of_range_pairs_are_rejected_even_with_clear_los() {
        let reg = registry(vec![
            tower(40.0, -100.0, 300.0),
            tower(40.0, -98.5, 300.0), // ~128 km
        ]);
        let terrain = TerrainModel::flat();
        let clutter = ClutterModel::none();
        let engine = HopFeasibility::new(&reg, &terrain, &clutter, HopConfig::default());
        assert!(engine.assess_pair(0, 1).is_none());

        // With a longer allowed range (hypothetically) it still fails LOS at
        // 128 km because the bulge (~320 m) exceeds the towers. Confirm the
        // range check is really what rejected the 100 km config by relaxing
        // range *and* raising towers.
        let reg_tall = registry(vec![tower(40.0, -100.0, 340.0), tower(40.0, -98.5, 340.0)]);
        let cfg = HopConfig {
            max_range_km: 140.0,
            ..HopConfig::default()
        };
        let engine2 = HopFeasibility::new(&reg_tall, &terrain, &clutter, cfg);
        assert!(engine2.assess_pair(0, 1).is_some());
    }

    #[test]
    fn reduced_usable_height_breaks_marginal_hops() {
        // A hop that barely clears with full height fails at 45 % height.
        let reg = registry(vec![
            tower(40.0, -100.0, 130.0),
            tower(40.0, -99.18, 130.0), // ~70 km
        ]);
        let terrain = TerrainModel::flat();
        let clutter = ClutterModel::none();
        let full = HopFeasibility::new(&reg, &terrain, &clutter, HopConfig::default());
        assert!(full.assess_pair(0, 1).is_some());
        let restricted =
            HopFeasibility::new(&reg, &terrain, &clutter, HopConfig::restricted(100.0, 0.45));
        assert!(restricted.assess_pair(0, 1).is_none());
    }

    #[test]
    fn mountain_between_towers_blocks_hop() {
        // Two tall towers on either side of the central Rockies.
        let reg = registry(vec![
            tower(39.5, -105.4, 250.0),
            tower(39.5, -106.5, 250.0), // ~95 km across the range
        ]);
        let terrain = TerrainModel::united_states(42);
        let clutter = ClutterModel::none();
        let engine = HopFeasibility::new(&reg, &terrain, &clutter, HopConfig::default());
        assert!(engine.assess_pair(0, 1).is_none());
    }

    #[test]
    fn plains_hop_with_real_terrain_is_feasible() {
        // Kansas: gentle terrain, 150 m towers, 60 km hop.
        let reg = registry(vec![tower(38.5, -98.0, 150.0), tower(38.5, -97.32, 150.0)]);
        let terrain = TerrainModel::united_states(42);
        let clutter = ClutterModel::none();
        let engine = HopFeasibility::new(&reg, &terrain, &clutter, HopConfig::default());
        assert!(engine.assess_pair(0, 1).is_some());
    }

    #[test]
    fn assess_pair_is_order_invariant() {
        let reg = registry(vec![tower(40.0, -100.0, 200.0), tower(40.3, -99.3, 200.0)]);
        let terrain = TerrainModel::flat();
        let clutter = ClutterModel::none();
        let engine = HopFeasibility::new(&reg, &terrain, &clutter, HopConfig::default());
        assert_eq!(engine.assess_pair(0, 1), engine.assess_pair(1, 0));
    }

    // The fused early-exit sweep must agree with the reference allocating
    // pipeline (obstruction_profile → evaluate_profile → profile_is_clear)
    // on every pair, including marginal ones over real terrain — both the
    // verdict and the reported length.
    #[test]
    fn fused_assessment_matches_reference_pipeline() {
        let mut towers = Vec::new();
        for k in 0..14 {
            let lat = 37.0 + (k % 5) as f64 * 0.55;
            let lon = -107.0 + (k % 7) as f64 * 0.7;
            let h = 80.0 + (k * 37 % 200) as f64;
            towers.push(tower(lat, lon, h));
        }
        let reg = registry(towers);
        let terrain = TerrainModel::united_states(42);
        let clutter = ClutterModel::with_seed(42);
        let config = HopConfig::default();
        let engine = HopFeasibility::new(&reg, &terrain, &clutter, config);

        let reference = |i: usize, j: usize| -> Option<FeasibleHop> {
            let (a, b) = (i.min(j), i.max(j));
            let ta = &reg.towers()[a];
            let tb = &reg.towers()[b];
            let length_km = geodesic::distance_km(ta.location, tb.location);
            if length_km > config.max_range_km || length_km < 0.1 {
                return None;
            }
            let h_a = terrain.elevation_m(ta.location) + ta.height_m;
            let h_b = terrain.elevation_m(tb.location) + tb.height_m;
            let n = profile::samples_for_hop(length_km);
            let obstacles =
                profile::obstruction_profile(&terrain, &clutter, ta.location, tb.location, n);
            let samples = fresnel::evaluate_profile(
                length_km,
                h_a,
                h_b,
                &obstacles,
                config.frequency_ghz,
                config.k_factor,
            );
            fresnel::profile_is_clear(&samples).then_some(FeasibleHop {
                tower_a: a,
                tower_b: b,
                length_km,
            })
        };

        let mut assessed = 0;
        for i in 0..reg.len() {
            for j in i + 1..reg.len() {
                assert_eq!(engine.assess_pair(i, j), reference(i, j), "pair {i},{j}");
                assessed += 1;
            }
        }
        assert!(assessed > 50);
    }

    // The hop list — order included — and the per-tier sample counts must be
    // identical for every worker count (a sample's tier does not depend on
    // which worker filled its cell). 20 towers: one job.
    #[test]
    fn parallel_sweep_is_worker_count_invariant() {
        let mut towers = Vec::new();
        for k in 0..20 {
            towers.push(tower(
                39.0 + (k % 4) as f64 * 0.5,
                -100.0 + (k % 5) as f64 * 0.6,
                120.0 + (k * 13 % 150) as f64,
            ));
        }
        let reg = registry(towers);
        let terrain = TerrainModel::united_states(7);
        let clutter = ClutterModel::none();
        let sweep = |workers: usize| {
            HopFeasibility::new(&reg, &terrain, &clutter, HopConfig::default())
                .all_feasible_hops_profiled(workers)
        };
        let (serial, serial_stats) = sweep(1);
        assert!(!serial.is_empty());
        assert!(serial_stats.by_cell_bound > 0 && serial_stats.cells_filled > 0);
        for workers in [0, 2, 3, 7] {
            assert_eq!(sweep(workers), (serial.clone(), serial_stats));
        }
        // A second sweep on one engine finds its cells filled already.
        let engine = HopFeasibility::new(&reg, &terrain, &clutter, HopConfig::default());
        assert_eq!(engine.all_feasible_hops(), serial);
        let (again, again_stats) = engine.all_feasible_hops_profiled(2);
        assert_eq!(again, serial);
        assert_eq!(again_stats.cells_filled, 0);
        assert_eq!(again_stats.by_cell_bound, serial_stats.by_cell_bound);
    }

    // Enough towers for three jobs: the job-order merge must give the plain
    // pair loop's hop list and counts at every width.
    #[test]
    fn multi_job_sweep_matches_the_plain_pair_loop() {
        // A 0.04° lattice (≤ 4.5 km a step, every pair in range) with a
        // third job's worth of towers; short towers block the longer hops.
        let side = (2usize..).find(|s| s.pow(2) >= 3 * TOWERS_PER_JOB).unwrap();
        let at = |k: usize, step: usize| (k / step % side) as f64 * 0.04;
        let reg = registry(
            (0..side * side)
                .map(|k| {
                    tower(
                        40.0 + at(k, side),
                        -100.0 + at(k, 1),
                        15.0 + (k * 13 % 50) as f64,
                    )
                })
                .collect(),
        );
        let (terrain, clutter) = (TerrainModel::flat(), ClutterModel::none());
        let engine = HopFeasibility::new(&reg, &terrain, &clutter, HopConfig::default());

        let pairs = reg.pairs_within(engine.config().max_range_km);
        assert!(reg.len() > 2 * TOWERS_PER_JOB, "{} towers", reg.len());
        let mut plain_stats = HopSweepStats::default();
        let plain: Vec<FeasibleHop> = pairs
            .iter()
            .filter_map(|&(i, j)| engine.assess_pair_counted(i, j, &mut plain_stats))
            .collect();
        // Some hops are blocked, and the third job still finds one.
        assert!(plain.len() < pairs.len());
        assert!(plain[plain.len() - 1].tower_a >= 2 * TOWERS_PER_JOB);
        for workers in [1, 2, 3, 7, 0] {
            let swept = engine.all_feasible_hops_profiled(workers);
            assert_eq!(swept, (plain.clone(), plain_stats), "workers {workers}");
        }
    }

    #[test]
    #[should_panic]
    fn zero_usable_height_is_rejected() {
        let reg = registry(vec![tower(40.0, -100.0, 100.0)]);
        let terrain = TerrainModel::flat();
        let clutter = ClutterModel::none();
        HopFeasibility::new(
            &reg,
            &terrain,
            &clutter,
            HopConfig {
                usable_height_fraction: 0.0,
                ..HopConfig::default()
            },
        );
    }
}
