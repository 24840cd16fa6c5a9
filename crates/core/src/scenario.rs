//! End-to-end deployment scenarios: the full design pipeline wired together.
//!
//! A [`Scenario`] bundles everything §4 and §6.2 of the paper need: the
//! population centers of a region, a synthetic terrain, clutter, tower
//! registry and fiber network, the feasible-hop assessment, the candidate
//! city-to-city links, and the population-product traffic matrix. From a
//! built scenario, [`Scenario::design`] runs the cISP heuristic at a tower
//! budget and [`Scenario::provision`] augments capacity and prices the
//! result.
//!
//! The heavyweight paper-scale configurations ([`ScenarioConfig::us_paper`],
//! [`ScenarioConfig::europe_paper`]) are used by the benchmark binaries;
//! [`ScenarioConfig::tiny_test`] is a miniature (a dozen south-central US
//! cities, flat terrain) that exercises the identical code path in
//! milliseconds for tests and doctests.

use cisp_data::{
    cities::{europe_population_centers, us_population_centers, City, Region},
    fiber::{FiberConfig, FiberNetwork},
    towers::{TowerRegistry, TowerRegistryConfig},
};
use cisp_geo::GeoPoint;
use cisp_graph::DistMatrix;
use cisp_terrain::{clutter::ClutterModel, TerrainModel};
use serde::{Deserialize, Serialize};

use crate::augment::{augment_for_throughput, AugmentConfig, Augmentation};
use crate::cost::{CostBreakdown, CostModel};
use crate::design::{DesignConfig, DesignInput, DesignOutcome, Designer};
use crate::hops::{HopConfig, HopFeasibility, HopSweepStats};
use crate::links::{AttachmentReport, LinkBuilder, LinkBuilderConfig, PoolPruneStats};
use crate::topology::HybridTopology;

use std::time::Instant;

/// Which terrain model a scenario uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TerrainKind {
    /// The region's synthetic terrain (mountains and all).
    Regional,
    /// Flat terrain (tests and controlled experiments).
    Flat,
}

/// Full configuration of a deployment scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Master seed for all synthetic datasets.
    pub seed: u64,
    /// Region to deploy in.
    pub region: Region,
    /// Keep only the `max_sites` most populous centers (None = all).
    pub max_sites: Option<usize>,
    /// Restrict sites to a bounding box `(min_lat, max_lat, min_lon, max_lon)`
    /// (None = whole region). Used by the miniature test scenario.
    pub site_bbox: Option<(f64, f64, f64, f64)>,
    /// Terrain choice.
    pub terrain: TerrainKind,
    /// Tower-registry generation parameters.
    pub towers: TowerRegistryConfig,
    /// Hop feasibility parameters.
    pub hops: HopConfig,
    /// Fiber synthesis parameters.
    pub fiber: FiberConfig,
    /// Site-to-tower attachment parameters.
    pub links: LinkBuilderConfig,
    /// Design heuristic parameters.
    pub design: DesignConfig,
}

impl ScenarioConfig {
    /// The paper's US scenario: all population centers, regional terrain,
    /// full-size tower registry.
    pub fn us_paper(seed: u64) -> Self {
        Self {
            seed,
            region: Region::UnitedStates,
            max_sites: None,
            site_bbox: None,
            terrain: TerrainKind::Regional,
            towers: TowerRegistryConfig::default(),
            hops: HopConfig::paper_baseline(),
            fiber: FiberConfig::default(),
            links: LinkBuilderConfig::default(),
            design: DesignConfig::default(),
        }
    }

    /// The paper's European scenario (§6.2).
    pub fn europe_paper(seed: u64) -> Self {
        Self {
            region: Region::Europe,
            ..Self::us_paper(seed)
        }
    }

    /// A miniature scenario for tests and doctests: the south-central US
    /// (Texas and neighbours), flat terrain, a small tower registry.
    pub fn tiny_test() -> Self {
        Self {
            seed: 7,
            region: Region::UnitedStates,
            max_sites: Some(12),
            site_bbox: Some((27.0, 37.0, -103.0, -89.0)),
            terrain: TerrainKind::Flat,
            towers: TowerRegistryConfig {
                raw_count: 1_500,
                ..TowerRegistryConfig::default()
            },
            hops: HopConfig::paper_baseline(),
            fiber: FiberConfig::default(),
            links: LinkBuilderConfig::default(),
            design: DesignConfig::default(),
        }
    }

    /// A reduced US scenario with the `n` most populous centers — the knob
    /// used by the Fig. 2 scaling experiment.
    pub fn us_subset(seed: u64, n: usize) -> Self {
        Self {
            max_sites: Some(n),
            ..Self::us_paper(seed)
        }
    }
}

/// Wall-clock split of one [`Scenario::build`] candidate-pool build.
///
/// `search_ms`/`extract_ms` are summed across workers (one per core), so
/// they can exceed their share of the elapsed `total_ms`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PoolBuildProfile {
    /// Hop feasibility sweep (terrain/Fresnel clearance over all pairs).
    pub hop_sweep_ms: f64,
    /// Tower+site graph assembly, site attachment and CSR construction.
    pub attach_ms: f64,
    /// Per-site shortest-path searches.
    pub search_ms: f64,
    /// Path extraction and link assembly.
    pub extract_ms: f64,
    /// Elapsed wall-clock of the whole pool build (sweep through links).
    pub total_ms: f64,
    /// How the hop sweep's samples were decided (bounds vs terrain sampling).
    pub hop_sweep: HopSweepStats,
}

/// A fully built scenario, ready for design runs.
pub struct Scenario {
    config: ScenarioConfig,
    cities: Vec<City>,
    towers: TowerRegistry,
    fiber: FiberNetwork,
    input: DesignInput,
    pool_stats: PoolPruneStats,
    pool_profile: PoolBuildProfile,
    attachment: AttachmentReport,
}

impl Scenario {
    /// Build the scenario: synthesise datasets, assess hop feasibility and
    /// construct every candidate link. This is the expensive step; design
    /// runs on the built scenario are comparatively cheap.
    pub fn build(config: &ScenarioConfig) -> Self {
        let mut cities = match config.region {
            Region::UnitedStates => us_population_centers(),
            Region::Europe => europe_population_centers(),
        };
        if let Some((min_lat, max_lat, min_lon, max_lon)) = config.site_bbox {
            cities.retain(|c| {
                c.location.lat_deg >= min_lat
                    && c.location.lat_deg <= max_lat
                    && c.location.lon_deg >= min_lon
                    && c.location.lon_deg <= max_lon
            });
        }
        if let Some(max) = config.max_sites {
            cities.truncate(max);
        }
        assert!(cities.len() >= 2, "scenario needs at least two sites");

        let bbox = config
            .site_bbox
            .unwrap_or_else(|| config.region.bounding_box());
        let terrain = match (config.terrain, config.region) {
            (TerrainKind::Flat, _) => TerrainModel::flat(),
            (TerrainKind::Regional, Region::UnitedStates) => {
                TerrainModel::united_states(config.seed)
            }
            (TerrainKind::Regional, Region::Europe) => TerrainModel::europe(config.seed),
        };
        let clutter = match config.terrain {
            TerrainKind::Flat => ClutterModel::none(),
            TerrainKind::Regional => ClutterModel::with_seed(config.seed),
        };

        let towers = TowerRegistry::synthesize(config.seed, bbox, &cities, &config.towers);
        let fiber = FiberNetwork::synthesize(config.seed, &cities, &config.fiber);

        let sites: Vec<GeoPoint> = cities.iter().map(|c| c.location).collect();
        let build_start = Instant::now();
        let feasibility = HopFeasibility::new(&towers, &terrain, &clutter, config.hops);
        // `0` workers: one per core, for the sweep and the searches alike.
        let (hops, hop_sweep) = feasibility.all_feasible_hops_profiled(0);
        let hop_sweep_ms = build_start.elapsed().as_secs_f64() * 1e3;
        // Each of the build's large pieces is freed once its reader is done:
        // the envelope grid after the sweep, the hop list once the tower
        // graph holds its edges.
        drop(feasibility);

        let attach_start = Instant::now();
        let builder = LinkBuilder::new(&sites, &towers, &hops, config.links);
        let attach_ms = attach_start.elapsed().as_secs_f64() * 1e3;
        drop(hops);
        let attachment = builder.attachment_report().clone();

        let traffic = population_product_traffic(&cities);
        let fiber_km = fiber.latency_equivalent_matrix();
        let (candidates, pool_stats, timings) =
            builder.pruned_candidate_links_profiled(&fiber_km, 0);
        let pool_profile = PoolBuildProfile {
            hop_sweep_ms,
            attach_ms,
            search_ms: timings.search_ms,
            extract_ms: timings.extract_ms,
            total_ms: build_start.elapsed().as_secs_f64() * 1e3,
            hop_sweep,
        };

        let input = DesignInput {
            sites,
            traffic,
            fiber_km,
            candidates,
        };

        Self {
            config: config.clone(),
            cities,
            towers,
            fiber,
            input,
            pool_stats,
            pool_profile,
            attachment,
        }
    }

    /// The scenario's configuration.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// The population centers (sites) of the scenario.
    pub fn cities(&self) -> &[City] {
        &self.cities
    }

    /// The synthetic tower registry.
    pub fn towers(&self) -> &TowerRegistry {
        &self.towers
    }

    /// The synthetic fiber network.
    pub fn fiber(&self) -> &FiberNetwork {
        &self.fiber
    }

    /// The assembled design input (sites, traffic, fiber, candidates).
    pub fn design_input(&self) -> &DesignInput {
        &self.input
    }

    /// How the pool build resolved each site pair: no tower path, a tower
    /// path no shorter than fiber, or a candidate.
    pub fn pool_stats(&self) -> PoolPruneStats {
        self.pool_stats
    }

    /// Wall-clock stage split of the candidate-pool build.
    pub fn pool_profile(&self) -> PoolBuildProfile {
        self.pool_profile
    }

    /// Per-site tower-attachment report from the pool build; sites in
    /// [`AttachmentReport::zero_attached`] can never host a microwave link.
    pub fn attachment_report(&self) -> &AttachmentReport {
        &self.attachment
    }

    /// Run the cISP design heuristic at a tower budget.
    pub fn design(&self, budget_towers: f64) -> DesignOutcome {
        Designer::with_config(&self.input, self.config.design).cisp(budget_towers)
    }

    /// Run the plain greedy designer (used for budget-sweep curves, which
    /// fall out of the greedy history in a single run).
    pub fn design_greedy(&self, budget_towers: f64) -> DesignOutcome {
        Designer::with_config(&self.input, self.config.design).greedy(budget_towers)
    }

    /// Re-ground a designed topology in the scenario's physical conduit
    /// graph: the same sites, traffic and selected MW links (added in
    /// selection order, exactly as the designer built them), but with the
    /// fiber layer held as the conduit segment list + per-pair conduit
    /// routes instead of a pre-flattened matrix. The effective distance
    /// matrix is bit-identical to `outcome.topology`'s — the design engine
    /// sees no difference — while the evaluation lowering gains
    /// O(segments) fiber links, shared-conduit queueing and conduit-cut
    /// scenarios.
    pub fn conduit_backed_topology(&self, outcome: &DesignOutcome) -> HybridTopology {
        let mut topo = HybridTopology::with_conduits(
            self.input.sites.clone(),
            self.input.traffic.clone(),
            &self.fiber,
        );
        for &idx in &outcome.selected {
            topo.add_mw_link(self.input.candidates[idx].clone());
        }
        topo
    }

    /// Provision a designed topology for an aggregate throughput and price it.
    pub fn provision(
        &self,
        outcome: &DesignOutcome,
        aggregate_gbps: f64,
        cost_model: &CostModel,
    ) -> ProvisionedNetwork {
        let augmentation =
            augment_for_throughput(&outcome.topology, aggregate_gbps, &AugmentConfig::default());
        let inventory = augmentation.inventory(&outcome.topology);
        let breakdown = cost_model.breakdown(&inventory);
        let cost_per_gb = cost_model.cost_per_gb(&inventory, aggregate_gbps);
        ProvisionedNetwork {
            augmentation,
            breakdown,
            cost_per_gb,
        }
    }
}

/// The provisioned (capacity-augmented, priced) network.
#[derive(Debug, Clone)]
pub struct ProvisionedNetwork {
    /// Per-link provisioning and routing outcome.
    pub augmentation: Augmentation,
    /// Cost breakdown over the amortisation horizon.
    pub breakdown: CostBreakdown,
    /// Amortised cost per gigabyte.
    pub cost_per_gb: f64,
}

/// The paper's default traffic model: `h_ij` proportional to the product of
/// the populations of the two cities (§4).
pub fn population_product_traffic(cities: &[City]) -> DistMatrix {
    let n = cities.len();
    // Normalise by the maximum product so weights are in (0, 1].
    let mut matrix = DistMatrix::from_fn(n, |i, j| {
        if i == j {
            0.0
        } else {
            cities[i].population as f64 * cities[j].population as f64
        }
    });
    let max_product = matrix.max_value();
    if max_product > 0.0 {
        matrix.map_in_place(|v| v / max_product);
    }
    matrix
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scenario {
        Scenario::build(&ScenarioConfig::tiny_test())
    }

    #[test]
    fn tiny_scenario_builds_candidates() {
        let s = tiny();
        assert!(s.cities().len() >= 6, "got {} cities", s.cities().len());
        assert!(
            !s.design_input().candidates.is_empty(),
            "no candidate MW links were found"
        );
        // Candidate MW links should be close to geodesic on flat terrain.
        for link in &s.design_input().candidates {
            let geo = cisp_geo::geodesic::distance_km(
                s.design_input().sites[link.site_a],
                s.design_input().sites[link.site_b],
            );
            assert!(link.mw_length_km >= geo - 1e-6);
            assert!(link.stretch_over(geo) < 1.6, "very indirect candidate");
        }
    }

    #[test]
    fn design_improves_with_budget() {
        let s = tiny();
        let none = s.design(0.0);
        let some = s.design(150.0);
        let more = s.design(400.0);
        assert!(some.mean_stretch <= none.mean_stretch + 1e-9);
        assert!(more.mean_stretch <= some.mean_stretch + 1e-9);
        assert!(more.mean_stretch >= 1.0);
    }

    #[test]
    fn provisioning_prices_the_network() {
        let s = tiny();
        let outcome = s.design(300.0);
        let cost_model = CostModel::default();
        let provisioned = s.provision(&outcome, 20.0, &cost_model);
        assert!(provisioned.cost_per_gb > 0.0);
        assert!(provisioned.breakdown.total_usd() > 0.0);
        assert_eq!(
            provisioned.augmentation.links.len(),
            outcome.topology.mw_links().len()
        );
        // Higher aggregate throughput lowers cost per GB (same design).
        let cheaper = s.provision(&outcome, 100.0, &cost_model);
        assert!(cheaper.cost_per_gb < provisioned.cost_per_gb);
    }

    #[test]
    fn population_product_traffic_is_symmetric_normalised() {
        let s = tiny();
        let t = population_product_traffic(s.cities());
        let n = s.cities().len();
        for i in 0..n {
            assert_eq!(t[i][i], 0.0);
            for j in 0..n {
                assert!((t[i][j] - t[j][i]).abs() < 1e-12);
                assert!(t[i][j] <= 1.0 + 1e-12);
            }
        }
        // The two most populous cities share the maximum weight 1.0.
        let mut max = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                max = max.max(t[i][j]);
            }
        }
        assert!((max - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scenario_build_is_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(
            a.design_input().candidates.len(),
            b.design_input().candidates.len()
        );
        assert_eq!(a.towers().len(), b.towers().len());
        let da = a.design(200.0);
        let db = b.design(200.0);
        assert_eq!(da.selected, db.selected);
    }

    #[test]
    fn conduit_backed_topology_is_bit_identical_to_the_designed_one() {
        let s = tiny();
        let outcome = s.design(250.0);
        let conduit = s.conduit_backed_topology(&outcome);
        assert!(conduit.conduits().is_some());
        assert_eq!(
            conduit.conduits().unwrap().num_segments(),
            s.fiber().links().len()
        );
        assert_eq!(conduit.mw_links().len(), outcome.topology.mw_links().len());
        // The derived fiber cache and the resulting effective matrix match
        // the matrix-backed designed topology bit for bit — the design
        // engine and every stretch statistic see no difference.
        assert_eq!(conduit.fiber_matrix(), outcome.topology.fiber_matrix());
        assert_eq!(
            conduit.effective_matrix(),
            outcome.topology.effective_matrix()
        );
        assert_eq!(conduit.mean_stretch(), outcome.mean_stretch);
    }

    #[test]
    fn pool_profile_and_attachment_report_are_populated() {
        let s = tiny();
        let profile = s.pool_profile();
        assert!(profile.total_ms > 0.0);
        assert!(profile.hop_sweep_ms >= 0.0 && profile.attach_ms >= 0.0);
        assert!(profile.search_ms >= 0.0 && profile.extract_ms >= 0.0);
        assert!(profile.total_ms >= profile.hop_sweep_ms);
        let report = s.attachment_report();
        assert_eq!(report.attached_per_site.len(), s.cities().len());
        // The tiny scenario's registry seeds towers near every city, so no
        // site should be stranded.
        assert!(report.zero_attached().is_empty());
        // Every pair is accounted for, and the pool holds only what beats
        // fiber.
        let stats = s.pool_stats();
        let n = s.cities().len() as u64;
        assert_eq!(stats.pairs_total, n * (n - 1) / 2);
        assert_eq!(
            stats.unreachable + stats.oracle_dropped + stats.emitted,
            stats.pairs_total
        );
        assert_eq!(stats.emitted as usize, s.design_input().candidates.len());
        assert_eq!(
            s.design_input().useful_candidates().len(),
            s.design_input().candidates.len()
        );
    }

    #[test]
    fn us_subset_config_limits_sites() {
        let config = ScenarioConfig::us_subset(3, 5);
        let s = Scenario::build(&config);
        assert_eq!(s.cities().len(), 5);
    }
}
