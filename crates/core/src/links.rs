//! Step 1(b): build candidate site-to-site microwave links.
//!
//! After hop feasibility has produced the tower-to-tower hop graph, the
//! designer finds, for every pair of sites, the shortest path through that
//! graph (§3.1: "for each pair of sites, we find the shortest path through a
//! graph containing these hops, which we call a link"). The path's length is
//! the link's latency-equivalent distance `m_ij` and its tower count is the
//! link's cost `c_ij`, the two inputs the topology optimiser needs.
//!
//! Sites are attached to the tower graph through every tower within a
//! configurable radius of the site, reflecting the paper's observation that
//! each city hosts plenty of towers suitable as path starting points.
//!
//! The tower + site graph is held once, as the [`CsrGraph`] the searches
//! run over, built straight from the hop list and the site attachments. The
//! pool is one single-source search per site over it, fanned out through
//! [`cisp_netsim::jobs::drain_jobs`] ([`LinkBuilder::pruned_candidate_links_with`]).
//! The tests hold the pool to a point-to-point oracle that shares none of
//! this: the same graph built as an adjacency list in test code, one
//! reference Dijkstra per site pair, no fan-out at all.

use std::{panic, thread};

use cisp_data::towers::TowerRegistry;
use cisp_geo::{geodesic, GeoPoint};
use cisp_graph::{CsrGraph, DistMatrix, SearchCore};
use cisp_netsim::jobs::{drain_jobs, resolve_workers};

use crate::hops::FeasibleHop;

/// A candidate direct microwave link between two sites.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateLink {
    /// Index of the first site (lower index).
    pub site_a: usize,
    /// Index of the second site (higher index).
    pub site_b: usize,
    /// Length of the microwave path in kilometres (`m_ij` in the paper).
    pub mw_length_km: f64,
    /// Number of towers used by the path (`c_ij`, the link's cost in towers).
    pub tower_count: usize,
    /// The tower indices along the path, in order from `site_a` to `site_b`.
    pub tower_path: Vec<usize>,
}

/// Configuration for attaching sites to the tower graph.
#[derive(Debug, Clone, Copy)]
pub struct LinkBuilderConfig {
    /// Towers within this distance of a site can serve as the first/last
    /// tower of its links.
    pub site_attach_radius_km: f64,
}

impl Default for LinkBuilderConfig {
    fn default() -> Self {
        Self {
            site_attach_radius_km: 25.0,
        }
    }
}

/// Per-site tower-attachment report produced by [`LinkBuilder::new`].
///
/// A site with zero attached towers can never originate a microwave link
/// no matter how dense the hop graph is; surfacing those sites up front
/// turns a silent empty-pool symptom into a diagnosable input problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttachmentReport {
    /// Number of towers attached to each site, indexed by site.
    pub attached_per_site: Vec<usize>,
}

impl AttachmentReport {
    /// Sites with no tower within the attach radius, ascending.
    pub fn zero_attached(&self) -> Vec<usize> {
        self.attached_per_site
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n == 0)
            .map(|(s, _)| s)
            .collect()
    }
}

/// Builds candidate links from sites, towers and feasible hops.
pub struct LinkBuilder<'a> {
    sites: &'a [GeoPoint],
    towers: &'a TowerRegistry,
    csr: CsrGraph,
    config: LinkBuilderConfig,
    attachment: AttachmentReport,
}

impl<'a> LinkBuilder<'a> {
    /// Construct the combined tower + site graph.
    ///
    /// Layout: nodes `0..T` are towers, nodes `T..T+S` are sites. Each hop
    /// is an undirected edge, in hop order, then each site's attachment to
    /// every tower within the attach radius, in site order and ascending
    /// tower index; the CSR is built from them in two passes, so no edge
    /// list and no adjacency list is ever held. `hops` is not kept.
    pub fn new(
        sites: &'a [GeoPoint],
        towers: &'a TowerRegistry,
        hops: &[FeasibleHop],
        config: LinkBuilderConfig,
    ) -> Self {
        assert!(!sites.is_empty(), "need at least one site");
        assert!(config.site_attach_radius_km > 0.0);
        let t = towers.len();
        let mut attach = Vec::new();
        let mut attached_per_site = Vec::with_capacity(sites.len());
        let mut near: Vec<usize> = Vec::new();
        for (s, &site) in sites.iter().enumerate() {
            towers.towers_within_into(site, config.site_attach_radius_km, &mut near);
            attach.extend(near.iter().map(|&tower_idx| {
                let d = geodesic::distance_km(site, towers.towers()[tower_idx].location);
                (t + s, tower_idx, d)
            }));
            attached_per_site.push(near.len());
        }
        let csr = CsrGraph::from_undirected(t + sites.len(), || {
            hops.iter()
                .map(|hop| (hop.tower_a, hop.tower_b, hop.length_km))
                .chain(attach.iter().copied())
        });
        Self {
            sites,
            towers,
            csr,
            config,
            attachment: AttachmentReport { attached_per_site },
        }
    }

    /// The node id of a site in the combined graph.
    pub fn site_node(&self, site: usize) -> usize {
        self.towers.len() + site
    }

    /// The combined tower + site graph (towers first, then sites) that the
    /// search core runs over.
    pub fn csr_graph(&self) -> &CsrGraph {
        &self.csr
    }

    /// Per-site tower-attachment report (see [`AttachmentReport`]).
    pub fn attachment_report(&self) -> &AttachmentReport {
        &self.attachment
    }

    /// The configuration in use.
    pub fn config(&self) -> LinkBuilderConfig {
        self.config
    }

    /// Number of towers attached to a given site: its node's degree.
    pub fn attached_towers(&self, site: usize) -> usize {
        self.csr.degree(self.site_node(site))
    }

    /// Build a [`CandidateLink`] from an extracted node path.
    fn assemble_link(&self, a: usize, b: usize, dist_km: f64, nodes: &[usize]) -> CandidateLink {
        let interior = if nodes.len() <= 2 {
            &[][..]
        } else {
            &nodes[1..nodes.len() - 1]
        };
        let tower_path: Vec<usize> = interior
            .iter()
            .copied()
            .filter(|&v| v < self.towers.len())
            .collect();
        CandidateLink {
            site_a: a,
            site_b: b,
            mw_length_km: dist_km,
            tower_count: tower_path.len(),
            tower_path,
        }
    }

    /// Compute the candidate links that beat fiber: for every pair of sites
    /// the tower graph connects, the shortest tower path between them, kept
    /// only if it survives the fiber-oracle elimination
    /// (`mw_length_km < fiber_km[a][b]`), in a-major b-ascending order —
    /// pinned to pointwise reference queries by
    /// `tests/design_pool_pruning.rs`.
    ///
    /// Runs one single-source search per site over the CSR core
    /// ([`SearchCore`]) and extracts every site-to-site path from it, so the
    /// cost is `S` single-source runs rather than `S²` point-to-point runs.
    /// The search stops once every site `b > a` is settled, and abandons its
    /// frontier beyond the largest fiber distance of those sites: a tower
    /// path longer than every remaining oracle cannot be emitted anyway.
    ///
    /// `workers` threads share the sites (`0` = one per core), one
    /// [`drain_jobs`] job per source site; the jobs' links are concatenated
    /// and their stats summed in site order, so links and stats are
    /// identical for every worker count. The calling thread runs none of the
    /// jobs (see the comment at the call).
    pub fn pruned_candidate_links_with(
        &self,
        fiber_km: &DistMatrix,
        workers: usize,
    ) -> (Vec<CandidateLink>, PoolPruneStats) {
        let n = self.sites.len();
        assert_eq!(fiber_km.n(), n, "fiber matrix size must match site count");
        // `drain_jobs` makes its caller a worker, and a worker allocates the
        // tower paths of its links: thousands of small blocks that outlive
        // this builder. On the heap of the thread that built the tower graph
        // they land above and between the graph, and once that is freed the
        // allocator can neither return the hole nor keep later allocations
        // out of it (`cisp_benchmark`: resident set after a build 36 -> 67
        // MiB). So a helper thread is the caller.
        let (per_site, _) = thread::scope(|scope| {
            let fan_out = scope.spawn(|| {
                // The last site has no site after it to search for.
                drain_jobs(
                    n.saturating_sub(1),
                    resolve_workers(workers),
                    SiteSearchCtx::default,
                    |ctx, a| self.pruned_links_for_site(a, fiber_km, ctx),
                )
            });
            fan_out
                .join()
                .unwrap_or_else(|payload| panic::resume_unwind(payload))
        });
        let mut stats = PoolPruneStats {
            pairs_total: (n * n.saturating_sub(1) / 2) as u64,
            ..PoolPruneStats::default()
        };
        let mut links = Vec::with_capacity(per_site.iter().map(|(l, _)| l.len()).sum());
        for (site_links, site_stats) in per_site {
            links.extend(site_links);
            stats.unreachable += site_stats.unreachable;
            stats.oracle_dropped += site_stats.oracle_dropped;
            stats.emitted += site_stats.emitted;
        }
        (links, stats)
    }

    /// Run the generation for source site `a`: one capped multi-target
    /// search over the CSR core, then the oracle filter per target.
    fn pruned_links_for_site(
        &self,
        a: usize,
        fiber_km: &DistMatrix,
        ctx: &mut SiteSearchCtx,
    ) -> (Vec<CandidateLink>, PoolPruneStats) {
        let n = self.sites.len();
        let mut links = Vec::new();
        let mut stats = PoolPruneStats::default();
        let fib_row = fiber_km.row(a);
        // Every settled distance below the cap is bit-identical to the
        // unbounded run's, and every unsettled node's tentative distance
        // exceeds the cap — so the strict `< fiber` extraction below sees
        // exactly the unbounded run's output. The search additionally stops
        // once every target is settled; that only skips work past the last
        // extraction the loop below would perform.
        let cap = fib_row[a + 1..].iter().copied().fold(0.0f64, f64::max);
        ctx.nodes.clear();
        ctx.nodes.extend((a + 1..n).map(|b| self.site_node(b)));
        ctx.core
            .search(&self.csr, self.site_node(a), &ctx.nodes, cap);
        for (b, &fiber) in fib_row.iter().enumerate().skip(a + 1) {
            let node = self.site_node(b);
            let dist = ctx.core.dist(node);
            if !dist.is_finite() {
                stats.unreachable += 1;
            } else if dist < fiber {
                // Paths that route *through* another site node are still
                // valid microwave paths (the intermediate site hosts
                // towers); we only count towers for cost purposes.
                let found = ctx.core.node_path_into(node, &mut ctx.path);
                assert!(found, "settled node has a path");
                links.push(self.assemble_link(a, b, dist, &ctx.path));
                stats.emitted += 1;
            } else {
                stats.oracle_dropped += 1;
            }
        }
        (links, stats)
    }
}

/// Reusable per-worker scratch for the per-site searches: the search core's
/// generation-stamped buffers plus target/path vectors, so a sweep over
/// many sites allocates once per worker instead of once per site.
#[derive(Default)]
struct SiteSearchCtx {
    core: SearchCore,
    /// Target *node* ids handed to the search core.
    nodes: Vec<usize>,
    /// Extracted node path scratch.
    path: Vec<usize>,
}

/// Observational counters of one
/// [`LinkBuilder::pruned_candidate_links_with`] run: how each unordered site
/// pair was resolved. The categories partition `pairs_total`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolPruneStats {
    /// Unordered site pairs considered (`n·(n−1)/2`).
    pub pairs_total: u64,
    /// Pairs whose tower search found no path within the fiber cap at all.
    pub unreachable: u64,
    /// Pairs whose tower path exists but is no shorter than fiber (includes
    /// paths abandoned beyond the search cap).
    pub oracle_dropped: u64,
    /// Pairs emitted as useful candidate links.
    pub emitted: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hops::{HopConfig, HopFeasibility};
    use cisp_data::towers::{Tower, TowerSource};
    use cisp_graph::{dijkstra, Graph};
    use cisp_terrain::{clutter::ClutterModel, TerrainModel};

    /// The pointwise oracle, sharing no code with the pool: the builder's
    /// tower + site graph as an adjacency list, built from the hops and the
    /// site attachments in the builder's order, and one reference Dijkstra
    /// per site pair.
    struct Pointwise {
        graph: Graph,
        towers: usize,
        sites: usize,
    }

    impl Pointwise {
        fn of(builder: &LinkBuilder, hops: &[FeasibleHop]) -> Self {
            let (towers, sites) = (builder.towers.len(), builder.sites.len());
            let mut graph = Graph::new(towers + sites);
            for hop in hops {
                graph.add_undirected_edge(hop.tower_a, hop.tower_b, hop.length_km);
            }
            let radius = builder.config.site_attach_radius_km;
            for (s, &site) in builder.sites.iter().enumerate() {
                for tower_idx in builder.towers.towers_within(site, radius) {
                    let d =
                        geodesic::distance_km(site, builder.towers.towers()[tower_idx].location);
                    graph.add_undirected_edge(towers + s, tower_idx, d);
                }
            }
            Self {
                graph,
                towers,
                sites,
            }
        }

        /// The candidate link between two sites, if the tower graph connects
        /// them.
        fn candidate_link(&self, a: usize, b: usize) -> Option<CandidateLink> {
            assert!(a < self.sites && b < self.sites);
            if a == b {
                return None;
            }
            let (a, b) = (a.min(b), a.max(b));
            let path = dijkstra::shortest_path(&self.graph, self.towers + a, self.towers + b)?;
            let tower_path: Vec<usize> = path
                .interior_nodes()
                .iter()
                .copied()
                .filter(|&n| n < self.towers)
                .collect();
            Some(CandidateLink {
                site_a: a,
                site_b: b,
                mw_length_km: path.cost,
                tower_count: tower_path.len(),
                tower_path,
            })
        }
    }

    fn tower(lat: f64, lon: f64) -> Tower {
        Tower {
            location: GeoPoint::new(lat, lon),
            height_m: 200.0,
            source: TowerSource::RentalCompany,
        }
    }

    /// Two sites 300 km apart along latitude 40°N with a chain of towers
    /// every ~50 km between them, plus towers at each site.
    fn chain_setup() -> (Vec<GeoPoint>, TowerRegistry) {
        let site_a = GeoPoint::new(40.0, -100.0);
        let site_b = GeoPoint::new(40.0, -96.5); // ~298 km east
        let mut towers = Vec::new();
        for i in 0..=6 {
            let frac = i as f64 / 6.0;
            let p = geodesic::intermediate(site_a, site_b, frac);
            towers.push(tower(p.lat_deg, p.lon_deg));
        }
        (vec![site_a, site_b], TowerRegistry::from_towers(towers))
    }

    /// Fiber at `factor ×` the geodesic between every pair of sites.
    fn scaled_geodesic(sites: &[GeoPoint], factor: f64) -> DistMatrix {
        DistMatrix::from_fn(sites.len(), |i, j| {
            geodesic::distance_km(sites[i], sites[j]) * factor
        })
    }

    /// The pool oracle: one point-to-point query per pair (adjacency-list
    /// Dijkstra, no search core), a-major b-ascending.
    fn pointwise_links(builder: &LinkBuilder, hops: &[FeasibleHop]) -> Vec<CandidateLink> {
        let oracle = Pointwise::of(builder, hops);
        let n = oracle.sites;
        (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .filter_map(|(a, b)| oracle.candidate_link(a, b))
            .collect()
    }

    fn feasible_hops(reg: &TowerRegistry) -> Vec<crate::hops::FeasibleHop> {
        let terrain = TerrainModel::flat();
        let clutter = ClutterModel::none();
        let engine = HopFeasibility::new(reg, &terrain, &clutter, HopConfig::default());
        engine.all_feasible_hops()
    }

    #[test]
    fn chain_of_towers_yields_near_geodesic_link() {
        let (sites, reg) = chain_setup();
        let hops = feasible_hops(&reg);
        assert!(!hops.is_empty());
        let builder = LinkBuilder::new(&sites, &reg, &hops, LinkBuilderConfig::default());
        let link = Pointwise::of(&builder, &hops)
            .candidate_link(0, 1)
            .expect("link should exist");
        let geo = geodesic::distance_km(sites[0], sites[1]);
        let stretch = link.mw_length_km / geo;
        assert!(stretch < 1.05, "stretch {stretch}");
        assert!(link.tower_count >= 5, "towers {}", link.tower_count);
        assert_eq!(link.site_a, 0);
        assert_eq!(link.site_b, 1);
    }

    #[test]
    fn unreachable_sites_have_no_link() {
        let site_a = GeoPoint::new(40.0, -100.0);
        let site_b = GeoPoint::new(40.0, -90.0); // ~850 km away, no towers
        let reg = TowerRegistry::from_towers(vec![tower(40.0, -100.05)]);
        let hops = feasible_hops(&reg);
        let sites = vec![site_a, site_b];
        let builder = LinkBuilder::new(&sites, &reg, &hops, LinkBuilderConfig::default());
        assert!(Pointwise::of(&builder, &hops)
            .candidate_link(0, 1)
            .is_none());
        let (pool, stats) = builder.pruned_candidate_links_with(&scaled_geodesic(&sites, 2.0), 1);
        assert!(pool.is_empty());
        assert_eq!((stats.pairs_total, stats.unreachable), (1, 1));
    }

    #[test]
    fn pool_generation_matches_pointwise_queries() {
        let (sites, reg) = chain_setup();
        let hops = feasible_hops(&reg);
        let builder = LinkBuilder::new(&sites, &reg, &hops, LinkBuilderConfig::default());
        let (pool, _) = builder.pruned_candidate_links_with(&scaled_geodesic(&sites, 2.0), 1);
        assert_eq!(pool.len(), 1);
        let single = Pointwise::of(&builder, &hops).candidate_link(0, 1).unwrap();
        assert_eq!(pool[0], single);
    }

    #[test]
    fn same_site_has_no_link_and_panics_out_of_range() {
        let (sites, reg) = chain_setup();
        let hops = feasible_hops(&reg);
        let builder = LinkBuilder::new(&sites, &reg, &hops, LinkBuilderConfig::default());
        assert!(Pointwise::of(&builder, &hops)
            .candidate_link(0, 0)
            .is_none());
        assert_eq!(builder.attached_towers(0), 1);
    }

    #[test]
    fn site_attach_radius_controls_connectivity() {
        // Towers strictly in the interior of the corridor, ~50 km from each
        // site: with the default 25 km attach radius neither site can reach
        // the tower chain, with a generous 60 km radius both can.
        let site_a = GeoPoint::new(40.0, -100.0);
        let site_b = GeoPoint::new(40.0, -96.5);
        let towers: Vec<Tower> = (1..=5)
            .map(|i| {
                let p = geodesic::intermediate(site_a, site_b, i as f64 / 6.0);
                tower(p.lat_deg, p.lon_deg)
            })
            .collect();
        let reg = TowerRegistry::from_towers(towers);
        let hops = feasible_hops(&reg);
        let sites = vec![site_a, site_b];
        let narrow = LinkBuilder::new(
            &sites,
            &reg,
            &hops,
            LinkBuilderConfig {
                site_attach_radius_km: 25.0,
            },
        );
        assert!(Pointwise::of(&narrow, &hops).candidate_link(0, 1).is_none());
        let wide = LinkBuilder::new(
            &sites,
            &reg,
            &hops,
            LinkBuilderConfig {
                site_attach_radius_km: 60.0,
            },
        );
        assert!(Pointwise::of(&wide, &hops).candidate_link(0, 1).is_some());
    }

    #[test]
    fn tower_path_is_ordered_from_site_a() {
        let (sites, reg) = chain_setup();
        let hops = feasible_hops(&reg);
        let builder = LinkBuilder::new(&sites, &reg, &hops, LinkBuilderConfig::default());
        let link = Pointwise::of(&builder, &hops).candidate_link(0, 1).unwrap();
        // Towers were created west-to-east, so the path indices must be
        // increasing.
        let mut sorted = link.tower_path.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, link.tower_path);
    }

    /// Four sites spread along a ~300 km west-east corridor with a tower
    /// chain every ~25 km, so several site pairs have real tower paths.
    fn corridor_setup() -> (Vec<GeoPoint>, TowerRegistry) {
        let west = GeoPoint::new(40.0, -100.0);
        let east = GeoPoint::new(40.0, -96.5);
        let sites: Vec<GeoPoint> = (0..4)
            .map(|i| geodesic::intermediate(west, east, i as f64 / 3.0))
            .collect();
        let towers: Vec<Tower> = (0..=12)
            .map(|i| {
                let p = geodesic::intermediate(west, east, i as f64 / 12.0);
                tower(p.lat_deg, p.lon_deg)
            })
            .collect();
        (sites, TowerRegistry::from_towers(towers))
    }

    #[test]
    fn pruned_links_equal_oracle_filtered_full_generation() {
        let (sites, reg) = corridor_setup();
        let hops = feasible_hops(&reg);
        let builder = LinkBuilder::new(&sites, &reg, &hops, LinkBuilderConfig::default());
        let full = pointwise_links(&builder, &hops);
        assert!(!full.is_empty());
        // Generous fiber (2× geodesic): every tower path is useful.
        let fiber = scaled_geodesic(&sites, 2.0);
        let (pruned, stats) = builder.pruned_candidate_links_with(&fiber, 1);
        let filtered: Vec<CandidateLink> = full
            .iter()
            .filter(|l| l.mw_length_km < fiber.get(l.site_a, l.site_b))
            .cloned()
            .collect();
        assert_eq!(pruned, filtered);
        assert_eq!(stats.emitted, pruned.len() as u64);
        assert_eq!(
            stats.unreachable + stats.oracle_dropped + stats.emitted,
            stats.pairs_total
        );
    }

    #[test]
    fn pruned_links_drop_pairs_fiber_already_wins() {
        let (sites, reg) = corridor_setup();
        let hops = feasible_hops(&reg);
        let builder = LinkBuilder::new(&sites, &reg, &hops, LinkBuilderConfig::default());
        // Fiber at 0.9× geodesic (not physical): no microwave path can beat
        // it anywhere, so the oracle filter or the search cap drops every
        // pair.
        let fiber = scaled_geodesic(&sites, 0.9);
        let (pruned, stats) = builder.pruned_candidate_links_with(&fiber, 1);
        assert!(pruned.is_empty());
        assert_eq!(stats.unreachable + stats.oracle_dropped, stats.pairs_total);
        // And the pointwise queries still find the tower paths — the
        // oracle, not the tower graph, removed them.
        assert!(!pointwise_links(&builder, &hops).is_empty());
    }

    #[test]
    fn attachment_report_surfaces_stranded_sites() {
        // Site 0 sits on the tower chain; site 1 is ~850 km away with no
        // tower within the attach radius and must show up as zero-attached.
        let site_a = GeoPoint::new(40.0, -100.0);
        let site_b = GeoPoint::new(40.0, -90.0);
        let reg = TowerRegistry::from_towers(vec![tower(40.0, -100.05)]);
        let hops = feasible_hops(&reg);
        let sites = vec![site_a, site_b];
        let builder = LinkBuilder::new(&sites, &reg, &hops, LinkBuilderConfig::default());
        let report = builder.attachment_report();
        assert_eq!(report.attached_per_site, vec![1, 0]);
        assert_eq!(report.zero_attached(), vec![1]);
        // The report mirrors the graph's own attachment counts.
        for s in 0..sites.len() {
            assert_eq!(report.attached_per_site[s], builder.attached_towers(s));
        }
    }

    #[test]
    fn attachment_report_all_attached_has_no_zero_sites() {
        let (sites, reg) = corridor_setup();
        let hops = feasible_hops(&reg);
        let builder = LinkBuilder::new(&sites, &reg, &hops, LinkBuilderConfig::default());
        let report = builder.attachment_report();
        assert!(report.zero_attached().is_empty());
        assert!(report.attached_per_site.iter().all(|&n| n >= 1));
    }

    #[test]
    fn parallel_pool_generation_is_worker_count_invariant() {
        let (sites, reg) = corridor_setup();
        let hops = feasible_hops(&reg);
        let builder = LinkBuilder::new(&sites, &reg, &hops, LinkBuilderConfig::default());
        let fiber = scaled_geodesic(&sites, 1.3);
        let (serial_pruned, serial_stats) = builder.pruned_candidate_links_with(&fiber, 1);
        for workers in [0, 2, 3, 7] {
            let (pruned, stats) = builder.pruned_candidate_links_with(&fiber, workers);
            assert_eq!(pruned, serial_pruned);
            assert_eq!(stats, serial_stats);
        }
    }

    #[test]
    fn repeated_pool_generation_is_stable_and_equals_pointwise_oracle() {
        let (sites, reg) = corridor_setup();
        let hops = feasible_hops(&reg);
        let builder = LinkBuilder::new(&sites, &reg, &hops, LinkBuilderConfig::default());
        let fiber = scaled_geodesic(&sites, 2.0);
        let (pool, stats) = builder.pruned_candidate_links_with(&fiber, 1);
        assert!(!pool.is_empty());
        assert_eq!(pool, pointwise_links(&builder, &hops));
        // A second run on the same builder gives the same pool and counters.
        assert_eq!(
            (pool, stats),
            builder.pruned_candidate_links_with(&fiber, 1)
        );
    }
}
