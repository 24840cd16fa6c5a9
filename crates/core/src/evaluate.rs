//! Lowering a designed topology into the packet simulator — the bridge the
//! paper's evaluation chain (§5–§7) runs over.
//!
//! The design layers produce a [`HybridTopology`]; the evaluation layers
//! (queueing simulation, weather-under-load, application models) consume a
//! `cisp_netsim` [`Network`] plus a [`Demand`] set. This module performs the
//! §5 conversion in one place:
//!
//! * co-located sites (geodesic distance zero) are deduplicated onto one
//!   representative node, so no zero-propagation links are ever emitted,
//! * every built microwave link becomes one bidirectional site-level link
//!   whose capacity comes from the k²-augmentation provisioning
//!   ([`augment_for_throughput`]) at the configured design target,
//! * fiber connectivity lowers in one of two shapes. A conduit-backed
//!   topology ([`HybridTopology::with_conduits`]) gets **one bidirectional
//!   link per physical conduit segment** — O(segments) links instead of the
//!   O(n²) per-pair mesh — so demands whose fiber fallbacks share a conduit
//!   queue against each other and conduit cuts are expressible
//!   ([`LoweredNetwork::conduit_link_ids`]). A matrix-backed topology falls
//!   back to the per-pair mesh of effectively-unconstrained links, with the
//!   1.5×-slowed propagation baked into the latency-equivalent distances
//!   either way,
//! * the offered traffic matrix is scaled to a load fraction of the design
//!   target and split into one directed [`Demand`] per direction per pair.
//!
//! The returned [`LoweredNetwork`] remembers which simulator links realise
//! which microwave links ([`LoweredNetwork::mw_link_ids`]) — that is the
//! hook the weather layer uses to map *failed* links onto the same network
//! and re-route around them — and which demand realises which site pair,
//! which is what lets [`pair_rtts`] turn a finished [`SimReport`] into
//! queueing-aware per-pair RTTs for the gaming and web models.

use std::sync::Mutex;

use cisp_geo::latency;
use cisp_geo::units::{FIBER_LATENCY_FACTOR, SPEED_OF_LIGHT_KM_PER_S};
use cisp_graph::DistMatrix;
use cisp_netsim::jobs::drain_jobs;
use cisp_netsim::network::{LinkId, LinkSpec, Network};
use cisp_netsim::routing::{Demand, TrafficClass};
use cisp_netsim::sim::{SimConfig, Simulation};
use cisp_netsim::SimReport;

use crate::augment::{augment_for_throughput, AugmentConfig};
use crate::topology::HybridTopology;

/// Configuration of the design → simulation lowering.
#[derive(Debug, Clone, Copy)]
pub struct EvaluateConfig {
    /// Aggregate throughput the microwave links are provisioned for, Gbps.
    pub design_aggregate_gbps: f64,
    /// Offered load as a fraction of the design target (paper: sweeps
    /// 0.1–1.0).
    pub load_fraction: f64,
    /// Drop-tail buffer per microwave link, bytes (≈100 packets of 500 B).
    pub mw_buffer_bytes: f64,
    /// Capacity assumed for fiber links (bps) — effectively unconstrained
    /// relative to the MW links, as in the paper.
    pub fiber_rate_bps: f64,
    /// Drop-tail buffer per fiber link, bytes.
    pub fiber_buffer_bytes: f64,
    /// Capacity-augmentation parameters used for provisioning.
    pub augment: AugmentConfig,
    /// Packet-engine configuration (duration, arrivals, routing scheme,
    /// seed, workers). On several workers the engine runs time-windowed
    /// over every active flow when their expected packets pay for
    /// partitioning their links and for every window's barriers, and on
    /// its warm serial engine otherwise; no field selects it (see
    /// `cisp_netsim::sim`). The paper-scale backbone's 14 042 flows form 25
    /// link-disjoint components, one holding 14 018 flows and 99.97 % of
    /// the expected packets, so one partition over every flow is the
    /// dominant component's. The benchmark's `packet_sim_us` op — a 0.1 s
    /// run of 1.75 M packets plus its application models — goes windowed:
    /// against whole components it fell from 1.35 s to 0.75 s of wall clock
    /// (medians of 10 alternating pairs, two cores). A 0.5 ms run of the
    /// same backbone (8 750 packets, the storm sweep's fair-weather run)
    /// runs serial, and so does each storm re-simulation inside a sweep.
    /// The report is bit-identical either way.
    pub sim: SimConfig,
}

impl Default for EvaluateConfig {
    fn default() -> Self {
        Self {
            design_aggregate_gbps: 10.0,
            load_fraction: 0.5,
            mw_buffer_bytes: 50_000.0,
            fiber_rate_bps: 400e9,
            fiber_buffer_bytes: 500_000.0,
            augment: AugmentConfig::default(),
            sim: SimConfig::default(),
        }
    }
}

/// A designed topology lowered into simulator form, with the bookkeeping
/// needed to map results (and failures) back onto the design.
#[derive(Debug, Clone)]
pub struct LoweredNetwork {
    /// The site-level packet network.
    pub network: Network,
    /// One directed demand per direction per traffic pair.
    pub demands: Vec<Demand>,
    /// `(src, dst)` site pair of each demand (demand order).
    pub demand_pairs: Vec<(usize, usize)>,
    /// Simulator link ids `(forward, reverse)` of each built microwave
    /// link, aligned with `topology.mw_links()` — the weather layer's
    /// failure hook. `(usize::MAX, usize::MAX)` for links that collapsed
    /// in the co-located-site dedup.
    pub mw_link_ids: Vec<(LinkId, LinkId)>,
    /// Simulator link ids `(a→b, b→a)` of each physical conduit segment,
    /// aligned with the topology's [`ConduitLayer::segments`] — the
    /// conduit-cut scenarios' failure hook. Empty for mesh lowerings;
    /// `(usize::MAX, usize::MAX)` for segments whose endpoints collapsed
    /// in the co-located-site dedup.
    ///
    /// [`ConduitLayer::segments`]: crate::topology::ConduitLayer::segments
    pub conduit_link_ids: Vec<(LinkId, LinkId)>,
    /// The configuration the lowering used.
    pub config: EvaluateConfig,
}

impl LoweredNetwork {
    /// Mask the bidirectional link pairs named by `indices` into `table`
    /// (stale indices and `usize::MAX` dedup-collapsed entries tolerated).
    fn mask_link_pairs(&self, table: &[(LinkId, LinkId)], indices: &[usize]) -> Vec<bool> {
        let mut mask = vec![false; self.network.num_links()];
        for &idx in indices {
            if let Some(&(fwd, rev)) = table.get(idx) {
                if fwd != usize::MAX {
                    mask[fwd] = true;
                    mask[rev] = true;
                }
            }
        }
        mask
    }

    /// Disabled-link mask over the simulator's links for a set of failed
    /// microwave links (indices into `topology.mw_links()`). Stale indices
    /// are tolerated, matching the weather layer's conventions.
    pub fn disabled_mask(&self, failed_mw_links: &[usize]) -> Vec<bool> {
        self.mask_link_pairs(&self.mw_link_ids, failed_mw_links)
    }

    /// Disabled-link mask for a set of *cut conduit segments* (indices into
    /// the topology's conduit layer). Stale indices and dedup-collapsed
    /// segments are tolerated.
    pub fn conduit_disabled_mask(&self, cut_segments: &[usize]) -> Vec<bool> {
        self.mask_link_pairs(&self.conduit_link_ids, cut_segments)
    }

    /// A ready-to-run simulation over the lowered network (fair weather:
    /// every link up).
    pub fn simulation(&self) -> Simulation {
        Simulation::new(self.network.clone(), self.demands.clone(), self.config.sim)
    }

    /// Re-run the lowered network under `n` what-if variants — storm
    /// intervals, conduit cuts, link upgrades — and return one row per
    /// variant, in variant order.
    ///
    /// `fair` is the fair-weather simulation, [`Self::simulation`], run or
    /// not: the sweep starts from it. `variant(v, network)` may scale link
    /// rates on a copy of [`Self::network`] and returns variant `v`'s
    /// disabled-link mask (empty = every link up); the demands are
    /// re-routed from `fair`'s routes as
    /// [`reroute_avoiding`](cisp_netsim::routing::reroute_avoiding) does,
    /// and `row(v, simulation)` runs the result. [`SimConfig::workers`] is
    /// spent across the variants ([`Simulation::into_sweep`]); the rows do
    /// not depend on it.
    ///
    /// The sweep builds no simulation of its own. `fair` becomes one
    /// worker's simulation — its first-emission list and its warm engine
    /// serve every variant that worker runs — and the other workers run
    /// clones of it. Under shortest-path routing every source's fair-weather
    /// shortest-path tree is built once, before the fan-out, and shared.
    /// Each worker turns its simulation into each of its variants in place
    /// by [`Simulation::vary`]: the link table and the route table are
    /// reset and refilled, the broken part of each tree is repaired rather
    /// than searched again, and a variant run on one worker simulates its
    /// flows on the warm serial engine without partitioning them. Every row
    /// is the one a cold simulation over the variant's
    /// [`compute_routes_avoiding`](cisp_netsim::routing::compute_routes_avoiding)
    /// table gives, bit for bit.
    pub fn rerun<T: Send>(
        &self,
        fair: Simulation,
        n: usize,
        variant: impl Fn(usize, &mut Network) -> Vec<bool> + Sync,
        row: impl Fn(usize, &mut Simulation) -> T + Sync,
    ) -> Vec<T> {
        if n == 0 {
            return Vec::new();
        }
        let sweep = fair.into_sweep(n);
        let width = sweep.len();
        let sweep = Mutex::new(sweep);
        drain_jobs(
            n,
            width,
            || {
                let mut sweep = sweep.lock().expect("no job panics holding the sweep");
                sweep.pop().expect("one simulation per worker")
            },
            |run, v| {
                run.vary(&self.network, |network| variant(v, network));
                row(v, run)
            },
        )
        .0
    }
}

/// Lower a designed topology and an offered traffic matrix (pair weights,
/// any scale) into a packet network and demand set. Every demand is
/// foreground-class; see [`lower_classified`] for the hybrid split.
pub fn lower(
    topology: &HybridTopology,
    offered_traffic: &DistMatrix,
    config: &EvaluateConfig,
) -> LoweredNetwork {
    let aggregate = config.design_aggregate_gbps * config.load_fraction;
    lower_with(
        topology,
        &[(offered_traffic, aggregate, TrafficClass::Foreground)],
        config,
    )
}

/// Lower with the traffic split by class: the foreground matrix is scaled
/// to `load_fraction × design target` exactly like [`lower`], and the
/// background matrix — bulk traffic, e.g. the datacenter-replication
/// component of the paper's §6.4 mix — is scaled to its own aggregate and
/// tagged [`TrafficClass::Background`], so a hybrid simulation
/// ([`BackgroundModel::Fluid`]) models it as fluid. Background demands are
/// appended after all foreground demands, still as consecutive
/// forward/reverse pairs, so [`pair_rtts`] keeps working (background pairs
/// report their propagation RTT: fluid flows deliver no packets).
///
/// [`BackgroundModel::Fluid`]: cisp_netsim::BackgroundModel::Fluid
pub fn lower_classified(
    topology: &HybridTopology,
    foreground: &DistMatrix,
    background: &DistMatrix,
    background_aggregate_gbps: f64,
    config: &EvaluateConfig,
) -> LoweredNetwork {
    let aggregate = config.design_aggregate_gbps * config.load_fraction;
    lower_with(
        topology,
        &[
            (foreground, aggregate, TrafficClass::Foreground),
            (
                background,
                background_aggregate_gbps,
                TrafficClass::Background,
            ),
        ],
        config,
    )
}

/// Shared lowering core: build the network once, then emit one demand per
/// direction per pair for every `(matrix, aggregate_gbps, class)` entry, in
/// entry order. Zero-aggregate or all-zero entries contribute nothing; at
/// least one entry must carry traffic.
fn lower_with(
    topology: &HybridTopology,
    traffic_classes: &[(&DistMatrix, f64, TrafficClass)],
    config: &EvaluateConfig,
) -> LoweredNetwork {
    let n = topology.num_sites();
    for (offered_traffic, aggregate, _) in traffic_classes {
        assert_eq!(
            offered_traffic.n(),
            n,
            "traffic matrix must cover the sites"
        );
        assert!(*aggregate >= 0.0);
    }
    assert!(config.load_fraction >= 0.0);

    // Deduplicate co-located sites (geodesic distance zero) onto one
    // representative node: a zero-length link would add a zero-propagation
    // hop the routing layer can spin through for free and would poison the
    // windowed engine's lookahead, so such pairs share a node instead. A
    // site is its own representative unless an earlier site sits at the
    // same location.
    let rep: Vec<usize> = (0..n)
        .map(|i| {
            (0..i)
                .find(|&j| topology.geodesic_km(j, i) == 0.0)
                .unwrap_or(i)
        })
        .collect();

    // Provision MW links for the design target using the topology's own
    // (design-time) traffic matrix — the offered matrix may differ; that
    // mismatch is exactly what Figs. 5 and 11 study.
    let augmentation =
        augment_for_throughput(topology, config.design_aggregate_gbps, &config.augment);

    let mut network = Network::new(n);
    let mut mw_link_ids = vec![(usize::MAX, usize::MAX); topology.mw_links().len()];
    for provision in &augmentation.links {
        let link = &topology.mw_links()[provision.link_index];
        let (from, to) = (rep[link.site_a], rep[link.site_b]);
        if from == to {
            // A microwave link between co-located sites carries nothing
            // the shared node does not already provide.
            continue;
        }
        let capacity_bps = (provision.series * provision.series) as f64 * 1e9;
        let ids = network.add_bidirectional_link(LinkSpec {
            from,
            to,
            rate_bps: capacity_bps,
            propagation_s: link.mw_length_km / SPEED_OF_LIGHT_KM_PER_S,
            buffer_bytes: config.mw_buffer_bytes,
        });
        mw_link_ids[provision.link_index] = ids;
    }

    // Fiber layer. Conduit-backed topologies lower one link per physical
    // conduit segment — O(segments) links, shared by every route that
    // traverses the conduit — while matrix-backed topologies fall back to
    // the dense per-pair mesh (plentiful bandwidth, 1.5×-slowed propagation
    // baked into the latency-equivalent distances either way).
    let mut conduit_link_ids = Vec::new();
    if let Some(layer) = topology.conduits() {
        conduit_link_ids = vec![(usize::MAX, usize::MAX); layer.num_segments()];
        for (s, seg) in layer.segments().iter().enumerate() {
            let (from, to) = (rep[seg.a], rep[seg.b]);
            if from == to {
                continue;
            }
            // The dedup above only collapses co-located *sites*; a
            // zero-length segment between distinct locations would still
            // emit the zero-propagation link the dedup exists to prevent —
            // degenerate input, so fail loudly rather than lower it.
            assert!(
                seg.route_km > 0.0,
                "conduit segment {s} has zero route length between distinct sites"
            );
            conduit_link_ids[s] = network.add_bidirectional_link(LinkSpec {
                from,
                to,
                rate_bps: config.fiber_rate_bps,
                propagation_s: seg.route_km * FIBER_LATENCY_FACTOR / SPEED_OF_LIGHT_KM_PER_S,
                buffer_bytes: config.fiber_buffer_bytes,
            });
        }
    } else {
        for i in 0..n {
            if rep[i] != i {
                continue;
            }
            for (j, &rep_j) in rep.iter().enumerate().skip(i + 1) {
                if rep_j != j {
                    continue;
                }
                let d = topology.fiber_km(i, j);
                if d.is_finite() && d > 0.0 {
                    network.add_bidirectional_link(LinkSpec {
                        from: i,
                        to: j,
                        rate_bps: config.fiber_rate_bps,
                        propagation_s: d / SPEED_OF_LIGHT_KM_PER_S,
                        buffer_bytes: config.fiber_buffer_bytes,
                    });
                }
            }
        }
    }

    // Offered demands: each class's matrix scaled so its pair sum is the
    // class aggregate, each pair split across directions. `demand_pairs`
    // keeps the original *site* pair; the demand endpoints are the
    // representative nodes (a co-located pair becomes a `src == dst`
    // demand, which emits nothing — its traffic needs no network).
    let mut demands = Vec::new();
    let mut demand_pairs = Vec::new();
    let mut any_traffic = false;
    for &(offered_traffic, aggregate_gbps, class) in traffic_classes {
        let total = offered_traffic.upper_triangle_sum();
        if total > 0.0 {
            // A zero aggregate (e.g. `load_fraction: 0`) legitimately emits
            // no demands; only all-zero *matrices* are a caller error.
            any_traffic = true;
        }
        if total <= 0.0 || aggregate_gbps <= 0.0 {
            continue;
        }
        let scale = aggregate_gbps / total;
        for i in 0..n {
            for j in (i + 1)..n {
                let gbps = offered_traffic.get(i, j) * scale;
                if gbps > 0.0 {
                    for (src, dst) in [(i, j), (j, i)] {
                        demands.push(Demand {
                            src: rep[src],
                            dst: rep[dst],
                            amount_bps: gbps * 1e9 / 2.0,
                            class,
                        });
                        demand_pairs.push((src, dst));
                    }
                }
            }
        }
    }
    assert!(any_traffic, "offered traffic matrix is empty");

    LoweredNetwork {
        network,
        demands,
        demand_pairs,
        mw_link_ids,
        conduit_link_ids,
        config: *config,
    }
}

/// Queueing-aware round-trip time of one site pair, extracted from a
/// simulation run.
#[derive(Debug, Clone, Copy)]
pub struct PairRtt {
    /// First site of the pair.
    pub site_a: usize,
    /// Second site of the pair.
    pub site_b: usize,
    /// Simulated RTT (forward + reverse mean one-way delay), milliseconds.
    /// Falls back to the propagation RTT when a direction delivered no
    /// packets.
    pub simulated_rtt_ms: f64,
    /// Zero-load propagation RTT over the built network, milliseconds.
    pub propagation_rtt_ms: f64,
    /// Packets delivered across both directions.
    pub delivered: u64,
    /// Offered load of the pair, bits per second (both directions).
    pub offered_bps: f64,
}

/// Per-pair simulated RTTs of a finished run. Pairs follow the lowering's
/// demand order (each unordered pair once).
pub fn pair_rtts(
    lowered: &LoweredNetwork,
    report: &SimReport,
    topology: &HybridTopology,
) -> Vec<PairRtt> {
    assert_eq!(report.flow_mean_delay_ms.len(), lowered.demands.len());
    let mut out = Vec::with_capacity(lowered.demands.len() / 2);
    // The lowering pushes the two directions of a pair consecutively.
    for k in (0..lowered.demands.len()).step_by(2) {
        let (i, j) = lowered.demand_pairs[k];
        // Hard assert: the fields are public, so a caller that reordered or
        // filtered the demands must not silently get mispaired RTTs.
        assert_eq!(
            lowered.demand_pairs[k + 1],
            (j, i),
            "demands are no longer in forward/reverse pair order"
        );
        let propagation_rtt_ms = 2.0 * latency::c_latency_ms(topology.effective_km(i, j));
        let delivered = report.flow_delivered[k] + report.flow_delivered[k + 1];
        let simulated_rtt_ms = if report.flow_delivered[k] > 0 && report.flow_delivered[k + 1] > 0 {
            report.flow_mean_delay_ms[k] + report.flow_mean_delay_ms[k + 1]
        } else {
            propagation_rtt_ms
        };
        out.push(PairRtt {
            site_a: i.min(j),
            site_b: i.max(j),
            simulated_rtt_ms,
            propagation_rtt_ms,
            delivered,
            offered_bps: lowered.demands[k].amount_bps + lowered.demands[k + 1].amount_bps,
        });
    }
    out
}

/// The full design → traffic → simulation chain in one call.
#[derive(Debug, Clone)]
pub struct EvaluationReport {
    /// The packet-level summary.
    pub sim: SimReport,
    /// Queueing-aware per-pair RTTs.
    pub pair_rtts: Vec<PairRtt>,
}

impl EvaluationReport {
    /// Offered-load-weighted mean simulated RTT across pairs, milliseconds.
    pub fn mean_rtt_ms(&self) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for p in &self.pair_rtts {
            num += p.offered_bps * p.simulated_rtt_ms;
            den += p.offered_bps;
        }
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }
}

/// Lower, simulate, and extract per-pair RTTs in one step.
pub fn evaluate(
    topology: &HybridTopology,
    offered_traffic: &DistMatrix,
    config: &EvaluateConfig,
) -> EvaluationReport {
    let lowered = lower(topology, offered_traffic, config);
    let report = lowered.simulation().run();
    let rtts = pair_rtts(&lowered, &report, topology);
    EvaluationReport {
        sim: report,
        pair_rtts: rtts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::links::CandidateLink;
    use cisp_geo::{geodesic, GeoPoint};
    use cisp_graph::PathStore;
    use cisp_netsim::routing::{install_pinned_routes, RoutingTable};

    /// Pin every demand of a conduit-backed lowering to its pure-fiber
    /// conduit route (ignoring the microwave spine): the topology's stored
    /// per-pair conduit paths, translated hop by hop into directed
    /// simulator link ids and installed via [`install_pinned_routes`]
    /// (which re-validates the walk). The reference the Dijkstra routes of
    /// a pure-fiber lowering are pinned against.
    fn pinned_fiber_routes(lowered: &LoweredNetwork, topology: &HybridTopology) -> RoutingTable {
        let layer = topology
            .conduits()
            .expect("pinned fiber routes need a conduit-backed topology");
        assert_eq!(
            lowered.conduit_link_ids.len(),
            layer.num_segments(),
            "lowering does not match the topology's conduit layer"
        );
        let demands = &lowered.demands;
        let mut store = PathStore::with_capacity(demands.len(), demands.len() * 4);
        for (k, &(src, dst)) in lowered.demand_pairs.iter().enumerate() {
            if demands[k].src == demands[k].dst {
                store.push_path(&[]);
                continue;
            }
            store.push_path_from(layer.hops(src, dst).into_iter().filter_map(|hop| {
                let (fwd, rev) = lowered.conduit_link_ids[hop.segment as usize];
                let id = if hop.forward { fwd } else { rev };
                // Dedup-collapsed (zero-length) segments contribute no
                // simulator hop; the walk stays contiguous because their
                // endpoints are the same node.
                (id != usize::MAX).then_some(id as u32)
            }));
        }
        install_pinned_routes(&lowered.network, demands, store)
    }

    /// Four sites across the central US, direct MW links on a chain, fiber
    /// at 1.9× elsewhere.
    fn test_topology() -> HybridTopology {
        let sites = vec![
            GeoPoint::new(41.9, -87.6),
            GeoPoint::new(39.1, -94.6),
            GeoPoint::new(32.8, -96.8),
            GeoPoint::new(39.7, -105.0),
        ];
        let n = sites.len();
        let traffic = vec![vec![1.0; n]; n];
        let fiber: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| geodesic::distance_km(sites[i], sites[j]) * 1.9)
                    .collect()
            })
            .collect();
        let mut topo = HybridTopology::new(sites.clone(), traffic, fiber);
        for (a, b) in [(0usize, 1usize), (1, 2), (1, 3)] {
            let geo = geodesic::distance_km(sites[a], sites[b]);
            topo.add_mw_link(CandidateLink {
                site_a: a.min(b),
                site_b: a.max(b),
                mw_length_km: geo * 1.04,
                tower_count: (geo / 80.0).ceil() as usize,
                tower_path: vec![0; 3],
            });
        }
        topo
    }

    fn fast_config() -> EvaluateConfig {
        EvaluateConfig {
            design_aggregate_gbps: 4.0,
            load_fraction: 0.5,
            sim: SimConfig {
                duration_s: 0.05,
                ..SimConfig::default()
            },
            ..EvaluateConfig::default()
        }
    }

    #[test]
    fn lowering_maps_links_and_demands() {
        let topo = test_topology();
        let lowered = lower(&topo, topo.traffic(), &fast_config());
        // 3 MW links + 6 fiber pairs, bidirectional.
        assert_eq!(lowered.network.num_links(), 2 * (3 + 6));
        // 6 pairs × 2 directions.
        assert_eq!(lowered.demands.len(), 12);
        assert_eq!(lowered.demand_pairs.len(), 12);
        // Every MW link id is populated and points at the right endpoints.
        for (k, &(fwd, rev)) in lowered.mw_link_ids.iter().enumerate() {
            let link = &topo.mw_links()[k];
            assert_eq!(lowered.network.link(fwd).from, link.site_a);
            assert_eq!(lowered.network.link(fwd).to, link.site_b);
            assert_eq!(lowered.network.link(rev).from, link.site_b);
        }
        // Demands sum to load_fraction × design target.
        let total_bps: f64 = lowered.demands.iter().map(|d| d.amount_bps).sum();
        assert!((total_bps - 2e9).abs() < 1.0, "total {total_bps}");
    }

    #[test]
    fn mw_links_are_faster_than_fiber() {
        let topo = test_topology();
        let config = fast_config();
        let lowered = lower(&topo, topo.traffic(), &config);
        // Each MW link against the fiber link between the same two sites.
        for (k, &(fwd, _)) in lowered.mw_link_ids.iter().enumerate() {
            let mw = lowered.network.link(fwd);
            let fiber = lowered
                .network
                .links()
                .iter()
                .find(|l| (l.from, l.to, l.rate_bps) == (mw.from, mw.to, config.fiber_rate_bps))
                .expect("fiber link exists");
            assert!(mw.propagation_s < fiber.propagation_s, "MW link {k}");
        }
    }

    #[test]
    fn higher_design_target_gives_more_capacity() {
        let topo = test_topology();
        let mw_rates = |design_aggregate_gbps| -> Vec<f64> {
            let config = EvaluateConfig {
                design_aggregate_gbps,
                ..fast_config()
            };
            let lowered = lower(&topo, topo.traffic(), &config);
            let rate = |&(fwd, _): &(LinkId, LinkId)| lowered.network.link(fwd).rate_bps;
            lowered.mw_link_ids.iter().map(rate).collect()
        };
        let (small, large) = (mw_rates(4.0), mw_rates(100.0));
        assert!(small.iter().zip(&large).all(|(s, l)| l >= s));
        assert!(small.iter().zip(&large).any(|(s, l)| l > s));
    }

    #[test]
    fn evaluate_produces_physical_rtts() {
        let topo = test_topology();
        let report = evaluate(&topo, topo.traffic(), &fast_config());
        assert!(report.sim.delivered > 0);
        assert_eq!(report.pair_rtts.len(), 6);
        for p in &report.pair_rtts {
            // Simulated RTT includes serialization + queueing: at least the
            // propagation RTT, and not absurdly larger at moderate load.
            assert!(
                p.simulated_rtt_ms >= p.propagation_rtt_ms - 1e-9,
                "pair ({}, {}): {} < {}",
                p.site_a,
                p.site_b,
                p.simulated_rtt_ms,
                p.propagation_rtt_ms
            );
            assert!(p.simulated_rtt_ms < p.propagation_rtt_ms + 20.0);
            assert!(p.delivered > 0);
        }
        assert!(report.mean_rtt_ms() > 0.0);
        assert_eq!(report.pair_rtts.len(), 6);
    }

    #[test]
    fn failing_a_link_reroutes_and_raises_latency() {
        let topo = test_topology();
        let lowered = lower(&topo, topo.traffic(), &fast_config());
        let mut fair_sim = lowered.simulation();
        let fair = fair_sim.run();
        // Variant 0 changes nothing; variant 1 fails every MW link, so
        // everything rides fiber and the mean delay must rise strictly;
        // variant 2 doubles the first MW link's rate, which the run sees.
        let all_failed: Vec<usize> = (0..topo.mw_links().len()).collect();
        let mask = lowered.disabled_mask(&all_failed);
        let (fwd, _) = lowered.mw_link_ids[0];
        let rows = lowered.rerun(
            fair_sim,
            3,
            |v, network| match v {
                1 => mask.clone(),
                2 => {
                    network.set_link_rate(fwd, network.link(fwd).rate_bps * 2.0);
                    Vec::new()
                }
                _ => Vec::new(),
            },
            |_, sim| (sim.network().link(fwd).rate_bps, sim.run()),
        );
        assert_eq!(rows[0].1, fair);
        assert_eq!(rows[2].0, 2.0 * lowered.network.link(fwd).rate_bps);
        let stormy = &rows[1].1;
        assert!(stormy.delivered > 0);
        assert!(
            stormy.mean_delay_ms > fair.mean_delay_ms,
            "fiber fallback must be slower: {} vs {}",
            stormy.mean_delay_ms,
            fair.mean_delay_ms
        );
        // No traffic crosses a disabled link.
        for (l, &disabled) in mask.iter().enumerate() {
            if disabled {
                assert_eq!(stormy.link_utilizations[l], 0.0, "link {l} carried load");
            }
        }
    }

    #[test]
    fn windowed_evaluation_is_bit_identical_to_serial() {
        let topo = test_topology();
        let mut serial_cfg = fast_config();
        serial_cfg.sim.workers = 1;
        let serial = evaluate(&topo, topo.traffic(), &serial_cfg);
        // The lowered network's fiber mesh joins every site: one component.
        assert_eq!(
            lower(&topo, topo.traffic(), &serial_cfg)
                .simulation()
                .num_components(),
            1
        );
        for workers in cisp_netsim::jobs::test_widths(&[1, 2, 4]) {
            let mut cfg = fast_config();
            cfg.sim.workers = workers;
            let evaluated = evaluate(&topo, topo.traffic(), &cfg);
            assert_eq!(serial.sim, evaluated.sim, "workers {workers}");
            let lowered = lower(&topo, topo.traffic(), &cfg);
            for window_s in [0.0, 1e-3] {
                let forced = lowered.simulation().run_windowed(window_s);
                assert_eq!(serial.sim, forced, "workers {workers}, window {window_s}");
            }
        }
    }

    /// The same four sites as [`test_topology`], but conduit-backed: a
    /// conduit chain through Kansas City plus a direct Chicago–Denver
    /// detour conduit, with the same MW spine built on top.
    fn conduit_test_topology() -> HybridTopology {
        use cisp_data::fiber::{FiberLink, FiberNetwork};
        let sites = vec![
            GeoPoint::new(41.9, -87.6),
            GeoPoint::new(39.1, -94.6),
            GeoPoint::new(32.8, -96.8),
            GeoPoint::new(39.7, -105.0),
        ];
        let n = sites.len();
        let seg = |a: usize, b: usize, factor: f64| FiberLink {
            a,
            b,
            route_km: geodesic::distance_km(sites[a], sites[b]) * factor,
        };
        let fiber = FiberNetwork::from_parts(
            sites.clone(),
            vec![
                seg(0, 1, 1.25),
                seg(1, 2, 1.25),
                seg(1, 3, 1.25),
                seg(0, 3, 1.4),
            ],
        );
        let traffic = vec![vec![1.0; n]; n];
        let mut topo = HybridTopology::with_conduits(sites.clone(), traffic, &fiber);
        for (a, b) in [(0usize, 1usize), (1, 2), (1, 3)] {
            let geo = geodesic::distance_km(sites[a], sites[b]);
            topo.add_mw_link(CandidateLink {
                site_a: a.min(b),
                site_b: a.max(b),
                mw_length_km: geo * 1.04,
                tower_count: (geo / 80.0).ceil() as usize,
                tower_path: vec![0; 3],
            });
        }
        topo
    }

    #[test]
    fn conduit_lowering_emits_one_link_per_segment() {
        let topo = conduit_test_topology();
        let lowered = lower(&topo, topo.traffic(), &fast_config());
        // 3 MW links + 4 conduit segments, bidirectional — not the 6-pair
        // mesh.
        assert_eq!(lowered.network.num_links(), 2 * (3 + 4));
        assert_eq!(lowered.conduit_link_ids.len(), 4);
        for (s, &(fwd, rev)) in lowered.conduit_link_ids.iter().enumerate() {
            let seg = topo.conduits().unwrap().segments()[s];
            assert_eq!(lowered.network.link(fwd).from, seg.a);
            assert_eq!(lowered.network.link(fwd).to, seg.b);
            assert_eq!(lowered.network.link(rev).from, seg.b);
            let expected_s = seg.route_km * 1.5 / SPEED_OF_LIGHT_KM_PER_S;
            assert!((lowered.network.link(fwd).propagation_s - expected_s).abs() < 1e-12);
        }
        // The evaluation chain runs end to end on the conduit lowering.
        let report = evaluate(&topo, topo.traffic(), &fast_config());
        assert!(report.sim.delivered > 0);
        assert_eq!(report.pair_rtts.len(), 6);
        for p in &report.pair_rtts {
            assert!(p.simulated_rtt_ms >= p.propagation_rtt_ms - 1e-9);
        }
    }

    #[test]
    fn conduit_fiber_fallback_shares_segments_and_queues() {
        // Pure-fiber conduit topology (no MW spine): the 0↔2 and 3↔2
        // fallbacks both traverse the (1, 2) conduit, so with fiber
        // capacity in demand range they queue against each other — the
        // sharing the per-pair mesh could never express.
        let topo = {
            let mut t = conduit_test_topology();
            t = HybridTopology::with_conduits(
                t.sites().to_vec(),
                t.traffic().clone(),
                &cisp_data::fiber::FiberNetwork::from_parts(
                    t.sites().to_vec(),
                    t.conduits().unwrap().segments().to_vec(),
                ),
            );
            t
        };
        let config = EvaluateConfig {
            design_aggregate_gbps: 4.0,
            load_fraction: 0.5,
            fiber_rate_bps: 1e9,
            sim: SimConfig {
                duration_s: 0.05,
                ..SimConfig::default()
            },
            ..EvaluateConfig::default()
        };
        let lowered = lower(&topo, topo.traffic(), &config);
        let mut sim = lowered.simulation();
        // Multiple demands ride the shared (1, 2) conduit in each direction.
        let (fwd, _) = lowered.conduit_link_ids[1];
        let riders = (0..lowered.demands.len())
            .filter(|&k| sim.routes().route(k).contains(&(fwd as u32)))
            .count();
        assert!(riders >= 2, "expected shared conduit, got {riders} riders");
        let report = sim.run();
        assert!(report.delivered > 0);
        assert!(
            report.mean_queue_delay_ms > 0.0,
            "shared conduits must exhibit queueing"
        );
    }

    #[test]
    fn pinned_fiber_routes_realise_the_fiber_matrix() {
        // Without a MW spine, the Dijkstra routes and the pinned conduit
        // routes are the same pure-fiber paths.
        let base = conduit_test_topology();
        let topo = HybridTopology::with_conduits(
            base.sites().to_vec(),
            base.traffic().clone(),
            &cisp_data::fiber::FiberNetwork::from_parts(
                base.sites().to_vec(),
                base.conduits().unwrap().segments().to_vec(),
            ),
        );
        let lowered = lower(&topo, topo.traffic(), &fast_config());
        let pinned = pinned_fiber_routes(&lowered, &topo);
        let dijkstra = lowered.simulation();
        for (k, &(i, j)) in lowered.demand_pairs.iter().enumerate() {
            // The pinned route's propagation realises the latency-equivalent
            // fiber distance (reassociated sum: ulp-level tolerance).
            let expected_s = topo.fiber_km(i, j) / SPEED_OF_LIGHT_KM_PER_S;
            assert!(
                (pinned.route_latency_s(&lowered.network, k) - expected_s).abs() < 1e-12,
                "demand {k}"
            );
            assert_eq!(pinned.route(k), dijkstra.routes().route(k), "demand {k}");
        }
        // And the pinned simulation reproduces the Dijkstra-routed one.
        let mut a = Simulation::with_routes(
            lowered.network.clone(),
            lowered.demands.clone(),
            pinned,
            lowered.config.sim,
        );
        let mut b = lowered.simulation();
        assert_eq!(a.run(), b.run());
    }

    #[test]
    #[should_panic(expected = "zero route length")]
    fn zero_length_conduit_between_distinct_sites_is_rejected() {
        use cisp_data::fiber::{FiberLink, FiberNetwork};
        let sites = vec![GeoPoint::new(41.9, -87.6), GeoPoint::new(39.1, -94.6)];
        let fiber = FiberNetwork::from_parts(
            sites.clone(),
            vec![FiberLink {
                a: 0,
                b: 1,
                route_km: 0.0,
            }],
        );
        let topo =
            HybridTopology::with_conduits(sites, vec![vec![0.0, 1.0], vec![1.0, 0.0]], &fiber);
        lower(&topo, topo.traffic(), &fast_config());
    }

    #[test]
    fn co_located_sites_are_deduplicated_before_lowering() {
        // Sites 0 and 1 are the same location (a coalescing miss): the
        // lowering must not emit a zero-propagation link for them.
        let sites = vec![
            GeoPoint::new(41.9, -87.6),
            GeoPoint::new(41.9, -87.6),
            GeoPoint::new(32.8, -96.8),
            GeoPoint::new(39.7, -105.0),
        ];
        let n = sites.len();
        let traffic = vec![vec![1.0; n]; n];
        let fiber: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| geodesic::distance_km(sites[i], sites[j]) * 1.9)
                    .collect()
            })
            .collect();
        let mut topo = HybridTopology::new(sites.clone(), traffic, fiber);
        let geo = geodesic::distance_km(sites[0], sites[2]);
        topo.add_mw_link(CandidateLink {
            site_a: 0,
            site_b: 2,
            mw_length_km: geo * 1.04,
            tower_count: 8,
            tower_path: vec![0; 3],
        });
        let lowered = lower(&topo, topo.traffic(), &fast_config());
        for l in lowered.network.links() {
            assert!(
                l.propagation_s > 0.0,
                "zero-propagation link {} → {} survived dedup",
                l.from,
                l.to
            );
            assert_ne!(l.to, 1, "links must target the representative node");
            assert_ne!(l.from, 1, "links must leave the representative node");
        }
        // Mesh links cover representative pairs only: (0,2), (0,3), (2,3)
        // fiber plus the MW link, bidirectional.
        assert_eq!(lowered.network.num_links(), 2 * (3 + 1));
        // The co-located demand collapses onto one node and emits nothing,
        // but keeps its slot so the pair bookkeeping stays aligned.
        let k = lowered
            .demand_pairs
            .iter()
            .position(|&p| p == (0, 1))
            .expect("pair (0, 1) must keep its demand slot");
        assert_eq!(lowered.demands[k].src, lowered.demands[k].dst);
        let report = lowered.simulation().run();
        assert!(report.delivered > 0);
        let rtts = pair_rtts(&lowered, &report, &topo);
        let co = rtts
            .iter()
            .find(|p| p.site_a == 0 && p.site_b == 1)
            .unwrap();
        assert_eq!(co.simulated_rtt_ms, 0.0);
        assert_eq!(co.delivered, 0);
    }

    #[test]
    fn stale_failure_indices_are_tolerated() {
        let topo = test_topology();
        let lowered = lower(&topo, topo.traffic(), &fast_config());
        let mask = lowered.disabled_mask(&[99, 7]);
        assert!(mask.iter().all(|&d| !d));
    }

    #[test]
    fn classified_lowering_appends_tagged_background_pairs() {
        let topo = test_topology();
        let config = fast_config();
        let plain = lower(&topo, topo.traffic(), &config);
        let classified = lower_classified(&topo, topo.traffic(), topo.traffic(), 1.0, &config);
        // Foreground demands come first and are identical to the plain
        // lowering; the background entry appends its own fwd/rev pairs.
        assert_eq!(classified.demands.len(), 2 * plain.demands.len());
        assert_eq!(
            &classified.demands[..plain.demands.len()],
            &plain.demands[..]
        );
        for (k, d) in classified.demands.iter().enumerate() {
            let expect_bg = k >= plain.demands.len();
            assert_eq!(d.is_background(), expect_bg, "demand {k}");
        }
        // Background scaled to its own aggregate: 1 Gbps total.
        let bg_bps: f64 = classified.demands[plain.demands.len()..]
            .iter()
            .map(|d| d.amount_bps)
            .sum();
        assert!((bg_bps - 1e9).abs() < 1.0, "background total {bg_bps}");
        // Pair order still alternates forward/reverse — pair_rtts' contract.
        for k in (0..classified.demand_pairs.len()).step_by(2) {
            let (i, j) = classified.demand_pairs[k];
            assert_eq!(classified.demand_pairs[k + 1], (j, i));
        }
        // A zero background aggregate lowers to exactly the plain result.
        let zero_bg = lower_classified(&topo, topo.traffic(), topo.traffic(), 0.0, &config);
        assert_eq!(zero_bg.demands, plain.demands);
    }

    #[test]
    fn hybrid_evaluation_flows_through_pair_rtts() {
        // The classified lowering plus a Fluid background runs through the
        // same simulation/report machinery the weather and app layers use:
        // foreground pairs keep queueing-aware RTTs, background pairs fall
        // back to propagation (fluid flows deliver no packets), and the
        // report carries the class stats.
        let topo = test_topology();
        let mut config = fast_config();
        config.sim.background = cisp_netsim::BackgroundModel::Fluid;
        let lowered = lower_classified(&topo, topo.traffic(), topo.traffic(), 0.5, &config);
        let report = lowered.simulation().run();
        assert!(report.delivered > 0);
        let bg = report
            .background
            .expect("hybrid run must report class stats");
        assert_eq!(bg.flows, 12);
        assert!(bg.offered_bits > 0.0);
        let rtts = pair_rtts(&lowered, &report, &topo);
        assert_eq!(rtts.len(), 12); // 6 foreground + 6 background pairs
        for p in &rtts[..6] {
            assert!(p.delivered > 0);
            assert!(p.simulated_rtt_ms >= p.propagation_rtt_ms - 1e-9);
        }
        for p in &rtts[6..] {
            assert_eq!(p.delivered, 0);
            assert_eq!(p.simulated_rtt_ms, p.propagation_rtt_ms);
        }
    }
}
