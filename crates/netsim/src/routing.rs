//! Route computation over the simulated topology.
//!
//! §5: "Besides ns-3's default shortest path routing, we implement two other
//! schemes — throughput optimal routing, and routing that minimizes the
//! maximum link utilization". Routes are computed once per (scheme, demand
//! set) and installed as source routes; the packet engine then replays them.
//!
//! * [`RoutingScheme::ShortestPath`] — minimum propagation latency.
//! * [`RoutingScheme::MinMaxUtilization`] — greedy sequential placement of
//!   demands (heaviest first) on the path minimising the resulting maximum
//!   link utilisation, the classic traffic-engineering objective of \[42\].
//! * [`RoutingScheme::ThroughputOptimal`] — load-balancing placement that
//!   minimises the sum of squared link utilisations, spreading load so the
//!   network can absorb the most additional traffic.
//!
//! Every search here runs on `cisp_graph`'s one shortest-path core: the
//! network's link table is packed once into a [`CsrGraph`] (link ids *are* CSR
//! edge ids, by construction), one reused [`SearchCore`] answers every query
//! — shortest-path demands share one search per distinct source, stopped once
//! that source's destinations are settled; the congestion-aware schemes
//! re-price the links per demand through its cost override — and the
//! computed routes land in an arena-backed [`PathStore`], so the whole routing
//! table is two allocations instead of one `Vec` per demand. Link failures
//! (the weather scenarios) are expressed as a disabled-link mask handed to
//! [`compute_routes_avoiding`]; disabled links simply price as `+∞`. A
//! caller that holds the all-links-up table and fails a few links at a time
//! (the storm sweep: ≈5 % of the demands cross a failed link per run) uses
//! [`reroute_avoiding`], which re-routes only what the failure touches.

use cisp_graph::{CsrGraph, PathStore, SearchCore};

use crate::network::{LinkId, Network, NodeId};

/// The routing schemes the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingScheme {
    /// Latency-shortest paths (the design target).
    ShortestPath,
    /// Minimise the maximum link utilisation.
    MinMaxUtilization,
    /// Minimise the sum of squared utilisations (throughput-optimal /
    /// load-balancing).
    ThroughputOptimal,
}

/// Latency class of a demand.
///
/// Foreground traffic — the latency-sensitive flows the paper's value metric
/// is about (gaming frames, small web transfers) — is always simulated
/// packet by packet. Background bulk traffic is eligible for flow-level
/// fluid modelling when the engine runs with
/// [`crate::fluid::BackgroundModel::Fluid`]; under the default
/// [`crate::fluid::BackgroundModel::Packet`] the tag changes nothing, so
/// untagged callers keep bit-identical behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TrafficClass {
    /// Latency-sensitive traffic, simulated packet-level in every mode.
    #[default]
    Foreground,
    /// Bulk traffic, modelled as fluid by the hybrid engine.
    Background,
}

/// A demand to be routed: `amount_bps` from `src` to `dst`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Demand {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Offered load in bits per second.
    pub amount_bps: f64,
    /// Latency class ([`TrafficClass::Foreground`] unless tagged otherwise).
    pub class: TrafficClass,
}

impl Demand {
    /// A foreground (latency-sensitive) demand — the default class every
    /// pre-existing caller gets.
    pub fn new(src: NodeId, dst: NodeId, amount_bps: f64) -> Self {
        Self {
            src,
            dst,
            amount_bps,
            class: TrafficClass::Foreground,
        }
    }

    /// A background (bulk) demand, eligible for fluid modelling.
    pub fn background(src: NodeId, dst: NodeId, amount_bps: f64) -> Self {
        Self {
            src,
            dst,
            amount_bps,
            class: TrafficClass::Background,
        }
    }

    /// `true` when tagged [`TrafficClass::Background`].
    pub fn is_background(&self) -> bool {
        self.class == TrafficClass::Background
    }
}

/// `true` when any demand carries the background tag — a *classified*
/// demand set. Classified runs report per-class statistics
/// ([`crate::monitor::SimReport::per_class`]); under
/// [`crate::fluid::BackgroundModel::Packet`] that split is the only
/// difference from the same set untagged.
pub(crate) fn any_background(demands: &[Demand]) -> bool {
    demands.iter().any(Demand::is_background)
}

/// The routes chosen for a set of demands, stored in one flat arena: route
/// `k` is the sequence of link ids demand `k` traverses (empty when
/// `src == dst` or unreachable).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoutingTable {
    store: PathStore,
}

impl RoutingTable {
    /// Wrap an already-built path arena (one path per demand, demand order).
    pub fn from_store(store: PathStore) -> Self {
        Self { store }
    }

    /// Number of routes (== number of demands routed).
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` when no demands were routed.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Demand `k`'s route as a slice of link ids.
    #[inline]
    pub fn route(&self, k: usize) -> &[u32] {
        self.store.path(k)
    }

    /// The underlying path arena.
    pub fn store(&self) -> &PathStore {
        &self.store
    }

    /// Propagation latency (seconds) of demand `k`'s route.
    pub fn route_latency_s(&self, network: &Network, k: usize) -> f64 {
        self.route(k)
            .iter()
            .map(|&l| network.link(l as LinkId).propagation_s)
            .sum()
    }

    /// Offered load of every link under the routed demands.
    #[cfg(test)]
    fn link_loads_bps(&self, network: &Network, demands: &[Demand]) -> Vec<f64> {
        let mut loads = vec![0.0; network.num_links()];
        for (k, demand) in demands.iter().enumerate() {
            for &l in self.route(k) {
                loads[l as usize] += demand.amount_bps;
            }
        }
        loads
    }

    /// Maximum link utilisation (load / rate) under the routed demands.
    #[cfg(test)]
    fn max_utilization(&self, network: &Network, demands: &[Demand]) -> f64 {
        self.link_loads_bps(network, demands)
            .iter()
            .enumerate()
            .map(|(l, &load)| load / network.link(l).rate_bps)
            .fold(0.0, f64::max)
    }
}

/// Install explicit link-id routes — the pinned-path counterpart of the
/// Dijkstra schemes. `paths` holds one path per demand, in demand order
/// (e.g. per-pair conduit routes translated from a topology's
/// [`PathStore`]); each is validated to be a contiguous walk from the
/// demand's source to its destination over existing links. Empty paths are
/// allowed (unroutable or `src == dst` demands keep their slot), matching
/// the Dijkstra schemes' convention.
pub fn install_pinned_routes(
    network: &Network,
    demands: &[Demand],
    paths: PathStore,
) -> RoutingTable {
    assert_eq!(paths.len(), demands.len(), "one pinned path per demand");
    for (k, d) in demands.iter().enumerate() {
        let path = paths.path(k);
        if path.is_empty() {
            continue;
        }
        let mut at = d.src;
        for &l in path {
            let spec = network.link(l as LinkId);
            assert_eq!(
                spec.from, at,
                "demand {k}: pinned path is not contiguous at link {l}"
            );
            at = spec.to;
        }
        assert_eq!(
            at, d.dst,
            "demand {k}: pinned path does not end at the destination"
        );
    }
    RoutingTable::from_store(paths)
}

/// Pack the network's link table into CSR form. Links are inserted in id
/// order, so CSR edge ids coincide with [`LinkId`]s.
fn network_csr(network: &Network) -> CsrGraph {
    CsrGraph::from_edges(
        network.num_nodes(),
        network
            .links()
            .iter()
            .map(|l| (l.from, l.to, l.propagation_s)),
    )
}

/// `true` when the mask (possibly empty = nothing disabled) disables `link`.
#[inline]
fn is_disabled(disabled: &[bool], link: u32) -> bool {
    disabled.get(link as usize).copied().unwrap_or(false)
}

/// Latency-shortest routes, over the links `disabled` leaves up, for the
/// demands `which` names: one search per distinct source among them, stopped
/// once that source's destinations are settled. Returns the routes in search
/// order together with each demand's slot among them (`usize::MAX` for one
/// `which` does not name); callers re-pack into demand order.
fn shortest_routes_by_source(
    csr: &CsrGraph,
    demands: &[Demand],
    mut which: Vec<usize>,
    disabled: &[bool],
) -> (PathStore, Vec<usize>) {
    // Stable, so a source's demands keep demand order.
    which.sort_by_key(|&k| demands[k].src);
    let surviving = |id, w| {
        if is_disabled(disabled, id) {
            f64::INFINITY
        } else {
            w
        }
    };
    let mut core = SearchCore::new();
    let mut routed = PathStore::with_capacity(which.len(), which.len() * 4);
    let mut slot_of = vec![usize::MAX; demands.len()];
    let mut targets = Vec::new();
    let mut scratch = Vec::new();
    for group in which.chunk_by(|&a, &b| demands[a].src == demands[b].src) {
        targets.clear();
        targets.extend(group.iter().map(|&k| demands[k].dst));
        let src = demands[group[0]].src;
        core.search_with(csr, src, &targets, f64::INFINITY, surviving);
        for &k in group {
            slot_of[k] = routed.len();
            core.edge_path_into(demands[k].dst, &mut scratch);
            routed.push_path(&scratch);
        }
    }
    (routed, slot_of)
}

/// Compute routes for a set of demands under a scheme.
pub fn compute_routes(
    network: &Network,
    demands: &[Demand],
    scheme: RoutingScheme,
) -> RoutingTable {
    compute_routes_avoiding(network, demands, scheme, &[])
}

/// [`compute_routes`] with a disabled-link mask: routes never traverse a
/// link whose mask entry is `true` (failed microwave links in the weather
/// scenarios). An empty mask disables nothing; a demand with no surviving
/// path gets an empty route.
pub fn compute_routes_avoiding(
    network: &Network,
    demands: &[Demand],
    scheme: RoutingScheme,
    disabled: &[bool],
) -> RoutingTable {
    let csr = network_csr(network);
    // Routes accumulate in search / placement order; re-packed into demand
    // order below.
    let (placed, slot_of) = match scheme {
        RoutingScheme::ShortestPath => {
            shortest_routes_by_source(&csr, demands, (0..demands.len()).collect(), disabled)
        }
        RoutingScheme::MinMaxUtilization | RoutingScheme::ThroughputOptimal => {
            // Sequential placement, heaviest demands first, each on the path
            // that minimises the scheme's congestion cost given the load
            // already placed.
            let mut order: Vec<usize> = (0..demands.len()).collect();
            order.sort_by(|&a, &b| {
                demands[b]
                    .amount_bps
                    .partial_cmp(&demands[a].amount_bps)
                    .unwrap()
                    .then(a.cmp(&b))
            });
            let mut loads = vec![0.0f64; network.num_links()];
            let mut placed = PathStore::with_capacity(demands.len(), demands.len() * 4);
            let mut slot_of = vec![0usize; demands.len()];
            let mut core = SearchCore::new();
            let mut scratch = Vec::new();
            for (slot, &k) in order.iter().enumerate() {
                slot_of[k] = slot;
                let d = demands[k];
                core.search_with(&csr, d.src, &[d.dst], f64::INFINITY, |id, w| {
                    if is_disabled(disabled, id) {
                        return f64::INFINITY;
                    }
                    let rate = network.link(id as LinkId).rate_bps;
                    match scheme {
                        // Penalise high post-placement utilisation steeply so
                        // the max is pushed down; the latency term breaks ties
                        // towards short paths.
                        RoutingScheme::MinMaxUtilization => {
                            let u_after = (loads[id as usize] + d.amount_bps) / rate;
                            u_after.powi(4) + 1e-6 * w
                        }
                        // Marginal increase of Σ u²  (∝ 2·load + demand).
                        RoutingScheme::ThroughputOptimal => {
                            (2.0 * loads[id as usize] + d.amount_bps) / rate + 1e-6 * w
                        }
                        RoutingScheme::ShortestPath => unreachable!(),
                    }
                });
                core.edge_path_into(d.dst, &mut scratch);
                for &l in &scratch {
                    loads[l as usize] += d.amount_bps;
                }
                placed.push_path(&scratch);
            }
            (placed, slot_of)
        }
    };
    let mut store = PathStore::with_capacity(demands.len(), placed.total_links());
    for &slot in &slot_of {
        store.push_path(placed.path(slot));
    }
    RoutingTable::from_store(store)
}

/// [`compute_routes_avoiding`] for a caller that already holds
/// `base_routes = compute_routes(base_network, demands, scheme)`: the same
/// table, from re-routing only what the failure touches.
///
/// `network` may differ from `base_network` in link rates only — same
/// nodes, same links in the same order, same propagation delays. Shortest
/// paths weigh propagation alone, so a rate cannot move one; the load-aware
/// schemes recompute on `network` and so see its rates.
///
/// Under [`RoutingScheme::ShortestPath`] a base route that crosses no
/// disabled link is kept as it is. Removing links lengthens distances or
/// leaves them, so such a route is still a shortest one; and it is still the
/// one the search picks among equals, because every node on it keeps its
/// distance and its predecessor was the first settled node to offer that
/// distance before the removal, when there were only more nodes to offer it.
/// Only the sources that own a broken route are searched, each until its
/// broken destinations are settled. The other schemes place each demand
/// against the load of the ones before it, so one broken route can move every
/// later one: they fall through to the full computation.
pub fn reroute_avoiding(
    network: &Network,
    demands: &[Demand],
    base_routes: &RoutingTable,
    scheme: RoutingScheme,
    disabled: &[bool],
) -> RoutingTable {
    assert_eq!(base_routes.len(), demands.len(), "a base route per demand");
    if scheme != RoutingScheme::ShortestPath {
        return compute_routes_avoiding(network, demands, scheme, disabled);
    }
    let broken: Vec<usize> = (0..demands.len())
        .filter(|&k| {
            base_routes
                .route(k)
                .iter()
                .any(|&l| is_disabled(disabled, l))
        })
        .collect();
    if broken.is_empty() {
        return base_routes.clone();
    }
    let (rerouted, slot_of) =
        shortest_routes_by_source(&network_csr(network), demands, broken, disabled);
    let mut store = PathStore::with_capacity(demands.len(), base_routes.store().total_links());
    for (k, &slot) in slot_of.iter().enumerate() {
        store.push_path(if slot == usize::MAX {
            base_routes.route(k)
        } else {
            rerouted.path(slot)
        });
    }
    RoutingTable::from_store(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::LinkSpec;

    /// Two nodes connected by a fast short path (via node 2) and a slow long
    /// path (via node 3): 0—2—1 with 5 ms links, 0—3—1 with 15 ms links.
    fn two_path_network(short_rate: f64, long_rate: f64) -> Network {
        let mut net = Network::new(4);
        for (a, b, delay, rate) in [
            (0, 2, 0.005, short_rate),
            (2, 1, 0.005, short_rate),
            (0, 3, 0.015, long_rate),
            (3, 1, 0.015, long_rate),
        ] {
            net.add_bidirectional_link(LinkSpec {
                from: a,
                to: b,
                rate_bps: rate,
                propagation_s: delay,
                buffer_bytes: 1e9,
            });
        }
        net
    }

    #[test]
    fn shortest_path_picks_low_latency_route() {
        let net = two_path_network(1e9, 1e9);
        let demands = vec![Demand::new(0, 1, 1e8)];
        let table = compute_routes(&net, &demands, RoutingScheme::ShortestPath);
        assert!((table.route_latency_s(&net, 0) - 0.010).abs() < 1e-9);
    }

    #[test]
    fn min_max_splits_demands_across_paths() {
        let net = two_path_network(1e9, 1e9);
        // Two demands of 600 Mbps each: on one path they exceed capacity,
        // min-max routing must place them on different paths.
        let demands = vec![Demand::new(0, 1, 6e8), Demand::new(0, 1, 6e8)];
        let sp = compute_routes(&net, &demands, RoutingScheme::ShortestPath);
        let mm = compute_routes(&net, &demands, RoutingScheme::MinMaxUtilization);
        assert!(sp.max_utilization(&net, &demands) > 1.0);
        assert!(mm.max_utilization(&net, &demands) <= 0.65);
        // The price of balancing: mean latency goes up.
        let sp_lat: f64 = (0..2).map(|k| sp.route_latency_s(&net, k)).sum();
        let mm_lat: f64 = (0..2).map(|k| mm.route_latency_s(&net, k)).sum();
        assert!(mm_lat > sp_lat);
    }

    #[test]
    fn throughput_optimal_also_balances() {
        let net = two_path_network(1e9, 1e9);
        let demands: Vec<Demand> = (0..4).map(|_| Demand::new(0, 1, 3e8)).collect();
        let to = compute_routes(&net, &demands, RoutingScheme::ThroughputOptimal);
        assert!(to.max_utilization(&net, &demands) <= 0.65);
    }

    #[test]
    fn unreachable_demand_gets_empty_route() {
        let mut net = Network::new(3);
        net.add_link(LinkSpec {
            from: 0,
            to: 1,
            rate_bps: 1e9,
            propagation_s: 0.001,
            buffer_bytes: 1e6,
        });
        let demands = vec![Demand::new(0, 2, 1e6)];
        let table = compute_routes(&net, &demands, RoutingScheme::ShortestPath);
        assert!(table.route(0).is_empty());
    }

    #[test]
    fn link_loads_accumulate_over_demands() {
        let net = two_path_network(1e9, 1e9);
        let demands = vec![Demand::new(0, 1, 1e8), Demand::new(1, 0, 2e8)];
        let table = compute_routes(&net, &demands, RoutingScheme::ShortestPath);
        let loads = table.link_loads_bps(&net, &demands);
        let total: f64 = loads.iter().sum();
        // Each demand crosses two links.
        assert!((total - 2.0 * (1e8 + 2e8)).abs() < 1.0);
    }

    #[test]
    fn same_src_dst_demand_has_empty_route() {
        let net = two_path_network(1e9, 1e9);
        let demands = vec![Demand::new(2, 2, 1e6)];
        let table = compute_routes(&net, &demands, RoutingScheme::ShortestPath);
        assert!(table.route(0).is_empty());
        assert_eq!(table.route_latency_s(&net, 0), 0.0);
    }

    #[test]
    fn disabled_links_are_avoided_by_every_scheme() {
        let net = two_path_network(1e9, 1e9);
        let demands = vec![Demand::new(0, 1, 1e8)];
        // Fail the short path's first hop (link 0 = 0→2): routes must fall
        // back to the long path through node 3.
        let mut disabled = vec![false; net.num_links()];
        disabled[0] = true;
        for scheme in [
            RoutingScheme::ShortestPath,
            RoutingScheme::MinMaxUtilization,
            RoutingScheme::ThroughputOptimal,
        ] {
            let table = compute_routes_avoiding(&net, &demands, scheme, &disabled);
            assert!(
                (table.route_latency_s(&net, 0) - 0.030).abs() < 1e-9,
                "{scheme:?} should take the 2 × 15 ms path"
            );
            assert!(!table.route(0).contains(&0));
        }
        // Failing both outbound first hops leaves the demand unroutable.
        disabled[4] = true; // 0→3
        let table = compute_routes_avoiding(&net, &demands, RoutingScheme::ShortestPath, &disabled);
        assert!(table.route(0).is_empty());
    }

    #[test]
    fn pinned_routes_install_explicit_paths() {
        let net = two_path_network(1e9, 1e9);
        let demands = vec![Demand::new(0, 1, 1e8), Demand::new(3, 3, 1e6)];
        // Pin the *long* path for demand 0 (Dijkstra would pick the short
        // one) and an empty path for the self-demand.
        let mut paths = PathStore::new();
        paths.push_path(&[4, 6]); // 0→3, 3→1
        paths.push_path(&[]);
        let table = install_pinned_routes(&net, &demands, paths);
        assert_eq!(table.route(0), &[4, 6]);
        assert!((table.route_latency_s(&net, 0) - 0.030).abs() < 1e-9);
        assert!(table.route(1).is_empty());
        // The pinned table drives load accounting like any other scheme.
        let loads = table.link_loads_bps(&net, &demands);
        assert_eq!(loads[4], 1e8);
        assert_eq!(loads[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "not contiguous")]
    fn pinned_routes_reject_discontiguous_paths() {
        let net = two_path_network(1e9, 1e9);
        let demands = vec![Demand::new(0, 1, 1e8)];
        let mut paths = PathStore::new();
        paths.push_path(&[0, 6]); // 0→2 then 3→1: broken walk
        install_pinned_routes(&net, &demands, paths);
    }

    #[test]
    #[should_panic(expected = "does not end")]
    fn pinned_routes_reject_wrong_destination() {
        let net = two_path_network(1e9, 1e9);
        let demands = vec![Demand::new(0, 1, 1e8)];
        let mut paths = PathStore::new();
        paths.push_path(&[0]); // stops at node 2
        install_pinned_routes(&net, &demands, paths);
    }

    #[test]
    fn shared_source_demands_share_a_tree_and_match_per_demand_costs() {
        let net = two_path_network(1e9, 1e9);
        let demands: Vec<Demand> = [1usize, 2, 3]
            .iter()
            .map(|&dst| Demand::new(0, dst, 1e6))
            .collect();
        let table = compute_routes(&net, &demands, RoutingScheme::ShortestPath);
        assert!((table.route_latency_s(&net, 0) - 0.010).abs() < 1e-9);
        assert!((table.route_latency_s(&net, 1) - 0.005).abs() < 1e-9);
        assert!((table.route_latency_s(&net, 2) - 0.015).abs() < 1e-9);
        // Routes are stored in one arena: 2 + 1 + 1 links.
        assert_eq!(table.store().total_links(), 4);
    }
}
