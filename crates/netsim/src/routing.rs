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
//! [`compute_routes_avoiding`]; disabled links simply price as `+∞`.
//!
//! A caller that holds the all-links-up table and fails a few links at a
//! time (the storm sweep: ≈5 % of the demands cross a failed link per run)
//! uses [`reroute_avoiding`]. Under [`RoutingScheme::ShortestPath`] it
//! searches nothing in the common case: it keeps each demand source's
//! fair-weather shortest-path tree — distance, predecessor link, and a
//! preorder with subtree sizes, so every subtree is one contiguous range —
//! and *repairs* it (decremental shortest paths in the style of
//! Ramalingam and Reps). The routes a failure breaks are exactly the
//! destinations under a failed tree link; only those subtrees are re-solved,
//! by a Dijkstra confined to them and seeded from the distances around them,
//! and the result is the table the search gives, bit for bit (the argument
//! is at [`reroute_avoiding`]). The what-if sweeps build the trees once
//! per sweep and share them across their workers
//! ([`crate::sim::Simulation::into_sweep`]); [`compute_routes`] never
//! builds them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// Refuse a disabled-link mask that was not built for `network`: a short
/// mask would leave every link past its end up, so routes would cross
/// links the caller meant to fail.
fn check_mask(network: &Network, disabled: &[bool]) {
    assert!(
        disabled.is_empty() || disabled.len() == network.num_links(),
        "disabled-link mask has {} entries for a network of {} links \
         (empty = every link up)",
        disabled.len(),
        network.num_links()
    );
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
///
/// # Panics
///
/// When the mask is neither empty nor one entry per link of `network`.
pub fn compute_routes_avoiding(
    network: &Network,
    demands: &[Demand],
    scheme: RoutingScheme,
    disabled: &[bool],
) -> RoutingTable {
    check_mask(network, disabled);
    let mut routes = RoutingTable::default();
    Rerouter::new(network).route_all(network, demands, scheme, disabled, &mut routes);
    routes
}

/// [`compute_routes_avoiding`] for a caller that already holds
/// `base_routes = compute_routes(base_network, demands, scheme)`: the same
/// table, from repairing what the failure touches.
///
/// `network` may differ from `base_network` in link rates only — same
/// nodes, same links in the same order, same propagation delays. Shortest
/// paths weigh propagation alone, so a rate cannot move one; the load-aware
/// schemes place each demand against the load of the ones before it, so one
/// broken route can move every later one: they recompute in full on
/// `network` and so see its rates.
///
/// Under [`RoutingScheme::ShortestPath`] each demand source's fair-weather
/// shortest-path tree is built from a full search and repaired. Why the
/// repaired table is the search's, bit for bit:
///
/// * The search's distance of a node is the least left-to-right float sum
///   over its paths, and its predecessor is the first offer, in relaxation
///   order, that reaches that distance.
/// * Removing links that are not links of a source's tree changes nothing
///   in that source's search: no offer over such a link set a node's final
///   distance and predecessor, and the heap pops by `(distance, node)`
///   alone, so every pop and every final offer happens as before. A source
///   without a failed tree link keeps every route.
/// * Otherwise only the nodes under a failed tree link can change: every
///   other node's tree path survives and removal lengthens nothing. Those
///   subtrees are re-solved by a Dijkstra confined to them, seeded from
///   their surviving in-links whose tails lie outside, at those tails' fair
///   distances — the same sums, bit for bit.
/// * When one in-neighbour alone offers a node its distance, the search's
///   predecessor is that neighbour's lowest-id link reaching it (parallel
///   links are relaxed in id order, with strict `<`), whatever the settle
///   order. A repair in which every node's distance has one such neighbour,
///   over a fair tree in which every node's had too, is therefore the
///   search's result.
/// * A source whose fair tree or repair meets an exact tie between offers
///   from two distinct nodes is searched instead, for all its demands:
///   zero-delay links can reorder the search's settles, so a tie is not
///   decided by distances and node ids alone.
///
/// # Panics
///
/// When the mask is neither empty nor one entry per link of `network`, or
/// `base_routes` does not hold one route per demand.
pub fn reroute_avoiding(
    network: &Network,
    demands: &[Demand],
    base_routes: &RoutingTable,
    scheme: RoutingScheme,
    disabled: &[bool],
) -> RoutingTable {
    check_mask(network, disabled);
    let fair = FairRoutes::new(network, demands, base_routes.clone(), scheme);
    let mut routes = RoutingTable::default();
    Rerouter::new(network).reroute(network, demands, &fair, disabled, &mut routes);
    routes
}

/// Sentinel for "no link" and "not reached" in the trees and the repair.
const NONE: u32 = u32::MAX;

/// What the variants of one network re-route from: its all-links-up table
/// and, under [`RoutingScheme::ShortestPath`], each demand source's
/// shortest-path tree. Built once per what-if sweep and shared read-only by
/// its workers.
#[derive(Debug)]
pub(crate) struct FairRoutes {
    scheme: RoutingScheme,
    table: RoutingTable,
    /// `None` under the load-aware schemes, which recompute in full.
    trees: Option<Trees>,
}

impl FairRoutes {
    /// `table` must be `compute_routes(network, demands, scheme)`.
    pub(crate) fn new(
        network: &Network,
        demands: &[Demand],
        table: RoutingTable,
        scheme: RoutingScheme,
    ) -> Self {
        assert_eq!(table.len(), demands.len(), "a base route per demand");
        let trees = (scheme == RoutingScheme::ShortestPath).then(|| Trees::new(network, demands));
        Self {
            scheme,
            table,
            trees,
        }
    }
}

/// Every demand source's fair-weather shortest-path tree, from a full,
/// unmasked search each. Per-node arrays are indexed `[tree * nodes + v]`.
#[derive(Debug)]
struct Trees {
    nodes: usize,
    /// Source node of each tree.
    sources: Vec<u32>,
    /// Whether some reached node of the tree has its distance offered by
    /// two distinct in-neighbours.
    tied: Vec<bool>,
    /// Distance from the tree's source, `+∞` when not reached.
    dist: Vec<f64>,
    /// The tree link into the node, [`NONE`] at the source and unreached.
    pred: Vec<u32>,
    /// The reached nodes in preorder, at the front of the tree's range.
    order: Vec<u32>,
    /// The node's index in its tree's `order`.
    pos: Vec<u32>,
    /// Nodes in the node's subtree, itself included; 0 when not reached.
    size: Vec<u32>,
    /// The demands from tree `t`'s source to node `v` are
    /// `demands[demands_at[t * nodes + v]..demands_at[t * nodes + v + 1]]`,
    /// so all of tree `t`'s demands are one range too.
    demands_at: Vec<u32>,
    demands: Vec<u32>,
    /// The network reversed: a node's "neighbours" are the tails of the
    /// links into it, by link id.
    reverse: CsrGraph,
}

/// `offsets[i]..offsets[i + 1]` ranges over `items` grouped by `key(item)`,
/// each group in item order (a stable counting sort).
fn group_by_key(groups: usize, items: usize, key: impl Fn(usize) -> usize) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = vec![0u32; groups + 1];
    for i in 0..items {
        offsets[key(i) + 1] += 1;
    }
    for g in 0..groups {
        offsets[g + 1] += offsets[g];
    }
    let mut cursor = offsets[..groups].to_vec();
    let mut grouped = vec![0u32; items];
    for i in 0..items {
        let g = key(i);
        grouped[cursor[g] as usize] = i as u32;
        cursor[g] += 1;
    }
    (offsets, grouped)
}

impl Trees {
    fn new(network: &Network, demands: &[Demand]) -> Self {
        let n = network.num_nodes();
        let links = network.links();
        let reverse =
            CsrGraph::from_edges(n, links.iter().map(|l| (l.to, l.from, l.propagation_s)));
        let mut tree_of = vec![NONE; n];
        let mut sources = Vec::new();
        for d in demands {
            if tree_of[d.src] == NONE {
                tree_of[d.src] = sources.len() as u32;
                sources.push(d.src as u32);
            }
        }
        let (demands_at, grouped) = group_by_key(sources.len() * n, demands.len(), |k| {
            tree_of[demands[k].src] as usize * n + demands[k].dst
        });

        let trees = sources.len();
        let mut dist = vec![f64::INFINITY; trees * n];
        let mut pred = vec![NONE; trees * n];
        let mut order = vec![NONE; trees * n];
        let mut pos = vec![NONE; trees * n];
        let mut size = vec![0u32; trees * n];
        let mut tied = vec![false; trees];
        let csr = network_csr(network);
        let mut core = SearchCore::new();
        let mut stack = Vec::new();
        for (t, &source) in sources.iter().enumerate() {
            let source = source as usize;
            core.search(&csr, source, &[], f64::INFINITY);
            let base = t * n;
            for v in 0..n {
                dist[base + v] = core.dist(v);
                pred[base + v] = core.prev(v).map_or(NONE, |(_, l)| l);
            }
            let (dist, pred) = (&dist[base..base + n], &pred[base..base + n]);
            let parent = |v: usize| links[pred[v] as usize].from;
            let (child_at, children) =
                group_by_key(n + 1, n, |v| if pred[v] == NONE { n } else { parent(v) });
            // Preorder: a subtree is popped whole before its siblings.
            let mut reached = 0;
            stack.push(source as u32);
            while let Some(v) = stack.pop() {
                let v = v as usize;
                order[base + reached] = v as u32;
                pos[base + v] = reached as u32;
                size[base + v] = 1;
                reached += 1;
                stack.extend_from_slice(&children[child_at[v] as usize..child_at[v + 1] as usize]);
            }
            for i in (1..reached).rev() {
                let v = order[base + i] as usize;
                size[base + parent(v)] += size[base + v];
            }
            tied[t] = (0..n).filter(|&v| pred[v] != NONE).any(|v| {
                let mut offering = NONE;
                reverse.neighbors(v).any(|(tail, weight, _)| {
                    if dist[tail] + weight != dist[v] || offering == tail as u32 {
                        return false;
                    }
                    std::mem::replace(&mut offering, tail as u32) != NONE
                })
            });
        }
        Self {
            nodes: n,
            sources,
            tied,
            dist,
            pred,
            order,
            pos,
            size,
            demands_at,
            demands: grouped,
            reverse,
        }
    }

    /// Tree `t`'s demands, by destination.
    fn demands_of(&self, t: usize) -> &[u32] {
        let at = |i: usize| self.demands_at[i] as usize;
        &self.demands[at(t * self.nodes)..at((t + 1) * self.nodes)]
    }

    /// Tree `t`'s demands to `v`.
    fn demands_to(&self, t: usize, v: usize) -> &[u32] {
        let i = t * self.nodes + v;
        &self.demands[self.demands_at[i] as usize..self.demands_at[i + 1] as usize]
    }
}

/// Work counts of a [`Rerouter`], summed over its calls. Only the unit
/// tests read them so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) struct RerouteCounts {
    /// Nodes re-solved by tree repairs.
    pub(crate) repaired_nodes: usize,
    /// Sources searched instead of repaired, over a tie.
    pub(crate) fallback_sources: usize,
}

/// The search state of [`compute_routes_avoiding`] and [`reroute_avoiding`],
/// kept so that a caller re-routing the same network again and again (a
/// what-if worker, [`crate::sim::Simulation::vary`]) reuses it: the network
/// packed into CSR form, the search core, the tree repair's buffers, the
/// per-demand slot table and the arena the routes are searched into. The
/// CSR weighs propagation only, and every network it serves has the same
/// links with the same delays, so it is packed once.
#[derive(Debug)]
pub(crate) struct Rerouter {
    csr: CsrGraph,
    core: SearchCore,
    repair: Repair,
    /// The demands to route, sorted by source before searching.
    which: Vec<usize>,
    /// Each demand's slot in `routed`, `usize::MAX` for one not routed.
    slot_of: Vec<usize>,
    /// Routes in search / placement order.
    routed: PathStore,
    targets: Vec<usize>,
    scratch: Vec<u32>,
    pub(crate) counts: RerouteCounts,
}

impl Rerouter {
    /// Search state over `network`'s links.
    pub(crate) fn new(network: &Network) -> Self {
        Self {
            csr: network_csr(network),
            core: SearchCore::new(),
            repair: Repair::default(),
            which: Vec::new(),
            slot_of: Vec::new(),
            routed: PathStore::new(),
            targets: Vec::new(),
            scratch: Vec::new(),
            counts: RerouteCounts::default(),
        }
    }

    /// [`reroute_avoiding`]'s table from `fair`, written into `out`.
    pub(crate) fn reroute(
        &mut self,
        network: &Network,
        demands: &[Demand],
        fair: &FairRoutes,
        disabled: &[bool],
        out: &mut RoutingTable,
    ) {
        check_mask(network, disabled);
        assert_eq!(fair.table.len(), demands.len(), "a base route per demand");
        let Some(trees) = &fair.trees else {
            self.route_all(network, demands, fair.scheme, disabled, out);
            return;
        };
        self.begin(demands.len());
        let repair = &mut self.repair;
        repair.failed.clear();
        repair.failed.extend(
            (0..disabled.len())
                .filter(|&l| disabled[l])
                .map(|l| (l as u32, network.link(l).to as u32)),
        );
        for t in 0..trees.sources.len() {
            if !repair.collect(trees, t) {
                continue;
            }
            if trees.tied[t] || !repair.run(trees, t, &self.csr, disabled) {
                self.counts.fallback_sources += 1;
                self.which
                    .extend(trees.demands_of(t).iter().map(|&k| k as usize));
                continue;
            }
            self.counts.repaired_nodes += repair.nodes.len();
            for &v in &repair.nodes {
                let to_v = trees.demands_to(t, v as usize);
                if to_v.is_empty() {
                    continue;
                }
                repair.path_into(trees, t, v as usize, network, &mut self.scratch);
                for &k in to_v {
                    self.slot_of[k as usize] = self.routed.push_path(&self.scratch);
                }
            }
        }
        self.shortest_by_source(demands, disabled);
        let store = &mut out.store;
        store.clear();
        for (k, &slot) in self.slot_of.iter().enumerate() {
            store.push_path(if slot == usize::MAX {
                fair.table.route(k)
            } else {
                self.routed.path(slot)
            });
        }
    }

    /// Start routing a set of `demands` demands: none routed yet.
    fn begin(&mut self, demands: usize) {
        self.which.clear();
        self.routed.clear();
        self.slot_of.clear();
        self.slot_of.resize(demands, usize::MAX);
    }

    /// [`compute_routes_avoiding`]'s table, written into `out`.
    fn route_all(
        &mut self,
        network: &Network,
        demands: &[Demand],
        scheme: RoutingScheme,
        disabled: &[bool],
        out: &mut RoutingTable,
    ) {
        self.begin(demands.len());
        self.which.extend(0..demands.len());
        match scheme {
            RoutingScheme::ShortestPath => self.shortest_by_source(demands, disabled),
            RoutingScheme::MinMaxUtilization | RoutingScheme::ThroughputOptimal => {
                self.place_by_load(network, demands, scheme, disabled)
            }
        }
        // Re-pack into demand order.
        let store = &mut out.store;
        store.clear();
        for &slot in &self.slot_of {
            store.push_path(self.routed.path(slot));
        }
    }

    /// Latency-shortest routes, over the links `disabled` leaves up, for the
    /// demands in `which`: one search per distinct source among them,
    /// stopped once that source's destinations are settled.
    fn shortest_by_source(&mut self, demands: &[Demand], disabled: &[bool]) {
        // Stable, so a source's demands keep demand order.
        self.which.sort_by_key(|&k| demands[k].src);
        let surviving = |id, w| {
            if is_disabled(disabled, id) {
                f64::INFINITY
            } else {
                w
            }
        };
        let which = &self.which;
        for group in which.chunk_by(|&a, &b| demands[a].src == demands[b].src) {
            self.targets.clear();
            self.targets.extend(group.iter().map(|&k| demands[k].dst));
            let src = demands[group[0]].src;
            self.core
                .search_with(&self.csr, src, &self.targets, f64::INFINITY, surviving);
            for &k in group {
                self.core.edge_path_into(demands[k].dst, &mut self.scratch);
                self.slot_of[k] = self.routed.push_path(&self.scratch);
            }
        }
    }

    /// Sequential placement of every demand, heaviest first, each on the
    /// path that minimises the scheme's congestion cost given the load
    /// already placed.
    fn place_by_load(
        &mut self,
        network: &Network,
        demands: &[Demand],
        scheme: RoutingScheme,
        disabled: &[bool],
    ) {
        self.which.sort_by(|&a, &b| {
            demands[b]
                .amount_bps
                .partial_cmp(&demands[a].amount_bps)
                .unwrap()
                .then(a.cmp(&b))
        });
        let mut loads = vec![0.0f64; network.num_links()];
        for (slot, &k) in self.which.iter().enumerate() {
            self.slot_of[k] = slot;
            let d = demands[k];
            self.core
                .search_with(&self.csr, d.src, &[d.dst], f64::INFINITY, |id, w| {
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
            self.core.edge_path_into(d.dst, &mut self.scratch);
            for &l in &self.scratch {
                loads[l as usize] += d.amount_bps;
            }
            self.routed.push_path(&self.scratch);
        }
    }
}

/// The tree repair of one source at a time, its buffers kept from one call
/// to the next. Node entries are valid where `in_set` holds the current
/// generation: the nodes under the failed links of the tree in hand.
#[derive(Debug, Default)]
struct Repair {
    /// This variant's disabled links, with their heads.
    failed: Vec<(u32, u32)>,
    gen: u32,
    /// Stamp: the node is under a failed tree link.
    in_set: Vec<u32>,
    /// Stamp: the node's repaired distance is final.
    settled: Vec<u32>,
    /// The nodes under the failed tree links.
    nodes: Vec<u32>,
    dist: Vec<f64>,
    /// The link of the least offer so far, the lowest id among its tail's.
    link: Vec<u32>,
    /// That link's tail.
    tail: Vec<u32>,
    /// A second node offers the same distance.
    tied: Vec<bool>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Repair {
    /// Gather the subtrees of tree `t` under this variant's failed links
    /// into `nodes`; `false` when no failed link is a link of the tree.
    fn collect(&mut self, trees: &Trees, t: usize) -> bool {
        let n = trees.nodes;
        if self.in_set.len() < n {
            self.in_set.resize(n, 0);
            self.settled.resize(n, 0);
            self.dist.resize(n, f64::INFINITY);
            self.link.resize(n, NONE);
            self.tail.resize(n, NONE);
            self.tied.resize(n, false);
        }
        if self.gen == u32::MAX {
            self.in_set.fill(0);
            self.settled.fill(0);
            self.gen = 0;
        }
        self.gen += 1;
        self.nodes.clear();
        let base = t * n;
        for &(l, head) in &self.failed {
            let head = head as usize;
            if trees.pred[base + head] != l || self.in_set[head] == self.gen {
                continue;
            }
            let at = base + trees.pos[base + head] as usize;
            for &v in &trees.order[at..at + trees.size[base + head] as usize] {
                if self.in_set[v as usize] != self.gen {
                    self.in_set[v as usize] = self.gen;
                    self.nodes.push(v);
                }
            }
        }
        !self.nodes.is_empty()
    }

    /// Re-solve the collected nodes of tree `t` over the links `disabled`
    /// leaves up: seed each from its in-links whose tails lie outside, at
    /// their fair distances, then run Dijkstra among them. `false` when a
    /// node's distance is offered by two distinct nodes.
    fn run(&mut self, trees: &Trees, t: usize, csr: &CsrGraph, disabled: &[bool]) -> bool {
        let base = t * trees.nodes;
        let gen = self.gen;
        for &v in &self.nodes {
            let v = v as usize;
            self.dist[v] = f64::INFINITY;
            self.tail[v] = NONE;
            self.link[v] = NONE;
            self.tied[v] = false;
        }
        self.heap.clear();
        for i in 0..self.nodes.len() {
            let v = self.nodes[i] as usize;
            for (tail, weight, l) in trees.reverse.neighbors(v) {
                let tail_dist = trees.dist[base + tail];
                if self.in_set[tail] != gen
                    && tail_dist < f64::INFINITY
                    && !is_disabled(disabled, l)
                {
                    self.offer(v, tail, l, tail_dist + weight);
                }
            }
            if self.dist[v] < f64::INFINITY {
                self.heap.push(Reverse((self.dist[v].to_bits(), v as u32)));
            }
        }
        // Non-negative floats order as their bit patterns do.
        while let Some(Reverse((_, u))) = self.heap.pop() {
            let u = u as usize;
            if std::mem::replace(&mut self.settled[u], gen) == gen {
                continue;
            }
            for (v, weight, l) in csr.neighbors(u) {
                if self.in_set[v] == gen
                    && !is_disabled(disabled, l)
                    && self.offer(v, u, l, self.dist[u] + weight)
                {
                    self.heap.push(Reverse((self.dist[v].to_bits(), v as u32)));
                }
            }
        }
        self.nodes.iter().all(|&v| !self.tied[v as usize])
    }

    /// `tail` offers `v` the distance `dist` over `link`; `true` when that
    /// lowers `v`'s. A settled node is never lowered (weights are
    /// non-negative), but a zero-delay link can still tie it.
    #[inline]
    fn offer(&mut self, v: usize, tail: usize, link: u32, dist: f64) -> bool {
        if dist < self.dist[v] {
            self.dist[v] = dist;
            self.link[v] = link;
            self.tail[v] = tail as u32;
            self.tied[v] = false;
            return true;
        }
        if dist == self.dist[v] && self.tail[v] != tail as u32 {
            self.tied[v] = true;
        }
        false
    }

    /// The repaired route of collected node `dst` in tree `t`, into `out`:
    /// repaired links while the walk is among the collected nodes, tree
    /// links once it leaves them; empty when `dst` is cut off.
    fn path_into(
        &self,
        trees: &Trees,
        t: usize,
        dst: usize,
        network: &Network,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        if self.dist[dst] == f64::INFINITY {
            return;
        }
        let (base, source) = (t * trees.nodes, trees.sources[t] as usize);
        let mut at = dst;
        while at != source {
            let l = if self.in_set[at] == self.gen {
                self.link[at]
            } else {
                trees.pred[base + at]
            };
            out.push(l);
            at = network.link(l as usize).from;
        }
        out.reverse();
    }
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
    #[should_panic(expected = "disabled-link mask has 4 entries for a network of 8 links")]
    fn a_mask_built_for_another_network_is_refused() {
        // Half a mask: links 4–7 would silently count as up, and the
        // demand would ride the failed long path's 0→3 link.
        let net = two_path_network(1e9, 1e9);
        let demands = vec![Demand::new(0, 1, 1e8)];
        let base = compute_routes(&net, &demands, RoutingScheme::ShortestPath);
        let short = vec![true, true, false, false];
        reroute_avoiding(&net, &demands, &base, RoutingScheme::ShortestPath, &short);
    }

    #[test]
    fn a_mask_of_the_wrong_length_is_refused_by_every_entry_point() {
        let net = two_path_network(1e9, 1e9);
        let demands = vec![Demand::new(0, 1, 1e8)];
        let base = compute_routes(&net, &demands, RoutingScheme::ShortestPath);
        for len in [1, net.num_links() - 1, net.num_links() + 1] {
            let mask = vec![false; len];
            for scheme in [
                RoutingScheme::ShortestPath,
                RoutingScheme::MinMaxUtilization,
            ] {
                let refused = |call: &dyn Fn()| {
                    let message = std::panic::catch_unwind(std::panic::AssertUnwindSafe(call))
                        .expect_err("a mask of the wrong length must be refused");
                    let message = message
                        .downcast_ref::<String>()
                        .cloned()
                        .unwrap_or_default();
                    assert!(message.contains("disabled-link mask"), "{message}");
                };
                refused(&|| {
                    compute_routes_avoiding(&net, &demands, scheme, &mask);
                });
                refused(&|| {
                    reroute_avoiding(&net, &demands, &base, scheme, &mask);
                });
            }
        }
        // Empty and full-length masks stay legal.
        for mask in [Vec::new(), vec![false; net.num_links()]] {
            let table = reroute_avoiding(&net, &demands, &base, RoutingScheme::ShortestPath, &mask);
            assert_eq!(table, base);
        }
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

    /// Directed links `(from, to, delay)` in id order, 1 Gbps each.
    fn directed(n: usize, links: &[(usize, usize, f64)]) -> Network {
        let mut net = Network::new(n);
        for &(from, to, propagation_s) in links {
            net.add_link(LinkSpec {
                from,
                to,
                rate_bps: 1e9,
                propagation_s,
                buffer_bytes: 1e6,
            });
        }
        net
    }

    /// [`reroute_avoiding`] on one kept [`Rerouter`], returning its counts.
    fn repaired(
        net: &Network,
        demands: &[Demand],
        disabled: &[bool],
    ) -> (RoutingTable, RerouteCounts) {
        let base = compute_routes(net, demands, RoutingScheme::ShortestPath);
        let fair = FairRoutes::new(net, demands, base, RoutingScheme::ShortestPath);
        let mut rerouter = Rerouter::new(net);
        let mut table = RoutingTable::default();
        rerouter.reroute(net, demands, &fair, disabled, &mut table);
        let full = compute_routes_avoiding(net, demands, RoutingScheme::ShortestPath, disabled);
        assert_eq!(table, full, "the repaired table is the search's");
        (table, rerouter.counts)
    }

    #[test]
    fn a_failed_tree_link_repairs_exactly_the_subtree_below_it() {
        // A six-node ring, both directions: 0-1 1 ms, 1-2 1, 2-3 1, 3-4 1.5,
        // 4-5 1, 5-0 1. Node 0's tree is 0→1→2→3 and 0→5→4.
        let mut ring = Vec::new();
        for (a, b, ms) in [
            (0, 1, 1.0),
            (1, 2, 1.0),
            (2, 3, 1.0),
            (3, 4, 1.5),
            (4, 5, 1.0),
            (5, 0, 1.0),
        ] {
            ring.push((a, b, ms * 1e-3));
            ring.push((b, a, ms * 1e-3));
        }
        let net = directed(6, &ring);
        let demands: Vec<Demand> = (1..6).map(|dst| Demand::new(0, dst, 1e6)).collect();
        let mut disabled = vec![false; net.num_links()];
        // 1→2 (link 2) carries the subtree {2, 3}: both go round the other
        // way, and nothing else is touched.
        disabled[2] = true;
        let (table, counts) = repaired(&net, &demands, &disabled);
        assert_eq!(
            counts,
            RerouteCounts {
                repaired_nodes: 2,
                fallback_sources: 0
            }
        );
        assert_eq!(table.route(1), &[11, 9, 7, 5]); // 0→5→4→3→2
        assert_eq!(table.route(2), &[11, 9, 7]); // 0→5→4→3
                                                 // 2→1 (link 3) is no link of node 0's tree: nothing to repair.
        disabled[2] = false;
        disabled[3] = true;
        let (table, counts) = repaired(&net, &demands, &disabled);
        assert_eq!(counts, RerouteCounts::default());
        assert_eq!(
            table,
            compute_routes(&net, &demands, RoutingScheme::ShortestPath)
        );
    }

    #[test]
    fn a_zero_delay_tie_falls_back_to_the_search() {
        // 0→1 at 1 ms is node 1's one best offer. Nodes 2 and 3 also reach
        // it at 2 ms, over zero-delay links; node 2 only through node 4, by
        // a zero-delay link, so the search settles node 3 first although
        // node 2 has the smaller id. Failing 0→1 leaves node 1 two equal
        // offers from distinct nodes, and the first by link id (node 2's)
        // is not the search's: the source is searched instead.
        let net = directed(
            5,
            &[
                (0, 1, 1e-3),
                (2, 1, 0.0),
                (3, 1, 0.0),
                (0, 3, 2e-3),
                (0, 4, 2e-3),
                (4, 2, 0.0),
            ],
        );
        let demands: Vec<Demand> = (1..5).map(|dst| Demand::new(0, dst, 1e6)).collect();
        let mut disabled = vec![false; net.num_links()];
        disabled[0] = true;
        let (table, counts) = repaired(&net, &demands, &disabled);
        assert_eq!(
            counts,
            RerouteCounts {
                repaired_nodes: 0,
                fallback_sources: 1
            }
        );
        assert_eq!(table.route(0), &[3, 2]); // 0→3→1
    }
}
