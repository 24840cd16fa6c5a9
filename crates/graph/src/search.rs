//! The shortest-path core: single-source Dijkstra over [`CsrGraph`].
//!
//! `cisp_graph` answers "shortest path" in two roles. [`SearchCore`] is the
//! search production code runs — the candidate pool's per-site tower
//! searches, the disjoint-path figure, the conduit route matrices, the
//! simulator's routing tables and every storm's re-route.
//! [`dijkstra`](crate::dijkstra) is the adjacency-list reference that
//! `SearchCore` is pinned against; only the tests call it (the pool's
//! pointwise oracle, the disjoint-path reference, the parity tests).
//!
//! The core is built for many searches over one graph (one bounded search
//! per site, 119 at paper scale, over the same ~12.5k-node tower graph; one
//! search per demand in congestion-aware routing), so it keeps all scratch
//! alive between runs:
//!
//! * **generation-stamped buffers** — `dist`/`prev`/`settled` validity is a
//!   per-run stamp, so starting a new source is O(1), not O(n) clearing;
//! * **indexed d-ary heap** — a 4-ary heap with a position index and true
//!   decrease-key, so the heap never holds stale entries and each node
//!   occupies at most one slot;
//! * **multi-target early termination** — the search stops as soon as every
//!   requested target is settled, composed with the `max_cost` cap used by
//!   the oracle prune;
//! * **per-edge cost override** — [`SearchCore::search_with`] prices every
//!   edge through a caller's closure (congestion-aware routing re-prices
//!   links between placements without rebuilding the graph); a non-finite
//!   cost takes the edge out (failed links, the towers a disjoint path has
//!   used).
//!
//! The settle order is pinned to the reference's lazy-deletion heap: the next
//! settled node is the smallest `(tentative distance, node index)` pair, and
//! relaxation uses strict `<`, so predecessors are first-writer-wins in CSR
//! slot order. A run of [`SearchCore::search`] therefore produces *bit
//! identical* distances, predecessors, and extracted paths to
//! [`dijkstra::shortest_path_tree`](crate::dijkstra::shortest_path_tree) over
//! the same graph — the property the parity tests pin.
//!
//! Weights are validated finite and non-negative at graph construction
//! ([`CsrGraph::from_edges`], [`CsrGraph::from_undirected`],
//! [`Graph::add_edge`](crate::Graph::add_edge)),
//! so the `(dist, node)` comparison below never sees a NaN.

use crate::csr::{CsrGraph, NO_EDGE};

/// Heap arity. Four children per node trades a slightly deeper compare fan
/// for half the tree depth of a binary heap; sift-downs dominate Dijkstra
/// and touch one cache line per level.
const ARITY: usize = 4;

/// A reusable bounded multi-target Dijkstra over [`CsrGraph`].
///
/// One `SearchCore` serves any number of sequential [`search`] runs, over
/// graphs of any (possibly differing) size; buffers grow monotonically and
/// are never cleared between runs. Not `Sync`: use one core per worker
/// thread when fanning out over sources.
///
/// [`search`]: SearchCore::search
#[derive(Debug, Clone, Default)]
pub struct SearchCore {
    /// Current run's generation stamp. Stamps equal to `gen` are live.
    gen: u32,
    /// Tentative/final distance per node (valid when `touched == gen`).
    dist: Vec<f64>,
    /// Predecessor node (valid when `touched == gen`; `NO_EDGE` at source).
    prev_node: Vec<u32>,
    /// Predecessor edge id (same validity as `prev_node`).
    prev_edge: Vec<u32>,
    /// Stamp: node's `dist`/`prev_*` entries belong to the current run.
    touched: Vec<u32>,
    /// Stamp: node settled (distance final) in the current run.
    settled: Vec<u32>,
    /// Stamp: node is a termination target of the current run.
    target: Vec<u32>,
    /// The d-ary heap: node ids ordered by `(dist, node)`.
    heap: Vec<u32>,
    /// Heap slot of each node (valid while touched and not settled).
    pos: Vec<u32>,
    /// Source of the most recent run.
    source: usize,
}

impl SearchCore {
    /// A fresh core with no scratch allocated; buffers size themselves to
    /// the first searched graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow scratch to `n` nodes and open a new generation.
    fn begin(&mut self, n: usize) {
        if n > self.dist.len() {
            self.dist.resize(n, 0.0);
            self.prev_node.resize(n, NO_EDGE);
            self.prev_edge.resize(n, NO_EDGE);
            self.touched.resize(n, 0);
            self.settled.resize(n, 0);
            self.target.resize(n, 0);
            self.pos.resize(n, 0);
        }
        if self.gen == u32::MAX {
            // Stamp wrap-around: reset everything once per ~4 billion runs.
            self.touched.fill(0);
            self.settled.fill(0);
            self.target.fill(0);
            self.gen = 0;
        }
        self.gen += 1;
        self.heap.clear();
    }

    /// `(dist, node)` heap order — the exact tie-break of the reference's
    /// lazy-deletion heap, which is what makes settle order (and therefore
    /// first-writer predecessors) bit-identical to it.
    #[inline]
    fn less(&self, a: u32, b: u32) -> bool {
        let da = self.dist[a as usize];
        let db = self.dist[b as usize];
        da < db || (da == db && a < b)
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        let node = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            let p = self.heap[parent];
            if !self.less(node, p) {
                break;
            }
            self.heap[i] = p;
            self.pos[p as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = node;
        self.pos[node as usize] = i as u32;
    }

    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        let node = self.heap[i];
        loop {
            let first = i * ARITY + 1;
            if first >= len {
                break;
            }
            let last = (first + ARITY).min(len);
            let mut best = first;
            for c in first + 1..last {
                if self.less(self.heap[c], self.heap[best]) {
                    best = c;
                }
            }
            let b = self.heap[best];
            if !self.less(b, node) {
                break;
            }
            self.heap[i] = b;
            self.pos[b as usize] = i as u32;
            i = best;
        }
        self.heap[i] = node;
        self.pos[node as usize] = i as u32;
    }

    #[inline]
    fn heap_push(&mut self, node: u32) {
        let i = self.heap.len();
        self.heap.push(node);
        self.pos[node as usize] = i as u32;
        self.sift_up(i);
    }

    /// Remove and return the minimum node. The heap must be non-empty.
    #[inline]
    fn heap_pop(&mut self) -> u32 {
        let root = self.heap[0];
        let last = self.heap.pop().expect("pop from empty heap");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0);
        }
        root
    }

    /// Run Dijkstra from `source`, stopping when (whichever comes first):
    ///
    /// * every node in `targets` is settled (`targets` empty ⇒ no target
    ///   stop — run to the cap or exhaustion);
    /// * the smallest tentative distance exceeds `max_cost` (pass
    ///   `f64::INFINITY` for an uncapped run);
    /// * the frontier is exhausted.
    ///
    /// Results are read back through [`dist`](Self::dist) /
    /// [`settled`](Self::settled) / [`node_path_into`](Self::node_path_into) /
    /// [`edge_path_into`](Self::edge_path_into) and stay valid until the next
    /// search. Distances of touched but unsettled nodes are the tentative
    /// values at stop time — exactly what the reference's bounded tree
    /// reports, which the oracle-prune stats rely on.
    pub fn search(&mut self, graph: &CsrGraph, source: usize, targets: &[usize], max_cost: f64) {
        self.search_with(graph, source, targets, max_cost, |_, weight| weight);
    }

    /// [`search`](Self::search) with a per-edge cost override:
    /// `cost(edge_id, stored_weight)` is the traversal cost of each edge, and
    /// must not be negative. An edge whose cost is not finite (`+∞`, NaN) is
    /// skipped (failed links, congestion-priced routing).
    pub fn search_with(
        &mut self,
        graph: &CsrGraph,
        source: usize,
        targets: &[usize],
        max_cost: f64,
        mut cost: impl FnMut(u32, f64) -> f64,
    ) {
        let n = graph.node_count();
        assert!(source < n, "source out of range");
        self.begin(n);
        self.source = source;

        let mut remaining = 0usize;
        for &t in targets {
            assert!(t < n, "target out of range");
            if self.target[t] != self.gen {
                self.target[t] = self.gen;
                remaining += 1;
            }
        }
        let stop_on_targets = !targets.is_empty();

        let gen = self.gen;
        self.dist[source] = 0.0;
        self.prev_node[source] = NO_EDGE;
        self.prev_edge[source] = NO_EDGE;
        self.touched[source] = gen;
        self.heap_push(source as u32);

        while let Some(&root) = self.heap.first() {
            let u = root as usize;
            // Identical stop condition to the reference's `cost > max_cost`
            // break: the indexed heap's minimum IS the smallest tentative
            // distance (no stale entries to pop through).
            if self.dist[u] > max_cost {
                break;
            }
            self.heap_pop();
            self.settled[u] = gen;
            if stop_on_targets && self.target[u] == gen {
                remaining -= 1;
                if remaining == 0 {
                    break;
                }
            }
            let du = self.dist[u];
            for s in graph.slots(u) {
                let v = graph.targets[s] as usize;
                // An edge priced `+∞` or NaN offers `+∞` or NaN: it passes
                // neither strict test below, which is how it is skipped.
                let id = graph.edge_id(s);
                let next = du + cost(id, graph.weights[s]);
                if self.touched[v] != gen {
                    if next < f64::INFINITY {
                        self.dist[v] = next;
                        self.prev_node[v] = root;
                        self.prev_edge[v] = id;
                        self.touched[v] = gen;
                        self.heap_push(v as u32);
                    }
                } else if next < self.dist[v] {
                    // Strict `<` and settled nodes never improving keeps
                    // first-writer-wins predecessor ties identical to the
                    // reference. A settled node cannot pass the strict test
                    // (costs are non-negative).
                    debug_assert!(self.settled[v] != gen);
                    self.dist[v] = next;
                    self.prev_node[v] = root;
                    self.prev_edge[v] = id;
                    self.sift_up(self.pos[v] as usize);
                }
            }
        }
    }

    /// Source of the most recent run.
    #[inline]
    pub fn source(&self) -> usize {
        self.source
    }

    /// Distance of `v` in the most recent run: final if settled, tentative
    /// if touched but unsettled, `INFINITY` if never reached.
    #[inline]
    pub fn dist(&self, v: usize) -> f64 {
        if self.touched[v] == self.gen {
            self.dist[v]
        } else {
            f64::INFINITY
        }
    }

    /// Whether `v` was settled (distance final) in the most recent run.
    #[inline]
    pub fn settled(&self, v: usize) -> bool {
        self.settled[v] == self.gen
    }

    /// Predecessor `(node, edge id)` of `v` on its current best path, or
    /// `None` for the source and unreached nodes.
    #[inline]
    pub fn prev(&self, v: usize) -> Option<(usize, u32)> {
        if self.touched[v] != self.gen || self.prev_node[v] == NO_EDGE {
            return None;
        }
        Some((self.prev_node[v] as usize, self.prev_edge[v]))
    }

    /// Walk the current best path from `target` back to the source, `visit`ing
    /// every node on it but the source; `false` when `target` was not reached.
    fn walk_back(&self, target: usize, mut visit: impl FnMut(usize)) -> bool {
        if self.touched[target] != self.gen {
            return false;
        }
        let mut cur = target;
        while cur != self.source {
            if self.prev_node[cur] == NO_EDGE {
                return false;
            }
            visit(cur);
            cur = self.prev_node[cur] as usize;
        }
        true
    }

    /// Write the node path source → `target` (inclusive) into `out`
    /// (cleared first); returns `false` (clearing `out`) when `target` was
    /// not reached.
    pub fn node_path_into(&self, target: usize, out: &mut Vec<usize>) -> bool {
        out.clear();
        let reached = self.walk_back(target, |v| out.push(v));
        if reached {
            out.push(self.source);
            out.reverse();
        } else {
            out.clear();
        }
        reached
    }

    /// [`node_path_into`](Self::node_path_into) as edge ids: the route
    /// source → `target`, empty when `target` is the source — the form the
    /// simulator's source routes and the stored conduit paths use.
    pub fn edge_path_into(&self, target: usize, out: &mut Vec<u32>) -> bool {
        out.clear();
        let reached = self.walk_back(target, |v| out.push(self.prev_edge[v]));
        if reached {
            out.reverse();
        } else {
            out.clear();
        }
        reached
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra;
    use crate::graph::Graph;

    /// SplitMix64 for deterministic random graphs without a PRNG crate.
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(seed: u64, stream: u64) -> f64 {
        (mix(seed ^ mix(stream)) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A connected-ish random graph: a ring plus random chords, with many
    /// duplicated weights so tie-breaking actually gets exercised.
    fn random_graph(n: usize, seed: u64) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            let w = (1.0 + (unit(seed, i as u64) * 4.0).floor()) * 0.5;
            g.add_undirected_edge(i, (i + 1) % n, w);
        }
        for k in 0..(2 * n) as u64 {
            let a = (unit(seed, 1000 + 3 * k) * n as f64) as usize % n;
            let b = (unit(seed, 1001 + 3 * k) * n as f64) as usize % n;
            if a != b {
                let w = (1.0 + (unit(seed, 1002 + 3 * k) * 4.0).floor()) * 0.5;
                g.add_undirected_edge(a, b, w);
            }
        }
        g
    }

    #[test]
    fn full_run_matches_lazy_dijkstra_bitwise() {
        for seed in 0..20u64 {
            let n = 30 + (seed as usize % 21);
            let g = random_graph(n, seed);
            let csr = CsrGraph::from_graph(&g);
            let mut core = SearchCore::new();
            for src in [0, n / 2, n - 1] {
                let reference = dijkstra::shortest_path_tree(&g, src, None);
                core.search(&csr, src, &[], f64::INFINITY);
                for v in 0..n {
                    assert!(
                        core.dist(v) == reference.dist[v],
                        "dist mismatch seed {seed} src {src} v {v}"
                    );
                    let ref_prev = reference.prev[v];
                    assert_eq!(
                        core.prev(v).map(|(p, _)| p),
                        ref_prev,
                        "prev mismatch seed {seed} src {src} v {v}"
                    );
                }
                let mut buf = Vec::new();
                for v in 0..n {
                    let got = core.node_path_into(v, &mut buf).then(|| buf.clone());
                    let want = reference.path_to(v).map(|p| p.nodes);
                    assert_eq!(got, want, "path mismatch seed {seed} src {src} v {v}");
                }
            }
        }
    }

    #[test]
    fn capped_run_matches_lazy_bounded_tree_bitwise() {
        for seed in 0..20u64 {
            let n = 40;
            let g = random_graph(n, seed);
            let csr = CsrGraph::from_graph(&g);
            let mut core = SearchCore::new();
            for cap in [0.0, 1.5, 3.0, 7.5] {
                let reference = dijkstra::shortest_path_tree_within(&g, 0, cap);
                core.search(&csr, 0, &[], cap);
                for v in 0..n {
                    // Bounded trees report tentative distances for touched
                    // but unsettled frontier nodes; those must match too
                    // (the prune stats classify on them).
                    assert!(
                        core.dist(v) == reference.dist[v]
                            || (core.dist(v).is_infinite() && reference.dist[v].is_infinite()),
                        "capped dist mismatch seed {seed} cap {cap} v {v}: {} vs {}",
                        core.dist(v),
                        reference.dist[v]
                    );
                }
            }
        }
    }

    #[test]
    fn multi_target_stop_settles_all_targets_exactly() {
        for seed in 0..20u64 {
            let n = 50;
            let g = random_graph(n, seed);
            let csr = CsrGraph::from_graph(&g);
            let reference = dijkstra::shortest_path_tree(&g, 3, None);
            let targets = [7usize, 19, 42, 42, 3]; // duplicates + source on purpose
            let mut core = SearchCore::new();
            core.search(&csr, 3, &targets, f64::INFINITY);
            let mut buf = Vec::new();
            for &t in &targets {
                assert!(core.settled(t), "target {t} not settled (seed {seed})");
                assert!(core.dist(t) == reference.dist[t]);
                let got = core.node_path_into(t, &mut buf).then(|| buf.clone());
                let want = reference.path_to(t).map(|p| p.nodes);
                assert_eq!(got, want, "target path mismatch seed {seed} t {t}");
            }
        }
    }

    #[test]
    fn early_stop_actually_stops_early() {
        // Long path graph: targeting a nearby node must not settle the far
        // end.
        let mut g = Graph::new(100);
        for i in 0..99 {
            g.add_undirected_edge(i, i + 1, 1.0);
        }
        let csr = CsrGraph::from_graph(&g);
        let mut core = SearchCore::new();
        core.search(&csr, 0, &[5], f64::INFINITY);
        assert!(core.settled(5));
        assert!(!core.settled(99), "run should have terminated early");
        assert!(core.dist(99).is_infinite());
    }

    #[test]
    fn core_reuse_across_runs_and_graph_sizes() {
        let small = random_graph(10, 1);
        let big = random_graph(60, 2);
        let csr_small = CsrGraph::from_graph(&small);
        let csr_big = CsrGraph::from_graph(&big);
        let mut core = SearchCore::new();
        for round in 0..50 {
            let (g, csr, n) = if round % 2 == 0 {
                (&small, &csr_small, 10)
            } else {
                (&big, &csr_big, 60)
            };
            let src = round % n;
            let reference = dijkstra::shortest_path_tree(g, src, None);
            core.search(csr, src, &[], f64::INFINITY);
            for v in 0..n {
                assert!(core.dist(v) == reference.dist[v], "round {round} v {v}");
            }
        }
    }

    #[test]
    fn unreachable_targets_exhaust_gracefully() {
        let mut g = Graph::new(6);
        g.add_undirected_edge(0, 1, 1.0);
        g.add_undirected_edge(1, 2, 1.0);
        g.add_undirected_edge(3, 4, 1.0); // disconnected component
        let csr = CsrGraph::from_graph(&g);
        let mut core = SearchCore::new();
        core.search(&csr, 0, &[2, 4], f64::INFINITY);
        assert!(core.settled(2));
        assert!(!core.settled(4));
        assert!(core.dist(4).is_infinite());
        let mut buf = vec![99];
        assert!(!core.node_path_into(4, &mut buf));
        assert!(buf.is_empty(), "failed extraction clears the buffer");
    }
}
