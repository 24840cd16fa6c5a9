//! Flat compressed-sparse-row adjacency: a storage format.
//!
//! The adjacency-list [`Graph`] stores one heap allocation per
//! node; every neighbour scan chases a `Vec` pointer and the edges of a node
//! are scattered across the heap. [`CsrGraph`] packs the same directed graph
//! into parallel flat arrays (edge targets, edge weights and, where an
//! edge's id is not its slot index, original edge ids) plus one offset
//! array, so a node's out-edges are a contiguous slice and a full Dijkstra
//! sweep streams memory linearly.
//!
//! Three constructors, one layout:
//!
//! * [`CsrGraph::from_edges`] — directed edges, edge id = insertion
//!   position, which is what lets the packet simulator use CSR slots and
//!   link ids interchangeably: a network whose links are added in id order
//!   produces a CSR whose `edge_ids` are exactly those link ids;
//! * [`CsrGraph::from_undirected`] — undirected edges in two passes over the
//!   caller's iterator (degrees, then placement), never holding an edge
//!   list; the candidate pool's tower + site graph is built this way,
//!   straight from the hop list;
//! * [`CsrGraph::from_graph`] — the adjacency-list reference's conversion,
//!   which the tests pin the other two against.
//!
//! Searching it is [`SearchCore`](crate::SearchCore)'s job; a node's slots
//! keep insertion order, which is what makes that search's tie-breaks equal
//! to the adjacency reference's.

use crate::graph::Graph;

/// Sentinel for "no predecessor" in [`SearchCore`](crate::SearchCore).
pub(crate) const NO_EDGE: u32 = u32::MAX;

/// A directed graph in compressed-sparse-row form.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    /// `offsets[u]..offsets[u + 1]` is node `u`'s out-edge slot range.
    pub(crate) offsets: Vec<u32>,
    /// Target node per edge slot.
    pub(crate) targets: Vec<u32>,
    /// Weight per edge slot.
    pub(crate) weights: Vec<f64>,
    /// Original (insertion-order) edge id per edge slot; empty when every
    /// edge's id is its slot index, which saves four bytes an edge.
    pub(crate) edge_ids: Vec<u32>,
}

impl CsrGraph {
    /// Build from directed `(from, to, weight)` edges; the edge id of each
    /// edge is its position in the iterator. Weights must be finite and
    /// non-negative (shortest-path precondition).
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize, f64)>) -> Self {
        let collected: Vec<(usize, usize, f64)> = edges.into_iter().collect();
        let mut degree = vec![0u32; n];
        for &(from, to, w) in &collected {
            assert!(from < n && to < n, "edge endpoint out of range");
            assert!(
                w.is_finite() && w >= 0.0,
                "edge weight must be finite and non-negative, got {w}"
            );
            degree[from] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let m = collected.len();
        let mut targets = vec![0u32; m];
        let mut weights = vec![0.0; m];
        let mut edge_ids = vec![0u32; m];
        // Stable counting-sort placement: edges of a node keep insertion
        // order, so ties in Dijkstra resolve identically run to run.
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for (id, &(from, to, w)) in collected.iter().enumerate() {
            let slot = cursor[from] as usize;
            cursor[from] += 1;
            targets[slot] = to as u32;
            weights[slot] = w;
            edge_ids[slot] = id as u32;
        }
        Self {
            offsets,
            targets,
            weights,
            edge_ids,
        }
    }

    /// Build from undirected `(a, b, weight)` edges without collecting them:
    /// `edges` is called twice, once to count degrees and once to place the
    /// slots. Each edge becomes `a → b` then `b → a`, and a node's slots keep
    /// insertion order, so the result is slot for slot the CSR that
    /// [`from_graph`](Self::from_graph) makes of an adjacency list built with
    /// [`Graph::add_undirected_edge`] in the same order. Edge ids are slot
    /// indices, as there. Weights must be finite and non-negative.
    pub fn from_undirected<I>(n: usize, edges: impl Fn() -> I) -> Self
    where
        I: IntoIterator<Item = (usize, usize, f64)>,
    {
        let mut offsets = vec![0u32; n + 1];
        for (a, b, w) in edges() {
            assert!(a < n && b < n, "edge endpoint out of range");
            assert!(
                w.is_finite() && w >= 0.0,
                "edge weight must be finite and non-negative, got {w}"
            );
            offsets[a + 1] += 1;
            offsets[b + 1] += 1;
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        let m = offsets[n] as usize;
        let mut targets = vec![0u32; m];
        let mut weights = vec![0.0; m];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut place = |from: usize, to: usize, w: f64| {
            let slot = cursor[from] as usize;
            cursor[from] += 1;
            targets[slot] = to as u32;
            weights[slot] = w;
        };
        for (a, b, w) in edges() {
            place(a, b, w);
            place(b, a, w);
        }
        Self {
            offsets,
            targets,
            weights,
            edge_ids: Vec::new(),
        }
    }

    /// Build from an adjacency-list [`Graph`], preserving its edge iteration
    /// order as edge ids. The adjacency list is the reference the tests pin
    /// [`from_undirected`](Self::from_undirected) and the search core
    /// against; production graphs are built with that or
    /// [`from_edges`](Self::from_edges).
    pub fn from_graph(graph: &Graph) -> Self {
        // An adjacency list is grouped by source already: the slots are
        // `graph.edges()` in order, and each slot's id is its index.
        let mut offsets = Vec::with_capacity(graph.node_count() + 1);
        offsets.push(0);
        let mut targets = Vec::with_capacity(graph.edge_count());
        let mut weights = Vec::with_capacity(graph.edge_count());
        for u in 0..graph.node_count() {
            targets.extend(graph.neighbors(u).iter().map(|e| e.to as u32));
            weights.extend(graph.neighbors(u).iter().map(|e| e.weight));
            offsets.push(targets.len() as u32);
        }
        Self {
            offsets,
            targets,
            weights,
            edge_ids: Vec::new(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Number of out-edges of a node.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        self.slots(u).len()
    }

    /// Out-edge slot range of a node.
    #[inline]
    pub(crate) fn slots(&self, u: usize) -> std::ops::Range<usize> {
        self.offsets[u] as usize..self.offsets[u + 1] as usize
    }

    /// Edge id of slot `s`.
    #[inline]
    pub(crate) fn edge_id(&self, s: usize) -> u32 {
        if self.edge_ids.is_empty() {
            s as u32
        } else {
            self.edge_ids[s]
        }
    }

    /// Out-edges of `u` as `(target, weight, edge_id)` triples.
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = (usize, f64, u32)> + '_ {
        let range = self.slots(u);
        range.map(move |s| (self.targets[s] as usize, self.weights[s], self.edge_id(s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dijkstra, SearchCore};

    fn diamond() -> Graph {
        let mut g = Graph::new(4);
        g.add_undirected_edge(0, 1, 1.0);
        g.add_undirected_edge(0, 2, 2.0);
        g.add_undirected_edge(1, 3, 2.0);
        g.add_undirected_edge(2, 3, 1.0);
        g
    }

    #[test]
    fn csr_mirrors_adjacency_structure() {
        let g = diamond();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.node_count(), 4);
        assert_eq!(csr.edge_count(), 8);
        let out0: Vec<(usize, f64, u32)> = csr.neighbors(0).collect();
        assert_eq!(out0.len(), 2);
        assert_eq!(out0[0].0, 1);
        assert_eq!(out0[1].0, 2);

        // `from_graph` skips the edge list `from_edges` collects: same slots
        // and ids, also with interleaved sources and parallel edges.
        let mut g = Graph::new(5);
        for (from, to) in [(3, 0), (1, 2), (3, 0), (0, 3), (1, 0)] {
            g.add_edge(from, to, (from + 2 * to) as f64);
        }
        let (direct, listed) = (CsrGraph::from_graph(&g), CsrGraph::from_edges(5, g.edges()));
        for u in 0..5 {
            let slots = |csr: &CsrGraph| csr.neighbors(u).collect::<Vec<_>>();
            assert_eq!(slots(&direct), slots(&listed), "node {u}");
        }
    }

    #[test]
    fn from_undirected_matches_the_adjacency_list_slot_for_slot() {
        // Interleaved endpoints, a parallel edge, a self-loop and an
        // isolated node (5).
        let edges = [
            (3, 0, 1.5),
            (1, 2, 0.25),
            (3, 0, 2.0),
            (0, 4, 0.0),
            (2, 2, 3.0),
        ];
        let mut g = Graph::new(6);
        for &(a, b, w) in &edges {
            g.add_undirected_edge(a, b, w);
        }
        let direct = CsrGraph::from_undirected(6, || edges);
        assert_eq!(direct.offsets, CsrGraph::from_graph(&g).offsets);
        for u in 0..6 {
            let slots = |csr: &CsrGraph| {
                csr.neighbors(u)
                    .map(|(v, w, id)| (v, w.to_bits(), id))
                    .collect::<Vec<_>>()
            };
            assert_eq!(slots(&direct), slots(&CsrGraph::from_graph(&g)), "node {u}");
        }
        assert_eq!(
            CsrGraph::from_undirected(3, std::iter::empty).edge_count(),
            0
        );
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn from_undirected_rejects_infinite_weights() {
        CsrGraph::from_undirected(2, || [(0usize, 1usize, f64::INFINITY)]);
    }

    // The search over this format lives in `search.rs`; these pin that the
    // packing itself — slot order, edge ids — hands it the adjacency
    // reference's graph.

    #[test]
    fn csr_dijkstra_matches_adjacency_dijkstra() {
        let g = diamond();
        let csr = CsrGraph::from_graph(&g);
        let mut core = SearchCore::new();
        for src in 0..4 {
            let reference = dijkstra::shortest_path_tree(&g, src, None);
            core.search(&csr, src, &[], f64::INFINITY);
            let dist: Vec<f64> = (0..4).map(|v| core.dist(v)).collect();
            assert_eq!(dist, reference.dist, "source {src}");
        }
    }

    #[test]
    fn edge_path_costs_match_distances() {
        let g = diamond();
        let csr = CsrGraph::from_graph(&g);
        let mut core = SearchCore::new();
        core.search(&csr, 0, &[], f64::INFINITY);
        let edge_weights: std::collections::HashMap<u32, f64> = (0..4)
            .flat_map(|u| csr.neighbors(u).map(|(_, w, id)| (id, w)))
            .collect();
        let mut path = Vec::new();
        for target in 0..4 {
            assert!(core.edge_path_into(target, &mut path));
            let cost: f64 = path.iter().map(|e| edge_weights[e]).sum();
            assert!((cost - core.dist(target)).abs() < 1e-12, "target {target}");
        }
        assert!(core.edge_path_into(0, &mut path) && path.is_empty());
    }

    #[test]
    fn node_paths_are_connected() {
        let g = diamond();
        let csr = CsrGraph::from_graph(&g);
        let mut core = SearchCore::new();
        core.search(&csr, 0, &[3], f64::INFINITY);
        let mut nodes = Vec::new();
        assert!(core.node_path_into(3, &mut nodes));
        assert_eq!(nodes.first(), Some(&0));
        assert_eq!(nodes.last(), Some(&3));
        for w in nodes.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn unreachable_target_is_none() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(2, 3, 1.0);
        let csr = CsrGraph::from_graph(&g);
        let mut core = SearchCore::new();
        core.search(&csr, 0, &[], f64::INFINITY);
        assert!(core.dist(3).is_infinite());
        let mut nodes = vec![9usize];
        assert!(!core.node_path_into(3, &mut nodes));
        let mut edges = vec![9u32];
        assert!(!core.edge_path_into(3, &mut edges));
        assert!(
            nodes.is_empty() && edges.is_empty(),
            "failed extraction clears the buffer"
        );
    }

    #[test]
    fn cost_override_reprices_and_disables_edges() {
        let mut core = SearchCore::new();
        let mut path = |csr: &CsrGraph, target: usize, cost: fn(u32, f64) -> f64| {
            core.search_with(csr, 0, &[], f64::INFINITY, cost);
            let mut nodes = Vec::new();
            assert!(core.node_path_into(target, &mut nodes));
            nodes
        };
        let csr = CsrGraph::from_graph(&diamond());
        // Stored weights: 0-1-3 and 0-2-3 both cost 3; node 1 settles first.
        assert_eq!(path(&csr, 3, |_, w| w), vec![0, 1, 3]);
        // Disable the 0→1 edge (id 0): the best route to 3 flips to 0-2-3.
        let without_0 = |id, w| if id == 0 { f64::INFINITY } else { w };
        assert_eq!(path(&csr, 3, without_0), vec![0, 2, 3]);
        // Re-pricing the 1→3 edge (id 3) flips it the same way.
        let dear_3 = |id, w| if id == 3 { 9.0 } else { w };
        assert_eq!(path(&csr, 3, dear_3), vec![0, 2, 3]);
        // Unit costs make the two routes tie again; the deterministic
        // tie-break picks the same path every run.
        let first = path(&csr, 3, |_, _| 1.0);
        for _ in 0..5 {
            assert_eq!(path(&csr, 3, |_, _| 1.0), first);
        }
        // A detour that is shorter by weight loses to the direct edge by hops.
        let mut g = Graph::new(3);
        g.add_undirected_edge(0, 1, 1.0);
        g.add_undirected_edge(1, 2, 1.0);
        g.add_undirected_edge(0, 2, 5.0);
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(path(&csr, 2, |_, w| w), vec![0, 1, 2]);
        assert_eq!(path(&csr, 2, |_, _| 1.0), vec![0, 2]);
    }

    #[test]
    fn early_exit_matches_full_run() {
        let mut g = Graph::new(30);
        for i in 0..29 {
            g.add_undirected_edge(i, i + 1, 1.0 + (i % 3) as f64);
        }
        for i in (0..25).step_by(5) {
            g.add_undirected_edge(i, i + 5, 2.5);
        }
        let csr = CsrGraph::from_graph(&g);
        let mut core = SearchCore::new();
        core.search(&csr, 0, &[], f64::INFINITY);
        let mut full_path = Vec::new();
        assert!(core.edge_path_into(17, &mut full_path));
        let full_dist = core.dist(17);
        core.search(&csr, 0, &[17], f64::INFINITY);
        let mut early_path = Vec::new();
        assert!(core.edge_path_into(17, &mut early_path));
        assert_eq!(core.dist(17), full_dist);
        assert_eq!(early_path, full_path);
        assert!(!core.settled(29), "the run stopped at its target");
    }

    #[test]
    #[should_panic]
    fn rejects_negative_weights() {
        CsrGraph::from_edges(2, [(0usize, 1usize, -1.0)]);
    }

    // NaN would make the search's `(dist, node)` order meaningless; CSR
    // construction is the last gate before `SearchCore` trusts every weight.
    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_weights() {
        CsrGraph::from_edges(2, [(0usize, 1usize, f64::NAN)]);
    }
}
