//! A compact weighted adjacency-list graph.
//!
//! Nodes are dense `usize` indices assigned by the caller (the datasets keep
//! their own id → index maps). Edges carry an `f64` weight — a distance in
//! kilometres for the designer, a latency in milliseconds for routing — and
//! may be added directed or undirected (an undirected edge is simply a pair
//! of directed edges).

use serde::{Deserialize, Serialize};

/// Node identifier: a dense index into the graph's node range.
pub type NodeId = usize;

/// A directed edge out of a node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Target node.
    pub to: NodeId,
    /// Edge weight (must be non-negative for the shortest-path algorithms).
    pub weight: f64,
}

/// Weighted directed graph stored as per-node adjacency lists.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Graph {
    adjacency: Vec<Vec<Edge>>,
    edge_count: usize,
}

impl Graph {
    /// Create a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Self {
            adjacency: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of *directed* edges (an undirected edge counts twice).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Add a directed edge. Panics on out-of-range nodes or negative/NaN
    /// weights (shortest-path preconditions).
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, weight: f64) {
        assert!(from < self.node_count(), "`from` node out of range");
        assert!(to < self.node_count(), "`to` node out of range");
        assert!(
            weight.is_finite() && weight >= 0.0,
            "edge weight must be finite and non-negative, got {weight}"
        );
        self.adjacency[from].push(Edge { to, weight });
        self.edge_count += 1;
    }

    /// Add an undirected edge (two directed edges of equal weight).
    pub fn add_undirected_edge(&mut self, a: NodeId, b: NodeId, weight: f64) {
        self.add_edge(a, b, weight);
        self.add_edge(b, a, weight);
    }

    /// Outgoing edges of a node.
    pub fn neighbors(&self, node: NodeId) -> &[Edge] {
        &self.adjacency[node]
    }

    /// Whether a directed edge `from → to` exists (linear in the out-degree).
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.adjacency[from].iter().any(|e| e.to == to)
    }

    /// Iterate over all directed edges as `(from, to, weight)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.adjacency
            .iter()
            .enumerate()
            .flat_map(|(from, edges)| edges.iter().map(move |e| (from, e.to, e.weight)))
    }

    /// Build a copy of the graph with a set of nodes removed (their edges are
    /// dropped; node ids are preserved, removed nodes become isolated).
    ///
    /// The reference disjoint-path iteration in the tests removes the
    /// interior towers of each found path with it.
    pub fn without_nodes(&self, removed: &[NodeId]) -> Graph {
        let mut gone = vec![false; self.node_count()];
        for &n in removed {
            if n < gone.len() {
                gone[n] = true;
            }
        }
        let mut out = Graph::new(self.node_count());
        for (from, to, w) in self.edges() {
            if !gone[from] && !gone[to] {
                out.add_edge(from, to, w);
            }
        }
        out
    }

    /// Total weight of all directed edges.
    pub fn total_weight(&self) -> f64 {
        self.edges().map(|(_, _, w)| w).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        let mut g = Graph::new(4);
        g.add_undirected_edge(0, 1, 1.0);
        g.add_undirected_edge(0, 2, 2.0);
        g.add_undirected_edge(1, 3, 2.0);
        g.add_undirected_edge(2, 3, 1.0);
        g
    }

    #[test]
    fn construction_and_counts() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 8);
        assert_eq!(g.neighbors(0).len(), 2);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn edges_iterator_covers_everything() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 8);
        assert!(edges.contains(&(0, 1, 1.0)));
        assert!(edges.contains(&(3, 2, 1.0)));
    }

    #[test]
    fn without_nodes_isolates_them() {
        let g = diamond();
        let g2 = g.without_nodes(&[1]);
        assert_eq!(g2.node_count(), 4);
        assert!(g2.neighbors(1).is_empty());
        assert!(!g2.has_edge(0, 1));
        assert!(g2.has_edge(0, 2));
        // Original untouched.
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn total_weight_sums() {
        let g = diamond();
        assert!((g.total_weight() - 12.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn rejects_negative_weights() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, -1.0);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_nodes() {
        let mut g = Graph::new(2);
        g.add_edge(0, 5, 1.0);
    }

    // A NaN weight would silently poison the heap tie-break
    // (`partial_cmp(..).unwrap_or(Equal)`) and corrupt pop order, so it must
    // be rejected at insertion, not discovered mid-search.
    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_weights() {
        let mut g = Graph::new(2);
        g.add_undirected_edge(0, 1, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_infinite_weights() {
        let mut g = Graph::new(2);
        g.add_undirected_edge(0, 1, f64::INFINITY);
    }
}
