//! The reference Dijkstra: adjacency list, lazy-deletion binary heap,
//! deterministic tie-breaking.
//!
//! This is the textbook formulation, kept as the thing
//! [`SearchCore`](crate::SearchCore) — the search production code runs — is
//! pinned against, bit for bit. Only tests call it, because they want an
//! answer that shares no code with the core: the candidate pool's pointwise
//! oracle, the clone-and-remove reference of [`disjoint`](crate::disjoint),
//! and the parity tests.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::graph::{Graph, NodeId};

/// A path through a graph: the node sequence (including both endpoints) and
/// its total cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Nodes from source to target inclusive.
    pub nodes: Vec<NodeId>,
    /// Sum of edge weights along the path.
    pub cost: f64,
}

impl Path {
    /// Number of edges (hops) in the path.
    pub fn hop_count(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// Interior nodes (everything but the two endpoints).
    pub fn interior_nodes(&self) -> &[NodeId] {
        if self.nodes.len() <= 2 {
            &[]
        } else {
            &self.nodes[1..self.nodes.len() - 1]
        }
    }
}

/// Heap entry: min-heap by cost, ties broken by node index for determinism.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    cost: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering for a min-heap; costs are finite by construction.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Distances from a single source to every node (infinity where unreachable),
/// along with the predecessor array for path reconstruction.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    /// Source node the tree was grown from.
    pub source: NodeId,
    /// `dist[v]` is the cost of the shortest path source → v.
    pub dist: Vec<f64>,
    /// `prev[v]` is the predecessor of `v` on its shortest path, if reached.
    pub prev: Vec<Option<NodeId>>,
}

impl ShortestPathTree {
    /// Extract the path from the tree's source to `target`, if reachable.
    pub fn path_to(&self, target: NodeId) -> Option<Path> {
        if !self.dist[target].is_finite() {
            return None;
        }
        let mut nodes = vec![target];
        let mut cur = target;
        while let Some(p) = self.prev[cur] {
            nodes.push(p);
            cur = p;
        }
        if cur != self.source {
            return None;
        }
        nodes.reverse();
        Some(Path {
            nodes,
            cost: self.dist[target],
        })
    }
}

/// Run Dijkstra from `source`, optionally stopping early once `target` is
/// settled.
pub fn shortest_path_tree(
    graph: &Graph,
    source: NodeId,
    target: Option<NodeId>,
) -> ShortestPathTree {
    bounded_tree(graph, source, target, f64::INFINITY)
}

/// Run Dijkstra from `source`, abandoning the search once every remaining
/// frontier entry costs more than `max_cost`.
///
/// Nodes settled before the cut-off carry exactly the distances and
/// predecessors the unbounded run would produce (the relaxation prefix is
/// identical — same heap, same tie-breaking). Nodes *not* settled may be left
/// with a tentative (over-estimated) distance or `INFINITY`; every such
/// distance is `> max_cost`, so callers that filter results against a
/// per-target threshold `<= max_cost` see output identical to the full run.
/// This is the candidate-pool generator's bound: tower paths longer than the
/// fiber oracle can never produce a useful microwave link, so the search
/// stops paying for them.
pub fn shortest_path_tree_within(graph: &Graph, source: NodeId, max_cost: f64) -> ShortestPathTree {
    bounded_tree(graph, source, None, max_cost)
}

fn bounded_tree(
    graph: &Graph,
    source: NodeId,
    target: Option<NodeId>,
    max_cost: f64,
) -> ShortestPathTree {
    let n = graph.node_count();
    assert!(source < n, "source out of range");
    let mut dist = vec![f64::INFINITY; n];
    let mut prev = vec![None; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();

    dist[source] = 0.0;
    heap.push(HeapEntry {
        cost: 0.0,
        node: source,
    });

    while let Some(HeapEntry { cost, node }) = heap.pop() {
        if cost > max_cost {
            break;
        }
        if settled[node] {
            continue;
        }
        settled[node] = true;
        if Some(node) == target {
            break;
        }
        for edge in graph.neighbors(node) {
            let next_cost = cost + edge.weight;
            if next_cost < dist[edge.to] {
                dist[edge.to] = next_cost;
                prev[edge.to] = Some(node);
                heap.push(HeapEntry {
                    cost: next_cost,
                    node: edge.to,
                });
            }
        }
    }

    ShortestPathTree { source, dist, prev }
}

/// Shortest path between two nodes, if one exists.
pub fn shortest_path(graph: &Graph, source: NodeId, target: NodeId) -> Option<Path> {
    assert!(target < graph.node_count(), "target out of range");
    if source == target {
        return Some(Path {
            nodes: vec![source],
            cost: 0.0,
        });
    }
    shortest_path_tree(graph, source, Some(target)).path_to(target)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_graph(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n - 1 {
            g.add_undirected_edge(i, i + 1, 1.0);
        }
        g
    }

    #[test]
    fn path_on_line_graph() {
        let g = line_graph(6);
        let p = shortest_path(&g, 0, 5).unwrap();
        assert_eq!(p.nodes, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(p.cost, 5.0);
        assert_eq!(p.hop_count(), 5);
        assert_eq!(p.interior_nodes(), &[1, 2, 3, 4]);
    }

    #[test]
    fn prefers_cheaper_multi_hop_route() {
        let mut g = Graph::new(4);
        g.add_undirected_edge(0, 3, 10.0);
        g.add_undirected_edge(0, 1, 2.0);
        g.add_undirected_edge(1, 2, 2.0);
        g.add_undirected_edge(2, 3, 2.0);
        let p = shortest_path(&g, 0, 3).unwrap();
        assert_eq!(p.cost, 6.0);
        assert_eq!(p.nodes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut g = Graph::new(4);
        g.add_undirected_edge(0, 1, 1.0);
        g.add_undirected_edge(2, 3, 1.0);
        assert!(shortest_path(&g, 0, 3).is_none());
        let costs = shortest_path_tree(&g, 0, None).dist;
        assert!(costs[3].is_infinite());
        assert_eq!(costs[1], 1.0);
    }

    #[test]
    fn source_equals_target() {
        let g = line_graph(3);
        let p = shortest_path(&g, 1, 1).unwrap();
        assert_eq!(p.nodes, vec![1]);
        assert_eq!(p.cost, 0.0);
        assert_eq!(p.hop_count(), 0);
        assert!(p.interior_nodes().is_empty());
    }

    #[test]
    fn costs_from_source_are_monotone_on_line() {
        let g = line_graph(10);
        let costs = shortest_path_tree(&g, 0, None).dist;
        for (i, &cost) in costs.iter().enumerate() {
            assert_eq!(cost, i as f64);
        }
    }

    #[test]
    fn directed_edges_are_respected() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        assert!(shortest_path(&g, 0, 2).is_some());
        assert!(shortest_path(&g, 2, 0).is_none());
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Two equal-cost paths 0-1-3 and 0-2-3; the algorithm must return the
        // same one every run.
        let mut g = Graph::new(4);
        g.add_undirected_edge(0, 1, 1.0);
        g.add_undirected_edge(0, 2, 1.0);
        g.add_undirected_edge(1, 3, 1.0);
        g.add_undirected_edge(2, 3, 1.0);
        let first = shortest_path(&g, 0, 3).unwrap();
        for _ in 0..10 {
            assert_eq!(shortest_path(&g, 0, 3).unwrap(), first);
        }
    }

    #[test]
    fn tree_path_to_unreached_node_is_none() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        let tree = shortest_path_tree(&g, 0, None);
        assert!(tree.path_to(2).is_none());
        assert!(tree.path_to(1).is_some());
    }

    #[test]
    fn bounded_tree_matches_full_run_below_the_cap() {
        let mut g = Graph::new(50);
        for i in 0..49 {
            g.add_undirected_edge(i, i + 1, 1.0);
        }
        for i in (0..45).step_by(5) {
            g.add_undirected_edge(i, i + 5, 3.0);
        }
        let full = shortest_path_tree(&g, 0, None);
        let cap = 20.0;
        let bounded = shortest_path_tree_within(&g, 0, cap);
        for v in 0..50 {
            if full.dist[v] <= cap {
                assert_eq!(bounded.dist[v], full.dist[v], "node {v}");
                assert_eq!(bounded.path_to(v), full.path_to(v), "node {v}");
            } else {
                // Unsettled nodes may carry tentative distances, but never one
                // at or below the cap — a threshold filter drops all of them.
                assert!(bounded.dist[v] > cap, "node {v}");
            }
        }
    }

    #[test]
    fn bounded_tree_with_infinite_cap_is_the_full_run() {
        let mut g = Graph::new(6);
        for i in 0..5 {
            g.add_undirected_edge(i, i + 1, 2.5);
        }
        let full = shortest_path_tree(&g, 0, None);
        let bounded = shortest_path_tree_within(&g, 0, f64::INFINITY);
        assert_eq!(bounded.dist, full.dist);
        assert_eq!(bounded.prev, full.prev);
    }

    #[test]
    fn early_exit_matches_full_run() {
        let mut g = Graph::new(50);
        // A grid-ish random-free structure: chain plus shortcuts.
        for i in 0..49 {
            g.add_undirected_edge(i, i + 1, 1.0);
        }
        for i in (0..45).step_by(5) {
            g.add_undirected_edge(i, i + 5, 3.0);
        }
        let full = shortest_path_tree(&g, 0, None);
        let early = shortest_path(&g, 0, 30).unwrap();
        assert_eq!(early.cost, full.dist[30]);
    }
}
