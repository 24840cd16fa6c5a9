//! Iterative node-disjoint shortest paths.
//!
//! §3.3 / Fig. 4(b) of the paper: for the long Illinois–California link, the
//! authors repeatedly find the shortest tower path, remove all towers used by
//! it, and find the next shortest path using only the remaining towers. This
//! measures how much parallel capacity the existing tower stock can support
//! and how quickly stretch grows as towers are consumed.
//!
//! The procedure here is exactly that greedy iteration: it does **not**
//! compute a max-flow style optimal disjoint set (neither does the paper),
//! because the question it answers is "what does the *next* parallel route
//! cost once the best towers are taken".
//!
//! It runs on the [`CsrGraph`] the candidate pool searches, through
//! [`SearchCore::search_with`]: instead of a copy of the graph without the
//! used towers, every edge *into* a used tower is priced `+∞`, which the
//! search skips. A used tower is then never reached, so its own out-edges
//! never count either, and each search relaxes the edges the copy would hold
//! in the order it would hold them: paths and cost bits equal the
//! clone-and-remove iteration over the adjacency list, which
//! `tests/design_pool_pruning.rs` keeps as the reference.

use crate::csr::CsrGraph;
use crate::dijkstra::Path;
use crate::graph::NodeId;
use crate::search::SearchCore;

/// Result of the disjoint-path iteration.
#[derive(Debug, Clone)]
pub struct DisjointPaths {
    /// The paths found, in discovery order (costs non-decreasing in typical
    /// graphs, though not guaranteed for adversarial ones).
    pub paths: Vec<Path>,
}

impl DisjointPaths {
    /// Costs of the found paths, in order.
    pub fn costs(&self) -> Vec<f64> {
        self.paths.iter().map(|p| p.cost).collect()
    }

    /// Number of paths found.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Whether no path was found at all.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }
}

/// Find up to `max_paths` interior-node-disjoint paths from `source` to
/// `target` by repeatedly taking the interior nodes of each shortest path
/// found out of the graph. The endpoints themselves are never taken out (in
/// the paper's setting they are the cities, which host many towers).
pub fn iterative_disjoint_paths(
    graph: &CsrGraph,
    source: NodeId,
    target: NodeId,
    max_paths: usize,
) -> DisjointPaths {
    assert!(target < graph.node_count(), "target out of range");
    // The head of every edge, by edge id: what the cost closure is handed.
    let mut head = vec![0u32; graph.edge_count()];
    for s in 0..graph.edge_count() {
        head[graph.edge_id(s) as usize] = graph.targets[s];
    }
    let mut used = vec![false; graph.node_count()];
    let mut core = SearchCore::new();
    let mut paths = Vec::new();

    for _ in 0..max_paths {
        core.search_with(graph, source, &[target], f64::INFINITY, |id, w| {
            if used[head[id as usize] as usize] {
                f64::INFINITY
            } else {
                w
            }
        });
        let mut nodes = Vec::new();
        if !core.node_path_into(target, &mut nodes) {
            break;
        }
        let p = Path {
            nodes,
            cost: core.dist(target),
        };
        for &n in p.interior_nodes() {
            used[n] = true;
        }
        let direct = p.hop_count() == 1;
        paths.push(p);
        if direct {
            // Direct source→target edge: taking interior nodes out changes
            // nothing, so every further iteration would return the same
            // single-hop path. Stop here.
            break;
        }
    }

    DisjointPaths { paths }
}

/// Check that a set of paths is pairwise interior-node-disjoint (test and
/// validation helper).
pub fn are_interior_disjoint(paths: &[Path]) -> bool {
    let mut seen = std::collections::HashSet::new();
    for p in paths {
        for &n in p.interior_nodes() {
            if !seen.insert(n) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// The fixtures below are written as adjacency lists; each runs on its
    /// CSR.
    fn iterative_disjoint_paths(
        graph: &Graph,
        source: NodeId,
        target: NodeId,
        max_paths: usize,
    ) -> DisjointPaths {
        super::iterative_disjoint_paths(&CsrGraph::from_graph(graph), source, target, max_paths)
    }

    /// A "ladder" graph with several parallel routes of increasing length
    /// between node 0 and node 1. Interior nodes 2.. form the rungs.
    fn parallel_routes_graph() -> Graph {
        let mut g = Graph::new(2 + 3 * 3);
        // Route A: 0-2-3-4-1, each edge 1.0 (total 4)
        // Route B: 0-5-6-7-1, each edge 1.5 (total 6)
        // Route C: 0-8-9-10-1, each edge 2.0 (total 8)
        let routes = [(2, 1.0), (5, 1.5), (8, 2.0)];
        for &(start, w) in &routes {
            g.add_undirected_edge(0, start, w);
            g.add_undirected_edge(start, start + 1, w);
            g.add_undirected_edge(start + 1, start + 2, w);
            g.add_undirected_edge(start + 2, 1, w);
        }
        g
    }

    #[test]
    fn finds_parallel_routes_in_cost_order() {
        let g = parallel_routes_graph();
        let result = iterative_disjoint_paths(&g, 0, 1, 10);
        assert_eq!(result.len(), 3);
        let costs = result.costs();
        assert_eq!(costs, vec![4.0, 6.0, 8.0]);
        assert!(are_interior_disjoint(&result.paths));
    }

    #[test]
    fn respects_max_paths() {
        let g = parallel_routes_graph();
        let result = iterative_disjoint_paths(&g, 0, 1, 2);
        assert_eq!(result.len(), 2);
    }

    #[test]
    fn stops_when_exhausted() {
        let mut g = Graph::new(4);
        g.add_undirected_edge(0, 1, 1.0);
        g.add_undirected_edge(1, 2, 1.0);
        g.add_undirected_edge(2, 3, 1.0);
        // Only one route 0→3; after removing nodes 1, 2 nothing is left.
        let result = iterative_disjoint_paths(&g, 0, 3, 10);
        assert_eq!(result.len(), 1);
    }

    #[test]
    fn direct_edge_stops_iteration() {
        let mut g = Graph::new(4);
        g.add_undirected_edge(0, 1, 1.0); // direct edge
        g.add_undirected_edge(0, 2, 1.0);
        g.add_undirected_edge(2, 1, 1.0);
        let result = iterative_disjoint_paths(&g, 0, 1, 10);
        // The direct edge is found first and the iteration stops (further
        // "paths" would reuse the same physical edge).
        assert_eq!(result.len(), 1);
        assert_eq!(result.paths[0].hop_count(), 1);
    }

    #[test]
    fn no_path_gives_empty_result() {
        let g = Graph::new(3);
        let result = iterative_disjoint_paths(&g, 0, 2, 5);
        assert!(result.is_empty());
    }

    #[test]
    fn costs_nondecreasing_on_random_like_grid() {
        // A 6x6 grid between opposite corners: successive disjoint paths can
        // only get longer or equal.
        let n = 6;
        let id = |r: usize, c: usize| r * n + c;
        let mut g = Graph::new(n * n);
        for r in 0..n {
            for c in 0..n {
                if c + 1 < n {
                    g.add_undirected_edge(id(r, c), id(r, c + 1), 1.0);
                }
                if r + 1 < n {
                    g.add_undirected_edge(id(r, c), id(r + 1, c), 1.0);
                }
            }
        }
        let result = iterative_disjoint_paths(&g, id(0, 0), id(n - 1, n - 1), 4);
        assert!(!result.is_empty());
        let costs = result.costs();
        for w in costs.windows(2) {
            assert!(w[0] <= w[1] + 1e-12, "{costs:?}");
        }
        assert!(are_interior_disjoint(&result.paths));
    }

    #[test]
    fn disjointness_checker_detects_overlap() {
        let p1 = Path {
            nodes: vec![0, 1, 2, 3],
            cost: 3.0,
        };
        let p2 = Path {
            nodes: vec![0, 4, 2, 3],
            cost: 3.0,
        };
        assert!(!are_interior_disjoint(&[p1.clone(), p2]));
        assert!(are_interior_disjoint(&[p1]));
    }
}
