//! Graph data structures and path algorithms for the cISP designer.
//!
//! The network-design pipeline builds several large sparse graphs: the
//! tower-to-tower hop graph (hundreds of thousands of edges), the city-level
//! candidate-link graph used by the topology optimiser, and the designed
//! topology used for routing and failure analysis. This crate provides the
//! shared machinery. Shortest paths come in two roles: [`search`] is the
//! core every search outside the tests runs on, [`dijkstra`] the
//! adjacency-list reference it is pinned against.
//!
//! * [`Graph`] — a compact adjacency-list weighted graph, the reference
//!   storage: only tests and the reference search build one,
//! * [`csr`] — [`CsrGraph`], the flat compressed-sparse-row storage every
//!   search runs over (edge ids preserved from insertion order, so the
//!   packet simulator's link ids *are* its edge ids; the candidate pool's
//!   tower + site graph is built straight from its hop list, never as an
//!   adjacency list),
//! * [`search`] — [`SearchCore`], a reusable bounded multi-target Dijkstra
//!   over [`CsrGraph`] (generation-stamped scratch, indexed d-ary heap with
//!   decrease-key, per-edge cost override that also disables edges) — the
//!   candidate pool's per-site searches, the disjoint paths, the conduit
//!   route matrices and the simulator's routing and re-routing all run on
//!   it,
//! * [`dijkstra`] — the reference: single-source shortest paths over
//!   [`Graph`] with a lazy-deletion binary heap, whose settle order
//!   `SearchCore` reproduces bit for bit; only the parity tests call it,
//! * [`disjoint`] — iterative node-disjoint shortest paths on the CSR
//!   graph (the procedure behind Fig. 4(b): find a path, take its interior
//!   towers out, repeat), pinned to the clone-and-remove iteration over
//!   [`Graph`],
//! * [`paths`] — [`PathStore`], arena-backed storage for many short paths
//!   (offset + link-id arrays; a whole routing table in two allocations),
//! * [`partition`] — balanced link partitions over path sets and their
//!   conservative propagation-delay lookahead
//!   ([`partition_path_links`] / [`partition_lookahead`]), the planning side
//!   of the packet engine's time-windowed execution,
//! * [`matrix`] — the flat row-major [`DistMatrix`] the design engine's
//!   dense all-pairs sweeps run on, with the shared unordered-pair iterator,
//!   the exact one-edge improvement kernels ([`improve_with_link`] and the
//!   delta-tracking [`improve_with_link_tracked`] that reports an
//!   [`ImprovedPairs`] set for incremental rescoring) and the
//!   divide-and-conquer [`leave_out_closures`] — one matrix per failure set
//!   of a link list — that the swap polish and the storm year walk,
//! * [`bitset`] — O(1) membership over small index universes (disabled-link
//!   sets in the failure analysis, improved-pair sets in the incremental
//!   scorer).
//!
//! All algorithms are deterministic: ties are broken by node index.
//!
//! # Example
//!
//! ```
//! use cisp_graph::{Graph, dijkstra};
//!
//! let mut g = Graph::new(4);
//! g.add_undirected_edge(0, 1, 1.0);
//! g.add_undirected_edge(1, 2, 1.0);
//! g.add_undirected_edge(0, 2, 5.0);
//! g.add_undirected_edge(2, 3, 1.0);
//!
//! let sp = dijkstra::shortest_path(&g, 0, 3).unwrap();
//! assert_eq!(sp.nodes, vec![0, 1, 2, 3]);
//! assert_eq!(sp.cost, 3.0);
//! ```

pub mod bitset;
pub mod csr;
pub mod dijkstra;
pub mod disjoint;
pub mod graph;
pub mod matrix;
pub mod partition;
pub mod paths;
pub mod search;

pub use bitset::BitSet;
pub use csr::CsrGraph;
pub use dijkstra::{shortest_path, Path};
pub use graph::Graph;
pub use matrix::{
    improve_with_link, improve_with_link_tracked, leave_out_closures, pair_count, pair_index,
    pair_indices, DistMatrix, ImprovedPairs,
};
pub use partition::{partition_lookahead, partition_path_links};
pub use paths::PathStore;
pub use search::SearchCore;
