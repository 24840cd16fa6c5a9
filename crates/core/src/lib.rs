//! The cISP network designer — the paper's primary contribution.
//!
//! Given tower infrastructure, fiber connectivity, a set of sites and a
//! traffic model, design a hybrid microwave + fiber wide-area network whose
//! mean latency is as close to the speed-of-light lower bound ("c-latency")
//! as a tower budget allows. The pipeline follows §3 of the paper:
//!
//! 1. **Feasible hops** ([`hops`]): decide which tower pairs can host a
//!    microwave hop, using line-of-sight over terrain + clutter, Fresnel-zone
//!    clearance, Earth curvature with atmospheric refraction, and a maximum
//!    range.
//! 2. **Site-to-site links** ([`links`]): for every pair of sites, find the
//!    shortest tower path through the feasible-hop graph; its length is the
//!    link's latency and its tower count is the link's cost.
//! 3. **Topology design** ([`design`], [`exact`]): choose the subset of links
//!    to build under a tower budget, minimising traffic-weighted mean
//!    stretch. The exact subset search ([`exact`]) is the optimum the
//!    heuristic is measured against, checked in tests against brute force
//!    over every subset; the scalable cISP heuristic ([`design`]) uses the
//!    paper's greedy candidate pruning plus a swap-based refinement,
//!    running on the incremental delta-scoring engine and its scoring
//!    shards (the private `engine` module). Fiber must reach every
//!    traffic-carrying pair, as the paper's `o_ij` does.
//! 4. **Capacity augmentation** ([`augment`]): parallel tower series (the k²
//!    trick of §3.3) sized from per-link traffic, with new towers charged to
//!    the cost model ([`cost`]).
//!
//! [`topology`] holds the resulting hybrid network and its latency/stretch
//! evaluation, [`scenario`] wires the whole pipeline together for the
//! US and Europe deployments studied in the paper, [`traffic`] builds the
//! §6.3 traffic models and §6.4 mixes over a scenario's cities, and
//! [`evaluate`] lowers a designed topology plus a traffic matrix into the
//! `cisp_netsim` packet simulator — the design → traffic → simulation →
//! applications chain the paper's §5–§7 results run over.
//!
//! # Quickstart
//!
//! ```
//! use cisp_core::scenario::{Scenario, ScenarioConfig};
//!
//! // A deliberately tiny scenario so the doctest runs in milliseconds:
//! // 12 sites, a few hundred towers, a 300-tower budget.
//! let config = ScenarioConfig::tiny_test();
//! let scenario = Scenario::build(&config);
//! let outcome = scenario.design(300.0);
//! assert!(outcome.topology.mean_stretch() >= 1.0);
//! assert!(outcome.topology.mean_stretch() < 2.0);
//! ```

pub mod augment;
pub mod cost;
pub mod design;
pub mod economics;
mod engine;
pub mod evaluate;
pub mod exact;
pub mod hops;
pub mod links;
pub mod scenario;
pub mod topology;
pub mod traffic;

pub use cost::CostModel;
pub use design::{DesignInput, DesignOutcome, Designer};
pub use economics::{rank_upgrades, UpgradeConfig, UpgradeRanking};
pub use hops::{HopConfig, HopFeasibility};
pub use links::{CandidateLink, LinkBuilder};
pub use topology::HybridTopology;
