//! # cISP — a speed-of-light Internet service provider, reproduced in Rust
//!
//! This facade crate re-exports the whole workspace behind one dependency so
//! that examples, integration tests and downstream users can write
//! `use cisp::core::...` instead of depending on ten crates individually.
//!
//! The workspace reproduces *"cISP: A Speed-of-Light Internet Service
//! Provider"* (NSDI 2022): a design methodology for hybrid microwave + fiber
//! wide-area networks that deliver latencies within a few percent of the
//! speed-of-light lower bound, plus every substrate its evaluation relies on
//! (terrain and tower models, a fiber conduit map, an ILP/MILP solver, a
//! packet-level simulator, a weather model, and application-level latency
//! models). See `README.md` for a tour: *Workspace layout* is the system
//! inventory, *The evaluation pipeline* the chain the experiments run over.
//!
//! ## Crate map
//!
//! | Module | Backing crate | What it provides |
//! |---|---|---|
//! | [`geo`] | `cisp-geo` | geodesics, Fresnel zones, latency/stretch math |
//! | [`terrain`] | `cisp-terrain` | synthetic elevation + clutter model |
//! | [`data`] | `cisp-data` | cities, data centers, towers, fiber conduits |
//! | [`graph`] | `cisp-graph` | the shortest-path core, disjoint paths, flat matrices |
//! | [`lp`] | `cisp-lp` | simplex LP + branch-and-bound MILP solver |
//! | [`core`] | `cisp-core` | hop feasibility, topology design, augmentation, cost |
//! | [`traffic`] | `cisp-traffic` | traffic matrices, mixes, perturbations |
//! | [`weather`] | `cisp-weather` | rain attenuation, storm year, failure analysis |
//! | [`netsim`] | `cisp-netsim` | packet-level discrete-event simulator |
//! | [`apps`] | `cisp-apps` | web PLT, gaming frame time, cost-benefit |
//!
//! ## Quickstart
//!
//! ```
//! use cisp::core::scenario::{Scenario, ScenarioConfig};
//! use cisp::core::cost::CostModel;
//!
//! // Build a miniature deployment scenario (south-central US, ~12 cities)
//! // and design a network with a 300-tower budget.
//! let scenario = Scenario::build(&ScenarioConfig::tiny_test());
//! let outcome = scenario.design(300.0);
//! println!("mean stretch: {:.3}", outcome.mean_stretch);
//!
//! // Provision it for 20 Gbps and price it.
//! let provisioned = scenario.provision(&outcome, 20.0, &CostModel::default());
//! assert!(provisioned.cost_per_gb > 0.0);
//! ```

pub use cisp_apps as apps;
pub use cisp_core as core;
pub use cisp_data as data;
pub use cisp_geo as geo;
pub use cisp_graph as graph;
pub use cisp_lp as lp;
pub use cisp_netsim as netsim;
pub use cisp_terrain as terrain;
pub use cisp_traffic as traffic;
pub use cisp_weather as weather;
