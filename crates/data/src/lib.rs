//! Datasets for the cISP reproduction.
//!
//! Four kinds of input data feed the paper's evaluation; this crate provides
//! each of them, either as embedded public data or as a seeded synthetic
//! stand-in (the README's *Fiber layer* and *Design at paper scale* sections
//! say how the stand-ins are built and used):
//!
//! * [`cities`] — the most populous cities of the contiguous United States
//!   (embedded, real coordinates and populations) plus the coalescing step
//!   that merges nearby cities into the paper's 120 "population centers", and
//!   the European cities with population above 300 k used in §6.2.
//! * [`datacenters`] — the six publicly known US Google data-center sites
//!   used for the inter-DC and DC-edge traffic models (§6.3).
//! * [`towers`] — a synthetic microwave-tower registry standing in for the
//!   FCC Antenna Structure Registration database and commercial tower-company
//!   databases, including the paper's culling rules (§4, Step 1).
//! * [`fiber`] — a synthetic long-haul fiber conduit network standing in for
//!   the InterTubes dataset, calibrated so that latency-optimal fiber routes
//!   average ≈1.9× the geodesic c-latency, the figure the paper measures.
//! * [`rng`] — deterministic seed derivation so that every synthetic dataset
//!   is reproducible from a single experiment seed.

// The shim `proptest!` macro expands recursively per token; the fiber
// conduit property test has a sizeable body, so raise the budget for tests.
#![cfg_attr(test, recursion_limit = "1024")]

pub mod cities;
pub mod datacenters;
pub mod eu_cities;
pub mod fiber;
pub mod rng;
pub mod towers;
pub mod us_cities;

pub use cities::{City, Region};
pub use datacenters::google_us_datacenters;
pub use fiber::{FiberLink, FiberNetwork};
pub use towers::{Tower, TowerRegistry, TowerRegistryConfig};
