//! Traffic-matrix models for cISP design and simulation.
//!
//! The paper designs for a city-to-city traffic matrix proportional to the
//! product of city populations (§4), and additionally studies inter-data-center
//! and data-center-to-edge models (§6.3), mixes of the three (§6.4), and
//! deviations from the designed-for matrix obtained by perturbing city
//! populations (§5). This crate provides all of those:
//!
//! * [`matrix::TrafficMatrix`] — a symmetric non-negative weight matrix with
//!   helpers for normalisation, scaling to an aggregate throughput, and
//!   mixing.
//! * [`models`] — the population-product, inter-DC (uniform between DC
//!   pairs), and city-to-nearest-DC models over a shared site list, plus
//!   the latency-class split ([`models::ClassifiedTraffic`]): user-facing
//!   components as foreground, DC–DC bulk replication as background, for
//!   the hybrid fluid/packet engine.
//! * [`perturb`] — the population-perturbation model: each city's population
//!   is re-weighted by a factor drawn uniformly from `[1−γ, 1+γ]`.

pub mod matrix;
pub mod models;
pub mod perturb;

pub use matrix::TrafficMatrix;
pub use models::{ClassifiedTraffic, SiteSet, TrafficMix};
pub use perturb::perturbed_populations;
