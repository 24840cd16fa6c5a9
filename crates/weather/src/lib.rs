//! Weather impairment analysis for microwave links (§6.1).
//!
//! Precipitation attenuates microwave signals. The paper treats the effect in
//! a binary way: if rain attenuation along a link exceeds the fade margin the
//! link is considered failed for that interval, and traffic falls back to the
//! shortest surviving route (any mix of microwave and fiber). Using a year of
//! NASA precipitation data sampled in 30-minute intervals, the paper shows
//! that 99th-percentile latencies are nearly identical to fair-weather
//! latencies and even the worst intervals stay well below fiber latency
//! (Fig. 7).
//!
//! This crate provides:
//!
//! * [`attenuation`] — the ITU-R P.838 specific-attenuation model
//!   (`γ = k·Rᵅ` dB/km) with coefficients around the paper's 11 GHz band and
//!   an effective-path-length correction.
//! * [`storms`] — a seeded synthetic precipitation year: seasonally modulated
//!   storm systems with spatially correlated rain fields, standing in for the
//!   TRMM/GPM rasters (README, *The evaluation pipeline*, step 4).
//! * [`failures`] — per-interval link-outage computation for a designed
//!   topology: a storm-independent [`FailureGeometry`] decides most links of
//!   most fields from a conservative rain bound and runs the exact per-hop
//!   arithmetic only on the rest, with identical failure sets.
//! * [`reroute`] — per-pair latency/stretch statistics across a year of
//!   intervals (best / 99th percentile / worst / fiber-only), i.e. the data
//!   behind Fig. 7.
//! * [`simulate`] — the queueing-aware variant: failed links are mapped onto
//!   the lowered packet network (`cisp_core::evaluate`), the routes that
//!   crossed them are re-routed (`LoweredNetwork::rerun`), and the traffic
//!   is replayed through the packet engine, so storm scenarios and conduit
//!   cuts report delivered latency and loss rather than geodesic stretch
//!   alone.

pub mod attenuation;
pub mod failures;
pub mod reroute;
pub mod simulate;
pub mod storms;

pub use failures::{
    failure_sweep, link_failures, FailureConfig, FailureGeometry, FailureSweepStats,
};
pub use reroute::{weather_year_analysis, WeatherYearReport};
pub use simulate::{storm_queueing_analysis, QueueingWeatherReport};
pub use storms::{StormField, StormYear, StormYearConfig};
