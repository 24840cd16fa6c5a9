//! Geodesy and microwave radio-physics primitives for the cISP reproduction.
//!
//! This crate provides the low-level geometric and physical calculations that
//! every other part of the workspace builds on:
//!
//! * [`coords`] — geographic coordinates ([`GeoPoint`]) and conversions.
//! * [`geodesic`] — great-circle ("geodesic") distances, bearings and
//!   interpolation along great-circle paths, plus the bit-identical caches
//!   for repeated work on one path ([`geodesic::PathSampler`]) or from one
//!   point ([`TrigPoint`]).
//! * [`fresnel`] — microwave line-of-sight geometry: first Fresnel-zone radii
//!   and the Earth-curvature "bulge" with an atmospheric refraction factor
//!   *K*, exactly as used in §3.1 of the paper.
//! * [`latency`] — conversions between distance and propagation latency for
//!   free-space (speed of light `c`) and optical fiber (`~2c/3`).
//! * [`units`] — physical constants shared across the workspace.
//!
//! All angles in the public API are degrees, all distances kilometres and all
//! heights metres unless a name says otherwise. The crate is `#![no_std]`-free
//! but allocation-light and fully deterministic.
//!
//! # Example
//!
//! ```
//! use cisp_geo::{GeoPoint, geodesic, fresnel, latency};
//!
//! let chicago = GeoPoint::new(41.88, -87.62);
//! let galien = GeoPoint::new(41.81, -86.47);
//!
//! // The McKay Brothers HFT hop cited in the paper is ~96 km long.
//! let d = geodesic::distance_km(chicago, galien);
//! assert!((d - 96.0).abs() < 3.0);
//!
//! // Mid-hop clearance requirements at 11 GHz with K = 1.3.
//! let fresnel_m = fresnel::fresnel_radius_midpoint_m(d, 11.0);
//! let bulge_m = fresnel::earth_bulge_midpoint_m(d, 1.3);
//! assert!(fresnel_m > 20.0 && bulge_m > 100.0);
//!
//! // c-latency of the hop, one way.
//! let ms = latency::c_latency_ms(d);
//! assert!(ms > 0.300 && ms < 0.340);
//! ```

pub mod coords;
pub mod fresnel;
pub mod geodesic;
pub mod latency;
pub mod units;

pub use coords::GeoPoint;
pub use geodesic::TrigPoint;
pub use latency::{c_latency_ms, stretch};
