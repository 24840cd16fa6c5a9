//! Synthetic, deterministic terrain and ground-clutter model.
//!
//! The paper assesses microwave-hop feasibility against NASA SRTM/NED
//! elevation rasters (§3.1, §4). Those rasters are tens of gigabytes and are
//! not redistributable inside this repository, so this crate provides a
//! *procedural stand-in*: a seeded, continuous elevation function over the
//! continental United States and Europe with
//!
//! * a smooth low-relief base (plains, rolling hills) generated by fractal
//!   value noise,
//! * explicit mountain ranges (Rockies, Sierra Nevada, Cascades, Appalachians,
//!   Alps, Pyrenees, Carpathians, …) modelled as ridge lines with Gaussian
//!   cross-sections and noisy crests, and
//! * a ground-clutter layer (tree canopy and buildings) of a few tens of
//!   metres, as the SRTM surface model effectively includes.
//!
//! The substitution preserves the behaviour the paper's pipeline depends on:
//! line-of-sight hops across plains are almost always feasible, hops across
//! mountain corridors frequently are not, and therefore tower routes detour
//! and link costs rise exactly where they did in the paper (e.g. the long
//! Illinois–California link through the Rockies). See the README's
//! *Design at paper scale* for how the hop sweep uses the model.
//!
//! # Example
//!
//! ```
//! use cisp_geo::GeoPoint;
//! use cisp_terrain::{clutter::ClutterModel, profile::obstruction_profile, TerrainModel};
//!
//! let terrain = TerrainModel::united_states(42);
//! // Denver sits much higher than New Orleans.
//! let denver = terrain.elevation_m(GeoPoint::new(39.74, -104.99));
//! let nola = terrain.elevation_m(GeoPoint::new(29.95, -90.07));
//! assert!(denver > nola + 500.0);
//!
//! // Sample a 100 km profile for a line-of-sight check.
//! let a = GeoPoint::new(41.0, -100.0);
//! let b = GeoPoint::new(41.0, -98.8);
//! let profile = obstruction_profile(&terrain, &ClutterModel::none(), a, b, 64);
//! assert_eq!(profile.len(), 64);
//! ```

pub mod clutter;
pub mod elevation;
pub mod envelope;
pub mod noise;
pub mod profile;

pub use elevation::{MountainRange, TerrainModel};
pub use envelope::ObstructionEnvelope;
