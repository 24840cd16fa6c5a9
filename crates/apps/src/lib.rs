//! Application-level models: what a speed-of-light ISP buys end users.
//!
//! §7 and §8 of the paper quantify cISP's benefit for two application
//! classes and then argue that the value per gigabyte far exceeds the
//! network's cost per gigabyte:
//!
//! * [`web`] — a Mahimahi-style page-load replay model over a synthetic page
//!   corpus: page load times and object load times under the baseline
//!   Internet, under cISP (all RTTs scaled to 1/3), and under the
//!   "cISP-selective" variant where only client→server traffic rides the
//!   low-latency network (Fig. 13).
//! * [`gaming`] — frame-time models for fat-client and thin-client
//!   (speculative-execution) online gaming, with and without a low-latency
//!   augmentation of the conventional connectivity (Fig. 12).
//! * [`value`] — the §8 back-of-the-envelope value-per-GB estimates for Web
//!   search, e-commerce and gaming, compared against the network's cost per
//!   GB.
//!
//! Both the web and gaming models consume *measured* RTT distributions —
//! e.g. the queueing-aware per-pair RTTs the packet simulator produces via
//! `cisp_core::evaluate` — through [`web::PageCorpus::generate_with_rtts`]
//! and [`gaming::frame_time_distribution`], in addition to their synthetic
//! single-RTT sweeps.

pub mod gaming;
pub mod value;
pub mod web;

pub use gaming::{frame_time_distribution, frame_time_ms, FrameTimeStats, GameModel};
pub use value::cost_benefit_table;
pub use web::{PageCorpus, ReplayScenario, WebReplayReport};
