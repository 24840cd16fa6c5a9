//! A discrete-event packet-level network simulator (the ns-3 stand-in).
//!
//! §5 and §6.4 of the paper run ns-3 simulations of the designed cISP
//! topology: UDP traffic with 500-byte packets over the site-level network
//! (parallel tower series aggregated into one link per site pair), measuring
//! mean delay, loss rate and link utilisation under several routing schemes;
//! and a separate TCP experiment (§5 "Speed mismatch", Fig. 6) studying queue
//! build-up at a cISP ingress when edge links are much faster than the core.
//!
//! This crate implements the pieces of ns-3 those experiments use:
//!
//! * [`network`] — nodes, links (rate, propagation delay, finite buffer) and
//!   source-routed packet forwarding with FIFO queueing; dynamic link state
//!   lives in struct-of-arrays form ([`network::LinkStates`]) so the
//!   transmit hot path and the sharded engine's per-worker state are flat
//!   arrays.
//! * [`routing`] — route computation over the topology: latency-shortest
//!   paths, minimise-maximum-link-utilisation, and throughput-optimal
//!   (load-balancing) routing — all over a `cisp_graph::CsrGraph` packing of
//!   the link table, with routes stored in one arena-backed
//!   `cisp_graph::PathStore`, and a disabled-link mask for failure
//!   scenarios.
//! * [`flows`] — constant-bit-rate / Poisson UDP flow generators with
//!   configurable packet size.
//! * [`monitor`] — the FlowMonitor equivalent: global *and per-flow* delay
//!   and loss plus per-link utilisation and queueing statistics.
//! * [`queue`] — the event-queue core: the unboxed `(time, flow, hop)`-keyed
//!   event and the self-resizing calendar (bucket) queue the engine
//!   schedules it on, O(1) amortised at the ≈14 k resident events a
//!   paper-scale backbone holds; `std`'s `BinaryHeap` is its test oracle.
//! * [`sim`] — the event-driven engine tying it together: one per-event
//!   kernel over that queue. Before the first event each run picks one of
//!   two executions: serial, every active flow on the engine the
//!   simulation keeps warm across its runs, or conservative time-windowed
//!   execution over all of them on [`sim::SimConfig::workers`] threads (one
//!   partition of their links into per-worker shards of balanced link
//!   counts, windows bounded by the partition's propagation-delay
//!   lookahead, boundary-event exchange at window barriers) — the latter
//!   when the run's expected packets pay for partitioning and for every
//!   window's barriers. No option selects it, and either choice at every
//!   `workers` value produces a bit-identical report.
//! * [`fluid`] — the flow-level fluid model behind hybrid execution:
//!   demands tagged [`routing::TrafficClass::Background`] become per-link
//!   FIFO fluid queues advanced piecewise-linearly between rate-change
//!   events ([`sim::SimConfig::background`] =
//!   [`fluid::BackgroundModel::Fluid`]), while foreground packets ride on
//!   the solved backlog timelines — million-user bulk demands at orders of
//!   magnitude fewer events.
//! * [`jobs`] — the workspace's one job-drain helper ([`jobs::drain_jobs`]:
//!   independent jobs claimed from an atomic counter by scoped workers,
//!   results in job order). The engine's windowed gang is one job per
//!   member; the what-if sweeps in `cisp_weather` and `cisp_core::economics`
//!   drain whole runs through it.
//! * [`tcp`] — the simplified window-based TCP (with and without pacing) used
//!   by the speed-mismatch experiment.
//!
//! The simulator is deterministic given a seed and is validated against
//! closed-form M/D/1 and link-saturation results in its test-suite.

pub mod flows;
pub mod fluid;
pub mod jobs;
pub mod monitor;
pub mod network;
pub mod queue;
pub mod routing;
pub mod sim;
pub mod tcp;

pub use fluid::BackgroundModel;
pub use monitor::SimReport;
pub use network::{LinkSpec, Network};
pub use routing::{RoutingScheme, TrafficClass};
pub use sim::{SimConfig, Simulation};
