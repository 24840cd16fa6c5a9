//! The event-driven UDP simulation engine.
//!
//! Packets are source-routed: each flow's route (a sequence of link ids) is
//! computed up front by [`crate::routing`] into a flat [`PathStore`]-backed
//! table, and the engine replays every packet's journey hop by hop through
//! the link model of [`crate::network`]. Events are plain `Copy` structs
//! ordered by `(time, flow, hop)` directly in the event queue
//! ([`crate::queue::EventQueue`]) — no per-event allocation, no indirection.
//! One event is one packet arriving at the head of one hop: popping it
//! transmits the packet over that link and schedules its arrival at the
//! next one. That is the only way a packet crosses a hop.
//!
//! # What the queue holds
//!
//! Two rules keep the queue at O(links + flows) events instead of
//! O(packets in flight):
//!
//! * *Lazy emissions.* The queue holds at most one pending emission per
//!   flow that has started; each popped emission schedules its successor
//!   (strictly later, so it is pushed before it could pop). First emissions
//!   are not queued at all: every flow's first emission before the run
//!   ends sits in one sorted first-emission list — a function of the
//!   demands and the configuration, built once per [`Simulation`] and
//!   shared by its clones — and every shard merges that list with its queue
//!   at pop time, skipping the flows that do not enter the network on it
//!   (or have no route in this run). A flow's schedule is created when its
//!   first packet leaves. The event *set* is exactly the eagerly scheduled
//!   one, and the strict `(time, flow, hop)` order makes the pop sequence a
//!   function of the set alone.
//! * *The staging invariant.* Arrivals coming off one link are strictly
//!   ordered in time (FIFO finish times plus a constant propagation), so
//!   the queue holds at most the *earliest* in-transit event per link — the
//!   pipeline's head — and the rest wait in that link's `transit` FIFO.
//!   Every waiting event is `>=` its pipeline head, so the queue minimum is
//!   still the global minimum and the pop sequence is exactly the unstaged
//!   one. When a head pops, the pipeline's next front takes its place.
//!   Packets handed over from another shard are staged the same way, in
//!   the receiver's pipeline of the link they came off.
//!
//! Both bounds are known before the first event, so a shard sizes its queue
//! once, up front, and sets its bucket width from the event rate the run's
//! routes imply (see `Shard::begin`).
//!
//! # Two executions
//!
//! A run has two executions, decided before the first event, and no option
//! selects either:
//!
//! * *Serial* — one shard simulates every active flow to exhaustion. The
//!   [`Simulation`] keeps this engine from one run to the next, so a run
//!   resets and refills the queue, the pipelines, the link states and the
//!   monitor instead of allocating them. That is what makes the what-if
//!   sweeps cheap — each of their workers turns one `Simulation` into
//!   variant after variant ([`Simulation::vary`]). A run on one worker is
//!   always serial, and so is a run on more workers that does not pay for
//!   the gang.
//! * *Time-windowed* — conservative time-windowed execution over all the
//!   active flows, for a long run on [`SimConfig::workers`] threads. Their
//!   links are partitioned into per-worker shards of balanced link counts
//!   (`cisp_graph::partition_path_links`; balancing expected events instead
//!   measured no faster), every worker simulates only the events on its own
//!   links, and the event horizon is advanced in lock-step windows no longer
//!   than the partition's propagation-delay lookahead
//!   (`cisp_graph::partition_lookahead`) — a packet crossing onto another
//!   shard's link is handed over at the window barrier, provably before its
//!   receiver can need it.
//!
//! Flows only interact by queueing at shared links, so the active flows
//! fall into link-disjoint *components*, but the run does not look for
//! them: the partition grows its clusters along routes, a one-link route
//! has nothing to cut, and the lookahead bounds every crossing the
//! partition made, whichever component it lies in. On the paper-scale
//! backbone the active flows form 25 components; one holds 14 018 of the
//! 14 042 flows and 99.97 % of the expected packets, and the other 24 are
//! one-link routes. One partition over every flow has the big component's
//! own lookahead (175.5 µs). Spreading whole components over the workers,
//! a third execution this engine once had, lost to the warm serial engine
//! on short runs (0.9–1.3 ms of a 6 ms storm variant, on two cores) and
//! left long ones to the windowed big component.
//!
//! The run is time-windowed when its expected packets (Σ rate × duration /
//! packet bits over the active flows) pay for forming the gang — the
//! partition, per route hop — and for every window's two barriers, the
//! windows lasting until the longest route has drained: (duration + that
//! route's propagation) / lookahead of them. See
//! `WINDOWED_PACKETS_PER_WINDOW` and `WINDOWED_PACKETS_PER_HOP` for the
//! measured break-even. The per-hop part is checked first, on sums over the
//! routes, so a run that cannot pay for the gang and one window allocates
//! nothing for it and never partitions. A cut with zero lookahead (a
//! zero-delay link on it) admits no window, and runs serial too.
//!
//! Both executions run the same per-event kernel, `Shard`, generic over a
//! `Boundary` policy that answers the three questions on which they
//! differ: does this shard own a link, has the window ended, and where does
//! a packet bound for a foreign link go. `Serial` answers "yes, never,
//! nowhere" as constants, so its instantiation compiles without a boundary
//! branch; `WindowedShard` consults the link-owner table, the window end
//! and its outboxes.
//!
//! Deliveries never touch link state, so the final transmit accounts for
//! each one on the spot and stores nothing per packet. *Per-flow sums by
//! ownership*: a flow delivers over one final link, that link has exactly
//! one owning shard, and its finish times strictly increase — so a flow's
//! delay sums are accumulated by one shard in one order in either
//! execution, and the means are taken over them in flow-index order.
//! *Histograms by addition*: every delay is also binned into its shard's
//! `DeliveryHistograms`, integer counts that the run adds up in whatever
//! order the shards finish. Nothing depends on how the events were split,
//! which makes the produced [`SimReport`] **bit-identical for every
//! `workers` value and both executions** by construction — `workers: 1` is
//! the pinned serial reference, `workers: 0` picks the machine's
//! parallelism. The parity suites force the windowed execution through the
//! hidden [`Simulation::run_windowed`] hook.
//!
//! # Hybrid execution
//!
//! With [`SimConfig::background`] set to [`BackgroundModel::Fluid`], demands
//! tagged [`TrafficClass::Background`] leave the packet engine entirely:
//! they are solved once, up front, by the flow-level fluid model of
//! [`crate::fluid`], and the packet engine simulates only the foreground
//! flows — each packet waiting behind the fluid backlog occupying its link
//! at arrival time. Because the fluid solution is computed immutably before
//! dispatch, the hybrid report is still bit-identical across every
//! `workers` value and both executions.
//!
//! [`PathStore`]: cisp_graph::PathStore
//! [`TrafficClass::Background`]: crate::routing::TrafficClass::Background

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use cisp_graph::{partition_lookahead, partition_path_links};

use crate::flows::{ArrivalProcess, EmissionSchedule, FlowSpec};
use crate::fluid::{self, BackgroundModel, FluidOutcome};
use crate::jobs::{drain_jobs, resolve_workers};
use crate::monitor::{FlowMonitor, SimReport};
use crate::network::{DirtyLinks, LinkSpec, LinkState, LinkStates, Network, Transmit};
use crate::queue::{Event, EventQueue};
use crate::routing::{compute_routes, Demand, Rerouter, RoutingScheme, RoutingTable};

/// Configuration of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Simulated duration in seconds (paper: 1 s).
    pub duration_s: f64,
    /// Packet size in bytes (paper: 500 B).
    pub packet_bytes: f64,
    /// Packet arrival process.
    pub arrivals: ArrivalProcess,
    /// Routing scheme.
    pub routing: RoutingScheme,
    /// RNG seed for arrival processes.
    pub seed: u64,
    /// Worker threads: 0 = the machine's available parallelism, 1 =
    /// serial (one shard, no partition). Results are bit-identical for
    /// every value. Whether a run on several workers spends them is decided
    /// before the first event (see the [module docs](self)). A
    /// sweep of many short runs (the what-if re-runs of
    /// `cisp_core::evaluate::LoweredNetwork::rerun`: storm intervals,
    /// conduit cuts, link upgrades) spends this budget *across* its runs —
    /// that many runs in flight, each serial inside — because a
    /// millisecond-scale run loses more to its own threads than it gains.
    pub workers: usize,
    /// How background-class demands execute: packet-level like everything
    /// else (the default), or as flow-level fluid queues that foreground
    /// packets ride on (the hybrid engine, [`crate::fluid`]). Composes with
    /// both executions; with no background demands the report is
    /// bit-identical either way.
    pub background: BackgroundModel,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            duration_s: 1.0,
            packet_bytes: 500.0,
            arrivals: ArrivalProcess::ConstantBitRate,
            routing: RoutingScheme::ShortestPath,
            seed: 1,
            workers: 0,
            background: BackgroundModel::Packet,
        }
    }
}

impl SimConfig {
    /// How a sweep of `runs` independent runs spends [`Self::workers`]: the
    /// number of runs to keep in flight (the width to hand
    /// [`drain_jobs`]) and the configuration of each run — this one, made
    /// serial when more than one run is in flight. Reports do not depend on
    /// `workers`, so the sweep's results do not depend on the split.
    pub fn across_runs(self, runs: usize) -> (usize, SimConfig) {
        let width = resolve_workers(self.workers).min(runs);
        if width > 1 {
            (width, SimConfig { workers: 1, ..self })
        } else {
            (width, self)
        }
    }
}

/// Expected packets a time-windowed run must carry per window.
///
/// A packet costs its events — ≈ 4.3 on the paper-scale backbone, at
/// 100–260 ns each (`netsim.sim.ns_per_event` on two cores, fast and slow
/// state) — so ≥ 0.43 µs. With the events split over two shards, half of
/// them leave the critical path: a packet the gang runs saves ≈ 0.2 µs
/// (measured on that backbone: 0.1–0.3 µs a packet between 0.1 ms and
/// 2 ms runs, forced windowed against forced whole). A window costs two
/// crossings of the gang's barrier plus the horizon exchange: ≈ 1 µs on two
/// cores (a [`GangBarrier`] crossing is ≈ 0.4 µs when both shards arrive
/// within its spin; measured in a two-thread loop). So a window pays for
/// its barriers from `P × 0.2 µs ≥ 1 µs`: `P ≥ 5`.
const WINDOWED_PACKETS_PER_WINDOW: f64 = 5.0;

/// Expected packets a time-windowed run must carry per route hop of its
/// flows, to pay for forming the gang before its first window.
///
/// Partitioning the run's links and finding the lookahead walk every
/// route hop: 1.64 + 0.40 ms over the paper-scale backbone's 55 482 hops,
/// ≈ 37 ns a hop, and spawning the second shard adds ≈ 0.1 ms — 39 ns a hop
/// there (medians of 11, two cores). At ≈ 0.2 µs saved a packet (see
/// [`WINDOWED_PACKETS_PER_WINDOW`]) that is 0.2 packets a hop: 11 k
/// packets at paper scale, where the measured break-even lies between a
/// 0.5 ms run (8 750 packets; windowed from 2 % faster to 22 % slower over
/// four probes) and a 1 ms run.
const WINDOWED_PACKETS_PER_HOP: f64 = 0.2;

/// How long a shard spins at the gang's barrier before it parks: about what
/// parking and waking a thread cost (≈ 8 µs a crossing of
/// `std::sync::Barrier`, which always parks, on the same two cores).
const SPIN_BEFORE_PARK: Duration = Duration::from_micros(20);

/// The immutable inputs every engine entry point reads: the network and
/// routed demand set, the run configuration, the fluid solution foreground
/// packets ride on (hybrid runs, `None` under pure packet execution) and
/// the run's first-emission list.
#[derive(Clone, Copy)]
struct EngineContext<'a> {
    network: &'a Network,
    routes: &'a RoutingTable,
    demands: &'a [Demand],
    config: &'a SimConfig,
    fluid: Option<&'a FluidOutcome>,
    /// Every simulated flow's first emission before the run ends, in pop
    /// order (see [`first_emissions`]).
    first: &'a [FirstEmission],
}

/// One flow's first emission, as the first-emission list holds it.
#[derive(Debug, Clone, Copy)]
struct FirstEmission {
    time: f64,
    flow: u32,
}

/// Whether the packet engine simulates `demand` under `config`: a positive
/// rate, and — under the hybrid engine — the foreground class (background
/// demands belong to the fluid solver there).
fn simulates(config: &SimConfig, demand: &Demand) -> bool {
    demand.amount_bps > 0.0
        && !(config.background == BackgroundModel::Fluid && demand.is_background())
}

/// The emission schedule of demand `flow`, before its first packet.
fn schedule_of(demand: &Demand, flow: usize, config: &SimConfig) -> EmissionSchedule {
    let spec = FlowSpec {
        src: demand.src,
        dst: demand.dst,
        rate_bps: demand.amount_bps,
        packet_bytes: config.packet_bytes,
    };
    EmissionSchedule::new(&spec, flow, config.arrivals, config.seed)
}

/// The first emission of every demand the engine simulates, when it lies
/// before the run ends, sorted in the queue's `(time, flow)` pop order. It
/// depends on the demands and the configuration only — not on the routes,
/// the link rates or the workers — so one list serves every run of a
/// [`Simulation`] and of its clones. A shard merges it with its event queue
/// at pop time and skips the entries of flows that do not enter the
/// network on it (or have no route in this run).
fn first_emissions(demands: &[Demand], config: &SimConfig) -> Vec<FirstEmission> {
    let mut first: Vec<FirstEmission> = demands
        .iter()
        .enumerate()
        .filter(|(_, d)| simulates(config, d))
        .filter_map(|(f, d)| {
            let time = schedule_of(d, f, config).next_emission(config.duration_s)?;
            Some(FirstEmission {
                time,
                flow: f as u32,
            })
        })
        .collect();
    first.sort_unstable_by(|a, b| a.time.total_cmp(&b.time).then(a.flow.cmp(&b.flow)));
    first
}

/// The flows the packet engine simulates in a run over `routes`: every
/// demand it [`simulates`] that has a route, in demand order.
fn active_flows<'a>(
    config: &'a SimConfig,
    demands: &'a [Demand],
    routes: &'a RoutingTable,
) -> impl Iterator<Item = u32> + Clone + 'a {
    (0..demands.len())
        .filter(|&k| simulates(config, &demands[k]) && !routes.route(k).is_empty())
        .map(|k| k as u32)
}

/// `Shard::flow_pos` of a flow that does not enter the network on this
/// shard in the run.
const NOT_ENTERING: u32 = u32::MAX;
/// `Shard::flow_pos` of a flow that enters on this shard and has not sent
/// its first packet yet: its first emission waits in the first-emission
/// list.
const WAITING: u32 = u32::MAX - 1;

/// Where a shard's share of a run ends — the only thing the two executions
/// disagree on. The kernel ([`Shard`]) is monomorphised over it.
trait Boundary {
    /// Whether this shard simulates the events on `link`.
    fn owns(&self, link: usize) -> bool;
    /// Whether an event at `time` lies beyond what this shard may process
    /// before synchronising with the others.
    fn past_end(&self, time: f64) -> bool;
    /// Take a packet whose next hop `link` another shard owns.
    fn hand_over(&mut self, link: usize, arrival: Event);
}

/// The serial policy: one shard owns every link and runs to exhaustion, so
/// nothing is ever handed over.
struct Serial;

impl Boundary for Serial {
    #[inline(always)]
    fn owns(&self, _link: usize) -> bool {
        true
    }

    #[inline(always)]
    fn past_end(&self, _time: f64) -> bool {
        false
    }

    fn hand_over(&mut self, _link: usize, _arrival: Event) {
        unreachable!("the serial shard owns every link");
    }
}

/// The gang's policy: this shard owns the links the plan gave it,
/// processes events strictly before the current window's end, and posts
/// packets crossing onto a foreign link to the owner's outbox — their
/// arrival is at least `window start + lookahead >= end`, so delivering the
/// outboxes at the window barrier is early enough.
struct WindowedShard<'a> {
    /// Shard owning each link (see [`Plan::owner`]).
    owner: &'a [u32],
    me: u32,
    /// End of the current window (`+∞` drains everything).
    end: f64,
    /// Boundary events per destination shard, flushed at the barrier.
    outbox: Vec<Vec<Event>>,
}

impl Boundary for WindowedShard<'_> {
    #[inline(always)]
    fn owns(&self, link: usize) -> bool {
        self.owner[link] == self.me
    }

    #[inline(always)]
    fn past_end(&self, time: f64) -> bool {
        time >= self.end
    }

    #[inline]
    fn hand_over(&mut self, link: usize, arrival: Event) {
        self.outbox[self.owner[link] as usize].push(arrival);
    }
}

/// The per-event kernel and the state it runs on: a worker's private
/// link-state arrays over the shared link table, its event queue and
/// per-link transit pipelines (the staging invariant, see the module docs),
/// its place in the run's first-emission list, the dirty-link tracker used
/// to harvest and recycle only the links the worker actually touched, and
/// everything the worker's share of the run produced — its own
/// [`FlowMonitor`] and the final link states — which [`RunTotals::of`] or a
/// serial run collects once the run is over. The shard owns its buffers
/// and reads the run's inputs through the [`EngineContext`] each call is
/// handed, so a [`Simulation`] keeps its serial one across its runs:
/// [`begin`](Self::begin) → [`advance`](Self::advance) (once, or once per
/// window) → [`finish`](Self::finish).
struct Shard<B> {
    boundary: B,
    states: LinkStates,
    dirty: DirtyLinks,
    queue: EventQueue,
    /// In-transit events coming off each link, behind the head that sits in
    /// `queue`; FIFO order is departure-time order.
    transit: Vec<VecDeque<Event>>,
    /// Whether the link's pipeline head is in `queue`.
    head_queued: Vec<bool>,
    /// Flow index → [`NOT_ENTERING`], [`WAITING`], or the flow's entry in
    /// `schedules` once its first packet has left. `begin` marks the flows
    /// entering on this shard, `finish` unmarks them.
    flow_pos: Vec<u32>,
    /// Lazy emission schedule of each flow whose first link this shard
    /// owns, created when its first packet leaves: emissions enter the
    /// network there, so that shard alone schedules them.
    schedules: Vec<EmissionSchedule>,
    /// The first entry of the run's first-emission list at or after which a
    /// waiting flow's first emission may lie: every entry before it has
    /// left or belongs to a flow that is not waiting here.
    next_first: usize,
    /// Tallies and delay histograms of the packets this shard delivered or
    /// dropped. Only the shard owning a flow's last link delivers it, so
    /// the flow's delay sums are whole here and zero on every other shard;
    /// drops may come from any shard, but counters commute.
    monitor: FlowMonitor,
    /// The exact path, kept as the histograms' oracle: every delivery as
    /// `(delay, queue_delay, is_background)`.
    #[cfg(test)]
    tap: Vec<(f64, f64, bool)>,
    /// Final state of the links this shard owned (a link has one owner).
    links: Vec<(u32, LinkState)>,
}

impl<B: Boundary> Shard<B> {
    fn new(num_links: usize, num_flows: usize, boundary: B) -> Self {
        Self {
            boundary,
            states: LinkStates::new(num_links),
            dirty: DirtyLinks::new(num_links),
            queue: EventQueue::new(),
            transit: vec![VecDeque::new(); num_links],
            head_queued: vec![false; num_links],
            flow_pos: vec![NOT_ENTERING; num_flows],
            schedules: Vec::new(),
            next_first: 0,
            monitor: FlowMonitor::new(num_flows),
            #[cfg(test)]
            tap: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Start this shard's share of a run: track the links it will
    /// dirty (for extraction + reset), mark the flows that enter the
    /// network on one of its links as waiting for their first emission,
    /// and size what the run's shape fixes.
    ///
    /// Sized up front: the queue, for one pending emission per entering
    /// flow that can start plus one pipeline head per owned link, a size it
    /// keeps until
    /// every entering flow has started. Its bucket width is set before the
    /// first event, for the events this shard will see per second (Σ rate ×
    /// owned hops / packet bits), where a growing queue would rebuild on
    /// every doubling; the queue is empty then, so setting it moves
    /// nothing. First emissions are not queued: they stay in the run's
    /// sorted first-emission list, which [`pop_next`](Self::pop_next)
    /// merges with the queue.
    fn begin(&mut self, ctx: &EngineContext<'_>, flows: impl Iterator<Item = u32>) {
        let EngineContext {
            routes,
            demands,
            config,
            first,
            ..
        } = *ctx;
        self.queue.clear();
        self.schedules.clear();
        let packet_bits = 8.0 * config.packet_bytes;
        let (mut entering, mut events_per_s) = (0, 0.0);
        for f in flows {
            let route = routes.route(f as usize);
            if self.boundary.owns(route[0] as usize) {
                entering += 1;
                self.flow_pos[f as usize] = WAITING;
            }
            for &l in route {
                if !self.boundary.owns(l as usize) {
                    continue;
                }
                self.dirty.mark(l as usize);
                events_per_s += demands[f as usize].amount_bps / packet_bits;
            }
        }
        // Only a flow whose first emission lies before the run's end ever
        // starts.
        let starting = entering.min(first.len());
        self.queue.reserve(starting + self.dirty.len());
        self.queue.calibrate(events_per_s);
        self.schedules.reserve(starting);
        self.next_first = 0;
        self.skip_to_waiting(first);
    }

    /// Move `next_first` past the entries whose flow is not waiting here.
    /// Once none is left every entering flow has started, and the queue may
    /// shrink as the run drains.
    #[inline]
    fn skip_to_waiting(&mut self, first: &[FirstEmission]) {
        while let Some(e) = first.get(self.next_first) {
            if self.flow_pos[e.flow as usize] == WAITING {
                return;
            }
            self.next_first += 1;
        }
        self.queue.release_floor();
    }

    /// Remove and return this shard's earliest pending event, unless it
    /// lies past the boundary's end: the queue's minimum or the next
    /// waiting first emission, whichever comes first in `(time, flow, hop)`
    /// order. A first emission that leaves creates its flow's schedule.
    #[inline]
    fn pop_next(&mut self, ctx: &EngineContext<'_>) -> Option<Event> {
        let Some(&first) = ctx.first.get(self.next_first) else {
            return self.queue.pop_if(|e| !self.boundary.past_end(e.time));
        };
        // No queued event shares the first emission's key: its flow has
        // sent nothing yet.
        let earlier =
            |e: &Event| e.time < first.time || (e.time == first.time && e.flow < first.flow);
        if let Some(e) = self
            .queue
            .pop_if(|e| earlier(e) && !self.boundary.past_end(e.time))
        {
            return Some(e);
        }
        // The queue is empty, its minimum comes later, or its minimum lies
        // past the end — and then so does the first emission, which is no
        // earlier.
        if self.boundary.past_end(first.time) {
            return None;
        }
        let f = first.flow as usize;
        let mut schedule = schedule_of(&ctx.demands[f], f, ctx.config);
        let sent = schedule.next_emission(ctx.config.duration_s);
        debug_assert_eq!(sent, Some(first.time));
        self.flow_pos[f] = self.schedules.len() as u32;
        self.schedules.push(schedule);
        self.next_first += 1;
        self.skip_to_waiting(ctx.first);
        Some(Event {
            time: first.time,
            flow: first.flow,
            hop: 0,
            sent_at: first.time,
            queue_delay: 0.0,
        })
    }

    /// Time of this shard's earliest pending event (`+∞` when none is
    /// left): its local event horizon.
    fn next_time(&mut self, first: &[FirstEmission]) -> f64 {
        let queued = self.queue.peek().map_or(f64::INFINITY, |e| e.time);
        first
            .get(self.next_first)
            .map_or(queued, |e| queued.min(e.time))
    }

    /// Queue `flow`'s next emission, if it has one left before the run ends.
    #[inline]
    fn push_next_emission(
        queue: &mut EventQueue,
        schedule: &mut EmissionSchedule,
        config: &SimConfig,
        flow: u32,
    ) {
        if let Some(t) = schedule.next_emission(config.duration_s) {
            queue.push(Event {
                time: t,
                flow,
                hop: 0,
                sent_at: t,
                queue_delay: 0.0,
            });
        }
    }

    /// Process events in timestamp order until none is pending or the
    /// earliest lies past the boundary's end.
    fn advance(&mut self, ctx: &EngineContext<'_>) {
        while let Some(popped) = self.pop_next(ctx) {
            if popped.hop == 0 {
                // A popped emission schedules its successor.
                let pos = self.flow_pos[popped.flow as usize] as usize;
                let schedule = &mut self.schedules[pos];
                Self::push_next_emission(&mut self.queue, schedule, ctx.config, popped.flow);
            } else {
                // A pipeline head left the queue (a packet handed over from
                // a foreign link waits in this shard's pipeline of that
                // link too).
                let route = ctx.routes.route(popped.flow as usize);
                self.advance_pipeline(route[popped.hop as usize - 1] as usize);
            }
            self.process_event(ctx, popped);
        }
    }

    /// Stage an arrival that came off `link`: in the queue if it is that
    /// pipeline's head, behind the head otherwise.
    #[inline]
    fn stage(&mut self, link: usize, arrival: Event) {
        if self.head_queued[link] {
            self.transit[link].push_back(arrival);
        } else {
            self.head_queued[link] = true;
            self.queue.push(arrival);
        }
    }

    /// Restore the staging invariant after `link`'s pipeline head popped:
    /// its next in-transit event becomes the head in the queue, or the
    /// pipeline is empty and the next transmit on `link` queues directly.
    #[inline]
    fn advance_pipeline(&mut self, link: usize) {
        match self.transit[link].pop_front() {
            Some(front) => self.queue.push(front),
            None => self.head_queued[link] = false,
        }
    }

    /// One packet arriving at the head of one hop: transmit it over that
    /// link, then record the delivery (final hop), stage the arrival at the
    /// next hop (in the queue if it is the link's pipeline head, behind the
    /// head otherwise), hand it to the next hop's owner, or count the drop.
    #[inline(always)]
    fn process_event(&mut self, ctx: &EngineContext<'_>, ev: Event) {
        let EngineContext {
            network,
            routes,
            demands,
            config,
            fluid,
            ..
        } = *ctx;
        let route = routes.route(ev.flow as usize);
        let link = route[ev.hop as usize] as usize;
        debug_assert!(self.boundary.owns(link), "event on a foreign link");
        let fluid_backlog = fluid.map_or(0.0, |f| f.backlog_bytes(link, ev.time));
        match self.states.transmit_queued(
            &network.links()[link],
            link,
            ev.time,
            config.packet_bytes,
            fluid_backlog,
        ) {
            Transmit::Delivered {
                arrival,
                queue_delay,
            } => {
                let next = Event {
                    time: arrival,
                    flow: ev.flow,
                    hop: ev.hop + 1,
                    sent_at: ev.sent_at,
                    queue_delay: ev.queue_delay + queue_delay,
                };
                match route.get(next.hop as usize) {
                    None => {
                        let background = demands[ev.flow as usize].is_background();
                        let delay = next.time - next.sent_at;
                        let stat = &mut self.monitor.flows[ev.flow as usize];
                        stat.delay_sum += delay;
                        stat.queue_delay_sum += next.queue_delay;
                        stat.delivered += 1;
                        let deliveries = &mut self.monitor.deliveries;
                        deliveries.record(background, delay, next.queue_delay);
                        #[cfg(test)]
                        self.tap.push((delay, next.queue_delay, background));
                    }
                    Some(&upcoming) if self.boundary.owns(upcoming as usize) => {
                        self.stage(link, next);
                    }
                    Some(&upcoming) => self.boundary.hand_over(upcoming as usize, next),
                }
            }
            Transmit::Dropped => {
                self.monitor.flows[ev.flow as usize].dropped += 1;
            }
        }
    }

    /// Close this shard's share of the run over `flows`: unmark its
    /// entering flows, keep the final state of the links it dirtied and
    /// recycle the worker arrays for the next run. (The queue, the
    /// first-emission list and every pipeline are drained by now — each
    /// popped head promoted its successor.)
    fn finish(&mut self, flows: impl Iterator<Item = u32>) {
        for f in flows {
            self.flow_pos[f as usize] = NOT_ENTERING;
        }
        self.dirty
            .drain_snapshots_into(&mut self.states, &mut self.links);
    }
}

impl Shard<Serial> {
    /// Run `flows` to exhaustion on this shard.
    fn run_whole(&mut self, ctx: &EngineContext<'_>, flows: impl Iterator<Item = u32> + Clone) {
        self.begin(ctx, flows.clone());
        self.advance(ctx);
        self.finish(flows);
    }
}

/// What a run's shards produced between them. Every part is a sum that
/// does not care about order: integer counts and bins, per-flow delay sums
/// that are non-zero on one shard only, link states that are disjoint.
struct RunTotals {
    monitor: FlowMonitor,
    links: Vec<(u32, LinkState)>,
    #[cfg(test)]
    queue_stats: crate::queue::QueueStats,
    #[cfg(test)]
    tap: Vec<(f64, f64, bool)>,
}

impl RunTotals {
    /// The first shard's products with the others' added.
    fn of<B>(shards: Vec<Shard<B>>) -> Self {
        let mut shards = shards.into_iter();
        let first = shards.next().expect("a run has at least one shard");
        let mut totals = RunTotals {
            monitor: first.monitor,
            links: first.links,
            #[cfg(test)]
            queue_stats: first.queue.stats(),
            #[cfg(test)]
            tap: first.tap,
        };
        for shard in shards {
            totals.monitor.merge(&shard.monitor);
            totals.links.extend(shard.links);
            #[cfg(test)]
            {
                totals.queue_stats.merge(&shard.queue.stats());
                totals.tap.extend(shard.tap);
            }
        }
        totals
    }
}

impl<'a> Shard<WindowedShard<'a>> {
    /// Run `flows` time-windowed with the rest of the gang: simulate the
    /// events on the links this shard owns, window by window.
    fn run_windows(
        &mut self,
        ctx: &EngineContext<'_>,
        flows: impl Iterator<Item = u32> + Clone,
        window: f64,
        gang: &Gang,
    ) {
        let me = self.boundary.me as usize;
        self.begin(ctx, flows.clone());
        loop {
            // Publish the local event horizon; after the barrier every
            // shard derives the same window start (the global minimum).
            let local_next = self.next_time(ctx.first);
            gang.next_times[me].store(local_next.to_bits(), AtomicOrdering::Release);
            gang.barrier.wait();
            let start = gang
                .next_times
                .iter()
                .map(|t| f64::from_bits(t.load(AtomicOrdering::Acquire)))
                .fold(f64::INFINITY, f64::min);
            // All horizons empty: every shard sees the same start and
            // agrees the run is drained.
            let done = !start.is_finite();
            if !done {
                self.boundary.end = start + window;
                self.advance(ctx);
                for (dst, batch) in self.boundary.outbox.iter_mut().enumerate() {
                    if !batch.is_empty() {
                        gang.inboxes[dst]
                            .lock()
                            .expect("inbox poisoned")
                            .append(batch);
                    }
                }
            }
            // Second barrier: every shard has read this window's start
            // and finished its exchanges before anyone publishes the
            // next horizon or drains an inbox.
            gang.barrier.wait();
            if done {
                break;
            }
            for ev in gang.inboxes[me].lock().expect("inbox poisoned").drain(..) {
                let crossed = ctx.routes.route(ev.flow as usize)[ev.hop as usize - 1] as usize;
                self.stage(crossed, ev);
            }
        }
        self.finish(flows);
    }
}

/// The time-windowed execution a run decided on before the first event.
struct Plan {
    /// Shards (threads) in the gang.
    workers: usize,
    /// Window length in simulated seconds: positive, at most the lookahead.
    window: f64,
    /// Shard owning each link the active flows cross (the partition's);
    /// the other entries are never read.
    owner: Vec<u32>,
}

/// The barrier the windowed gang meets at twice per window. It spins while
/// the other shards are about to arrive and parks once waiting has cost
/// about what parking does ([`SPIN_BEFORE_PARK`]): a crossing costs
/// ≈ 0.4 µs when the shards arrive together, where `std::sync::Barrier`
/// parks every time.
struct GangBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    /// Shards that stopped spinning, woken by the last arrival.
    sleepers: Mutex<Vec<Thread>>,
}

impl GangBarrier {
    fn new(parties: usize) -> Self {
        Self {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            sleepers: Mutex::new(Vec::new()),
        }
    }

    /// Block until all `parties` shards have called `wait`. Everything a
    /// shard wrote before it arrived is visible to every shard after.
    fn wait(&self) {
        let generation = self.generation.load(AtomicOrdering::Acquire);
        if self.arrived.fetch_add(1, AtomicOrdering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, AtomicOrdering::Relaxed);
            // Release under the lock, so a shard that registers after this
            // wakes up already registered for the next generation, never
            // drained by this one.
            let mut sleepers = self.sleepers.lock().expect("barrier poisoned");
            self.generation
                .store(generation.wrapping_add(1), AtomicOrdering::Release);
            for sleeper in sleepers.drain(..) {
                sleeper.unpark();
            }
            return;
        }
        let released = || self.generation.load(AtomicOrdering::Acquire) != generation;
        let spinning_since = Instant::now();
        let mut spins = 0u32;
        while !released() {
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) && spinning_since.elapsed() >= SPIN_BEFORE_PARK {
                // Registered under the lock the release happens under:
                // either this shard sees the release, or the last arrival
                // wakes it.
                {
                    let mut sleepers = self.sleepers.lock().expect("barrier poisoned");
                    if released() {
                        return;
                    }
                    sleepers.push(thread::current());
                }
                while !released() {
                    thread::park();
                }
                return;
            }
            std::hint::spin_loop();
        }
    }
}

/// What the windowed gang shares besides the plan.
struct Gang {
    barrier: GangBarrier,
    /// Boundary events posted for each shard, drained after the barrier.
    inboxes: Vec<Mutex<Vec<Event>>>,
    /// Each shard's next-event horizon (f64 bits), republished per window;
    /// the global minimum is the next window's start.
    next_times: Vec<AtomicU64>,
}

/// A complete simulation: network, demands, routes and configuration.
///
/// A `Simulation` keeps what its runs need across them: the first-emission
/// list, built once at construction (a function of the demands and the
/// configuration), and — once it has run serially — its serial engine,
/// whose buffers the next serial run resets and refills instead of
/// allocating, whatever its `workers`.
/// [`vary`](Self::vary) turns it into a what-if variant of a base network
/// the same way. A clone shares the first-emission list and starts with a
/// cold engine.
pub struct Simulation {
    network: Network,
    demands: Vec<Demand>,
    routes: RoutingTable,
    config: SimConfig,
    /// See [`first_emissions`].
    first_emissions: Arc<[FirstEmission]>,
    /// The serial engine, warm from the previous serial run.
    engine: Option<Box<Shard<Serial>>>,
    /// The re-routing state of [`vary`](Self::vary), warm from its
    /// previous call.
    rerouter: Option<Rerouter>,
    /// Event-queue occupancy statistics aggregated across every worker of
    /// the most recent run (all zeroes before the first run; a warm serial
    /// engine's queue counts every run since its first).
    #[cfg(test)]
    last_queue_stats: crate::queue::QueueStats,
    /// Every delivery of the most recent run, see [`Shard::tap`].
    #[cfg(test)]
    last_tap: Vec<(f64, f64, bool)>,
}

impl Clone for Simulation {
    fn clone(&self) -> Self {
        Self {
            network: self.network.clone(),
            demands: self.demands.clone(),
            routes: self.routes.clone(),
            config: self.config,
            first_emissions: Arc::clone(&self.first_emissions),
            engine: None,
            rerouter: None,
            #[cfg(test)]
            last_queue_stats: Default::default(),
            #[cfg(test)]
            last_tap: Vec::new(),
        }
    }
}

impl Simulation {
    /// Build a simulation: routes are computed for the demands under the
    /// configured scheme.
    ///
    /// # Panics
    ///
    /// As [`with_routes`](Self::with_routes).
    pub fn new(network: Network, demands: Vec<Demand>, config: SimConfig) -> Self {
        let routes = compute_routes(&network, &demands, config.routing);
        Self::with_routes(network, demands, routes, config)
    }

    /// Build a simulation over externally computed routes (e.g. routes that
    /// avoid failed links, from
    /// [`crate::routing::compute_routes_avoiding`]).
    ///
    /// # Panics
    ///
    /// Names the offending field when `config.duration_s` or
    /// `config.packet_bytes` is not finite and positive (an infinite
    /// duration would emit forever, a zero packet never fills a link), when
    /// a demand's `amount_bps` is not finite (`<= 0` is fine: the demand is
    /// inactive), or when `routes` does not hold one route per demand.
    pub fn with_routes(
        network: Network,
        demands: Vec<Demand>,
        routes: RoutingTable,
        config: SimConfig,
    ) -> Self {
        assert!(
            config.duration_s.is_finite() && config.duration_s > 0.0,
            "SimConfig::duration_s must be finite and positive, got {}",
            config.duration_s
        );
        assert!(
            config.packet_bytes.is_finite() && config.packet_bytes > 0.0,
            "SimConfig::packet_bytes must be finite and positive, got {}",
            config.packet_bytes
        );
        for (k, d) in demands.iter().enumerate() {
            assert!(
                d.amount_bps.is_finite(),
                "demand {k}: amount_bps must be finite, got {}",
                d.amount_bps
            );
        }
        assert_eq!(routes.len(), demands.len(), "one route per demand");
        let first_emissions = first_emissions(&demands, &config).into();
        Self {
            network,
            demands,
            routes,
            config,
            first_emissions,
            engine: None,
            rerouter: None,
            #[cfg(test)]
            last_queue_stats: Default::default(),
            #[cfg(test)]
            last_tap: Vec::new(),
        }
    }

    /// The computed routing table.
    pub fn routes(&self) -> &RoutingTable {
        &self.routes
    }

    /// The network (lets callers inspect link state after a run).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The demand set.
    pub fn demands(&self) -> &[Demand] {
        &self.demands
    }

    /// Number of link-disjoint components the active flows decompose into:
    /// a diagnostic of the demand set. No run looks for components (see
    /// the [module docs](self)).
    pub fn num_components(&self) -> usize {
        self.partition_flows().len()
    }

    /// Group the active flows into link-disjoint components via union-find
    /// over each route's links. Component order follows the first demand of
    /// each component, so the decomposition is deterministic. Under the
    /// hybrid engine ([`BackgroundModel::Fluid`]) background demands belong
    /// to the fluid solver, not the packet engine, so they are excluded
    /// here — an all-background demand set packet-simulates zero
    /// components.
    fn partition_flows(&self) -> Vec<Vec<u32>> {
        let num_links = self.network.num_links();
        let mut parent: Vec<u32> = (0..num_links as u32).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                // Path halving.
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        let active = || active_flows(&self.config, &self.demands, &self.routes);
        for k in active() {
            let route = self.routes.route(k as usize);
            let root = find(&mut parent, route[0]);
            for &l in &route[1..] {
                let r = find(&mut parent, l);
                parent[r as usize] = root;
            }
        }
        let mut comp_of_root: Vec<usize> = vec![usize::MAX; num_links];
        let mut comps: Vec<Vec<u32>> = Vec::new();
        for k in active() {
            let root = find(&mut parent, self.routes.route(k as usize)[0]) as usize;
            let idx = if comp_of_root[root] == usize::MAX {
                comp_of_root[root] = comps.len();
                comps.push(Vec::new());
                comps.len() - 1
            } else {
                comp_of_root[root]
            };
            comps[idx].push(k);
        }
        comps
    }

    /// Decide, before the first event, whether the run goes time-windowed
    /// on `workers > 1` shards, and how: `None` runs it serial. `forced`
    /// is the [`run_windowed`](Self::run_windowed) hook's window, which
    /// skips the pay test. The run pays when the partition of every active
    /// flow's links has a positive, finite lookahead and the run's expected
    /// packets pay for the gang ([`WINDOWED_PACKETS_PER_HOP`]) and for its
    /// windows ([`WINDOWED_PACKETS_PER_WINDOW`]).
    fn plan(ctx: &EngineContext<'_>, workers: usize, forced: Option<f64>) -> Option<Plan> {
        let EngineContext {
            network,
            routes,
            demands,
            config,
            ..
        } = *ctx;
        let flows = || active_flows(config, demands, routes);
        let rate: f64 = flows().map(|f| demands[f as usize].amount_bps).sum();
        let packets = rate * config.duration_s / (8.0 * config.packet_bytes);
        let hops: usize = flows().map(|f| routes.route(f as usize).len()).sum();
        let gang_cost = WINDOWED_PACKETS_PER_HOP * hops as f64;
        // A run has at least one window: a run that cannot pay for the gang
        // and one window is not worth partitioning.
        if forced.is_none() && packets < gang_cost + WINDOWED_PACKETS_PER_WINDOW {
            return None;
        }
        let paths: Vec<&[u32]> = flows().map(|f| routes.route(f as usize)).collect();
        let mut owner = vec![0; network.num_links()];
        partition_path_links(&paths, workers, &mut owner);
        let delays: Vec<f64> = network.links().iter().map(|l| l.propagation_s).collect();
        let lookahead = partition_lookahead(&paths, &owner, &delays);
        // A zero lookahead (a zero-delay link on the cut) admits no
        // conservative window; an infinite one means the partition put
        // every link on one shard.
        if !(lookahead > 0.0 && lookahead.is_finite()) {
            return None;
        }
        let window = match forced {
            Some(window_s) if window_s > 0.0 => window_s.min(lookahead),
            Some(_) => lookahead,
            None => {
                // The windows last until the last packet is delivered: the
                // duration plus the longest route's propagation.
                let drain = flows()
                    .map(|f| routes.route_latency_s(network, f as usize))
                    .fold(0.0, f64::max);
                let windows = ((config.duration_s + drain) / lookahead).max(1.0);
                if packets < gang_cost + windows * WINDOWED_PACKETS_PER_WINDOW {
                    return None;
                }
                lookahead
            }
        };
        Some(Plan {
            workers,
            window,
            owner,
        })
    }

    /// Time-windowed execution: a gang of `plan.workers` shards, one
    /// [`drain_jobs`] job each at that width, runs every active flow in
    /// lock-step windows.
    fn run_gang(ctx: &EngineContext<'_>, plan: &Plan) -> RunTotals {
        let workers = plan.workers;
        let gang = Gang {
            barrier: GangBarrier::new(workers),
            inboxes: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
            next_times: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        };
        let (num_links, num_flows) = (ctx.network.num_links(), ctx.demands.len());
        let (shards, _) = drain_jobs(
            workers,
            workers,
            || (),
            |_, me| {
                let mut shard = Shard::new(
                    num_links,
                    num_flows,
                    WindowedShard {
                        owner: &plan.owner,
                        me: me as u32,
                        end: f64::INFINITY,
                        outbox: (0..workers).map(|_| Vec::new()).collect(),
                    },
                );
                let flows = active_flows(ctx.config, ctx.demands, ctx.routes);
                shard.run_windows(ctx, flows, plan.window, &gang);
                shard
            },
        );
        RunTotals::of(shards)
    }

    /// Run the simulation and produce a report.
    ///
    /// Before the first event the run decides whether to run serial or
    /// time-windowed across [`SimConfig::workers`] shards (see the
    /// [module docs](self)). The report — including float-for-float every
    /// statistic — is identical for every `workers` value and either
    /// choice.
    pub fn run(&mut self) -> SimReport {
        self.execute(None)
    }

    /// [`run`](Self::run) forced time-windowed whenever the partition has a
    /// positive lookahead and the run has more than one worker, whatever
    /// the run would have chosen. `window_s <= 0` selects the lookahead as
    /// the window; a positive `window_s` is clamped down to the lookahead,
    /// never up — correctness is never traded for window length. A hook for
    /// the parity suites: the report is the same.
    #[doc(hidden)]
    pub fn run_windowed(&mut self, window_s: f64) -> SimReport {
        self.execute(Some(window_s))
    }

    fn execute(&mut self, forced: Option<f64>) -> SimReport {
        self.network.reset();
        // Hybrid runs solve the background class first — once, immutably —
        // so both executions read the same fluid backlogs and the
        // bit-identity contract extends to hybrid reports.
        let fluid_solution = if self.config.background == BackgroundModel::Fluid {
            Some(fluid::solve(
                &self.network,
                &self.routes,
                &self.demands,
                &self.config,
            ))
        } else {
            None
        };
        let ctx = EngineContext {
            network: &self.network,
            routes: &self.routes,
            demands: &self.demands,
            config: &self.config,
            fluid: fluid_solution.as_ref(),
            first: &self.first_emissions,
        };
        let workers = resolve_workers(self.config.workers);
        let plan = if workers > 1 {
            Self::plan(&ctx, workers, forced)
        } else {
            None
        };
        let totals;
        // Zero-flow demand sets (e.g. every demand unroutable after weather
        // failures) simulate nothing: the report is all zeroes (pinned by
        // `unroutable_demands_yield_an_empty_report_in_every_mode`).
        let (monitor, links) = match plan {
            Some(plan) => {
                totals = Self::run_gang(&ctx, &plan);
                #[cfg(test)]
                {
                    self.last_queue_stats = totals.queue_stats;
                    self.last_tap = totals.tap.clone();
                }
                (&totals.monitor, &totals.links)
            }
            None => {
                // Every active flow in one shard, no partition. The engine
                // stays warm for the next run.
                let (num_links, num_flows) = (self.network.num_links(), self.demands.len());
                let engine = self
                    .engine
                    .get_or_insert_with(|| Box::new(Shard::new(num_links, num_flows, Serial)));
                engine.monitor.clear();
                engine.links.clear();
                engine.run_whole(&ctx, active_flows(ctx.config, ctx.demands, ctx.routes));
                #[cfg(test)]
                {
                    self.last_queue_stats = engine.queue.stats();
                    self.last_tap = std::mem::take(&mut engine.tap);
                }
                (&engine.monitor, &engine.links)
            }
        };
        for (l, state) in links {
            self.network.states_mut().restore(*l as usize, state);
        }

        // Credit the fluid bytes each link carried before utilisations are
        // computed: background load is visible in `link_utilizations` (what
        // the weather layer's most-loaded-conduit analysis reads) exactly
        // as packet-simulated background load would be.
        if let Some(f) = fluid_solution.as_ref() {
            for &(l, bytes) in f.link_bytes() {
                self.network.states_mut().bytes_sent[l as usize] += bytes;
            }
        }

        let utilizations: Vec<f64> = (0..self.network.num_links())
            .map(|l| self.network.utilization(l, self.config.duration_s))
            .collect();
        let mut report = monitor.report(utilizations);
        if crate::routing::any_background(&self.demands) {
            report.per_class = Some(monitor.per_class(|k| self.demands[k].is_background()));
        }
        if let Some(f) = fluid_solution {
            if f.num_flows() > 0 {
                report.background = Some(f.stats());
            }
        }
        report
    }

    /// Make this simulation a what-if variant of `base`, reusing its
    /// buffers: the link table becomes `base`'s (rates included),
    /// `variant` may change link rates on it and returns a disabled-link
    /// mask (empty = every link up), and the routes become `base_routes`
    /// re-routed around the mask — the table
    /// [`reroute_avoiding`](crate::routing::reroute_avoiding) returns. The
    /// demands and the configuration stay. A sweep of variants on one
    /// `Simulation` (each worker of `cisp_core::evaluate::LoweredNetwork::rerun`)
    /// re-routes on one search state and runs on one warm engine; the
    /// report of each run is the one a fresh
    /// [`with_routes`](Self::with_routes) over the variant would give, bit
    /// for bit.
    ///
    /// # Panics
    ///
    /// When `base` is not this simulation's network up to link rates (same
    /// nodes, same links in the same order), when `variant` changes more
    /// than link rates, or as [`reroute_avoiding`] does.
    ///
    /// [`reroute_avoiding`]: crate::routing::reroute_avoiding
    pub fn vary(
        &mut self,
        base: &Network,
        base_routes: &RoutingTable,
        variant: impl FnOnce(&mut Network) -> Vec<bool>,
    ) {
        let shape = |n: &Network| (n.num_nodes(), n.num_links());
        assert_eq!(
            shape(&self.network),
            shape(base),
            "the base network must have this simulation's nodes and links"
        );
        for id in 0..base.num_links() {
            let (mine, theirs) = (*self.network.link(id), *base.link(id));
            assert!(
                LinkSpec {
                    rate_bps: theirs.rate_bps,
                    ..mine
                } == theirs,
                "link {id} of the base network differs from this simulation's beyond its rate"
            );
            if mine.rate_bps != theirs.rate_bps {
                self.network.set_link_rate(id, theirs.rate_bps);
            }
        }
        let disabled = variant(&mut self.network);
        assert_eq!(
            shape(&self.network),
            shape(base),
            "a variant may change link rates only"
        );
        self.rerouter
            .get_or_insert_with(|| Rerouter::new(base))
            .reroute(
                &self.network,
                &self.demands,
                base_routes,
                self.config.routing,
                &disabled,
                &mut self.routes,
            );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::test_widths;
    use crate::network::LinkSpec;
    use crate::queue::QueueStats;
    use crate::routing::compute_routes_avoiding;

    /// The run's own choice (`None`) and the windowed execution forced with
    /// the automatic window and with a finite one.
    const EVERY_MODE: [Option<f64>; 3] = [None, Some(0.0), Some(5e-4)];

    /// `run()` or, with a window, the `run_windowed` hook.
    fn run_as(sim: &mut Simulation, mode: Option<f64>) -> SimReport {
        match mode {
            None => sim.run(),
            Some(window_s) => sim.run_windowed(window_s),
        }
    }

    /// A single bottleneck link 0 → 1: 10 Mbps, 10 ms propagation.
    fn single_link_net(buffer_bytes: f64) -> Network {
        let mut net = Network::new(2);
        net.add_link(LinkSpec {
            from: 0,
            to: 1,
            rate_bps: 10e6,
            propagation_s: 0.010,
            buffer_bytes,
        });
        net
    }

    fn run_at_load(load: f64, buffer: f64, arrivals: ArrivalProcess) -> SimReport {
        let net = single_link_net(buffer);
        let demands = vec![Demand::new(0, 1, 10e6 * load)];
        let mut sim = Simulation::new(
            net,
            demands,
            SimConfig {
                duration_s: 2.0,
                arrivals,
                ..SimConfig::default()
            },
        );
        sim.run()
    }

    #[test]
    fn light_load_delay_is_propagation_plus_serialization() {
        let report = run_at_load(0.2, 1e6, ArrivalProcess::ConstantBitRate);
        // 10 ms propagation + 0.4 ms serialisation of 500 B at 10 Mbps.
        assert!(
            (report.mean_delay_ms - 10.4).abs() < 0.05,
            "{}",
            report.mean_delay_ms
        );
        assert_eq!(report.loss_rate, 0.0);
        assert!((report.mean_link_utilization - 0.2).abs() < 0.02);
        // The sole flow's mean delay is the global mean.
        assert!((report.flow_mean_delay_ms[0] - report.mean_delay_ms).abs() < 1e-9);
    }

    #[test]
    fn overload_causes_loss_with_finite_buffer() {
        let report = run_at_load(1.5, 20_000.0, ArrivalProcess::ConstantBitRate);
        assert!(report.loss_rate > 0.2, "loss {}", report.loss_rate);
        // Link saturates.
        assert!(report.max_link_utilization > 0.95);
        assert_eq!(report.flow_dropped[0], report.dropped);
    }

    #[test]
    fn queueing_grows_with_load() {
        let low = run_at_load(0.3, 1e9, ArrivalProcess::Poisson);
        let high = run_at_load(0.9, 1e9, ArrivalProcess::Poisson);
        assert!(high.mean_queue_delay_ms > low.mean_queue_delay_ms);
    }

    #[test]
    fn multihop_delays_add_up() {
        // 0 → 1 → 2, each hop 5 ms.
        let mut net = Network::new(3);
        for (a, b) in [(0, 1), (1, 2)] {
            net.add_link(LinkSpec {
                from: a,
                to: b,
                rate_bps: 1e9,
                propagation_s: 0.005,
                buffer_bytes: 1e9,
            });
        }
        let demands = vec![Demand::new(0, 2, 1e6)];
        let mut sim = Simulation::new(net, demands, SimConfig::default());
        let report = sim.run();
        assert!(
            (report.mean_delay_ms - 10.0).abs() < 0.1,
            "{}",
            report.mean_delay_ms
        );
    }

    #[test]
    fn cross_traffic_interferes_at_shared_link() {
        // Flows 0→2 and 1→2 share the 2→3 bottleneck.
        let mut net = Network::new(4);
        for (a, b, rate) in [(0, 2, 1e9), (1, 2, 1e9), (2, 3, 10e6)] {
            net.add_link(LinkSpec {
                from: a,
                to: b,
                rate_bps: rate,
                propagation_s: 0.001,
                buffer_bytes: 30_000.0,
            });
        }
        let demands = vec![Demand::new(0, 3, 8e6), Demand::new(1, 3, 8e6)];
        let mut sim = Simulation::new(net, demands, SimConfig::default());
        let report = sim.run();
        // Combined 16 Mbps into a 10 Mbps link: significant loss.
        assert!(report.loss_rate > 0.2, "loss {}", report.loss_rate);
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = run_at_load(0.8, 50_000.0, ArrivalProcess::Poisson);
        let b = run_at_load(0.8, 50_000.0, ArrivalProcess::Poisson);
        assert_eq!(a, b, "same seed must give a bit-identical report");
    }

    #[test]
    fn zero_rate_demand_produces_no_packets() {
        let net = single_link_net(1e6);
        let demands = vec![Demand::new(0, 1, 0.0)];
        let mut sim = Simulation::new(net, demands, SimConfig::default());
        let report = sim.run();
        assert_eq!(report.delivered + report.dropped, 0);
    }

    /// Many disjoint bottleneck pairs plus one shared-link pair: several
    /// independent components.
    fn multi_component_inputs(pairs: usize) -> (Network, Vec<Demand>) {
        let mut net = Network::new(2 * pairs);
        let mut demands = Vec::new();
        for p in 0..pairs {
            net.add_link(LinkSpec {
                from: 2 * p,
                to: 2 * p + 1,
                rate_bps: 10e6,
                propagation_s: 0.002 + p as f64 * 1e-4,
                buffer_bytes: 30_000.0,
            });
            demands.push(Demand::new(2 * p, 2 * p + 1, 8e6));
        }
        (net, demands)
    }

    /// One congested single-component mesh: a one-way ring with crossing
    /// multi-hop flows, so every route shares links with others.
    fn single_component_mesh(nodes: usize) -> (Network, Vec<Demand>) {
        let mut net = Network::new(nodes);
        for i in 0..nodes {
            net.add_link(LinkSpec {
                from: i,
                to: (i + 1) % nodes,
                rate_bps: 12e6,
                propagation_s: 0.001 + (i as f64) * 3e-4,
                buffer_bytes: 25_000.0,
            });
        }
        let mut demands = Vec::new();
        for i in 0..nodes {
            demands.push(Demand::new(i, (i + nodes / 2) % nodes, 3e6));
        }
        (net, demands)
    }

    /// A 5-hop conduit-like chain with a mid-chain entrant; propagation far
    /// exceeds the inter-packet gap, so every pipeline stays non-empty.
    fn staging_chain() -> (Network, Vec<Demand>) {
        let mut net = Network::new(6);
        for i in 0..5 {
            net.add_link(LinkSpec {
                from: i,
                to: i + 1,
                rate_bps: 100e6,
                propagation_s: 0.004,
                buffer_bytes: 1e9,
            });
        }
        let demands = vec![Demand::new(0, 5, 60e6), Demand::new(2, 4, 20e6)];
        (net, demands)
    }

    /// The ring mesh with every other demand tagged background.
    fn classified_mesh() -> (Network, Vec<Demand>) {
        let (net, mut demands) = single_component_mesh(8);
        for d in demands.iter_mut().skip(1).step_by(2) {
            d.class = crate::routing::TrafficClass::Background;
        }
        (net, demands)
    }

    /// Run `sim` (see [`run_as`]) and check every delay statistic of its
    /// report against the exact path — the delivery tap summarised by
    /// [`SampleStats`]: each quantile within one 2⁻¹⁰ bin of the sorted one
    /// (2⁻⁴⁰ s for the zero bin), each mean within 1e-12 relative of the
    /// naive running sum.
    fn run_against_exact_path(sim: &mut Simulation, mode: Option<f64>, what: &str) -> SimReport {
        use crate::monitor::{ClassReport, SampleStats};
        let report = run_as(sim, mode);
        assert_eq!(sim.last_tap.len() as u64, report.delivered, "{what}");
        let exact = |class: Option<bool>| {
            let (mut delays, mut queue_delays) = (SampleStats::default(), SampleStats::default());
            for &(delay, queue_delay, background) in &sim.last_tap {
                if class.is_none_or(|c| c == background) {
                    delays.record(delay);
                    queue_delays.record(queue_delay);
                }
            }
            (delays, queue_delays)
        };
        let quantile = |got_ms: f64, samples: &SampleStats, q: f64, name: &str| {
            let want_ms = samples.quantile(q) * 1e3;
            let bin_ms = want_ms * 2f64.powi(-10) + 2f64.powi(-40) * 1e3;
            assert!(
                (got_ms - want_ms).abs() <= bin_ms,
                "{what}: {name} {got_ms} vs sorted {want_ms}"
            );
        };
        let mean = |got_ms: f64, samples: &SampleStats, name: &str| {
            let want_ms = samples.mean() * 1e3;
            assert!(
                (got_ms - want_ms).abs() <= want_ms * 1e-12,
                "{what}: {name} {got_ms} vs running sum {want_ms}"
            );
        };
        let (delays, queue_delays) = exact(None);
        mean(report.mean_delay_ms, &delays, "mean_delay_ms");
        mean(
            report.mean_queue_delay_ms,
            &queue_delays,
            "mean_queue_delay_ms",
        );
        quantile(report.p95_delay_ms, &delays, 0.95, "p95_delay_ms");
        if let Some(classes) = &report.per_class {
            let class = |got: &ClassReport, background: bool| {
                let (delays, queue_delays) = exact(Some(background));
                assert_eq!(got.delivered, delays.count() as u64, "{what}");
                mean(got.mean_delay_ms, &delays, "class mean_delay_ms");
                mean(
                    got.mean_queue_delay_ms,
                    &queue_delays,
                    "class mean_queue_delay_ms",
                );
                quantile(got.p99_delay_ms, &delays, 0.99, "p99_delay_ms");
                quantile(
                    got.p99_queue_delay_ms,
                    &queue_delays,
                    0.99,
                    "p99_queue_delay_ms",
                );
            };
            class(&classes.foreground, false);
            class(&classes.background, true);
        }
        report
    }

    #[test]
    fn report_matches_the_exact_path_on_every_fixture_in_every_mode() {
        let fixtures = [
            (
                "ring mesh",
                single_component_mesh(8),
                BackgroundModel::Packet,
            ),
            ("pairs", multi_component_inputs(6), BackgroundModel::Packet),
            ("staging chain", staging_chain(), BackgroundModel::Packet),
            (
                "classified mesh",
                classified_mesh(),
                BackgroundModel::Packet,
            ),
            ("hybrid mesh", classified_mesh(), BackgroundModel::Fluid),
        ];
        for (name, (net, demands), background) in fixtures {
            for arrivals in [ArrivalProcess::ConstantBitRate, ArrivalProcess::Poisson] {
                let config = |workers| SimConfig {
                    duration_s: 0.2,
                    arrivals,
                    seed: 3,
                    workers,
                    background,
                    ..SimConfig::default()
                };
                let what = format!("{name}, {arrivals:?}, serial");
                let mut sim = Simulation::new(net.clone(), demands.clone(), config(1));
                let serial = run_against_exact_path(&mut sim, None, &what);
                assert!(serial.delivered > 0, "{what}");
                assert_eq!(
                    serial.per_class.is_some(),
                    crate::routing::any_background(&demands),
                    "{what}"
                );
                // Plus an odd gang, whatever the matrix cell.
                for workers in test_widths(&[1, 2, 4]).into_iter().chain([3]) {
                    for mode in EVERY_MODE {
                        let what = format!("{name}, {arrivals:?}, workers {workers}, {mode:?}");
                        let mut sim =
                            Simulation::new(net.clone(), demands.clone(), config(workers));
                        let report = run_against_exact_path(&mut sim, mode, &what);
                        assert_eq!(serial, report, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_run_is_bit_identical_to_serial() {
        for arrivals in [ArrivalProcess::ConstantBitRate, ArrivalProcess::Poisson] {
            let (net, demands) = multi_component_inputs(6);
            let config = |workers| SimConfig {
                duration_s: 0.5,
                arrivals,
                seed: 9,
                workers,
                ..SimConfig::default()
            };
            let serial = Simulation::new(net.clone(), demands.clone(), config(1)).run();
            let sharded = Simulation::new(net.clone(), demands.clone(), config(4)).run();
            let auto = Simulation::new(net, demands, config(0)).run();
            assert_eq!(serial, sharded, "{arrivals:?}");
            assert_eq!(serial, auto, "{arrivals:?}");
            assert!(serial.delivered > 0);
        }
    }

    #[test]
    fn windowed_run_is_bit_identical_to_serial_on_a_single_component_mesh() {
        for arrivals in [ArrivalProcess::ConstantBitRate, ArrivalProcess::Poisson] {
            let (net, demands) = single_component_mesh(8);
            let serial = Simulation::new(
                net.clone(),
                demands.clone(),
                SimConfig {
                    duration_s: 0.2,
                    arrivals,
                    seed: 3,
                    workers: 1,
                    ..SimConfig::default()
                },
            )
            .run();
            assert!(serial.delivered > 0);
            {
                let sim = Simulation::new(net.clone(), demands.clone(), SimConfig::default());
                assert_eq!(sim.num_components(), 1, "mesh must be one component");
            }
            for workers in test_widths(&[1, 2, 4]) {
                let mut sim = Simulation::new(
                    net.clone(),
                    demands.clone(),
                    SimConfig {
                        duration_s: 0.2,
                        arrivals,
                        seed: 3,
                        workers,
                        ..SimConfig::default()
                    },
                );
                assert_eq!(serial, sim.run(), "{arrivals:?}, workers {workers}");
                // Auto (lookahead) window, a finite window, a degenerate
                // one-event-scale window, and a window beyond the horizon.
                for window_s in [0.0, 1e-3, 5e-5, 10.0] {
                    let report = sim.run_windowed(window_s);
                    assert_eq!(
                        serial, report,
                        "{arrivals:?}, workers {workers}, window {window_s}"
                    );
                }
            }
        }
    }

    /// Two ring meshes on disjoint nodes and links, and between them three
    /// one-link pairs: five link-disjoint components.
    fn meshes_and_pairs() -> (Network, Vec<Demand>) {
        let parts = [
            single_component_mesh(6),
            multi_component_inputs(3),
            single_component_mesh(5),
        ];
        let mut net = Network::new(parts.iter().map(|(n, _)| n.num_nodes()).sum());
        let (mut demands, mut offset) = (Vec::new(), 0);
        for (part, part_demands) in parts {
            for l in part.links() {
                net.add_link(LinkSpec {
                    from: l.from + offset,
                    to: l.to + offset,
                    ..*l
                });
            }
            demands.extend(
                part_demands
                    .iter()
                    .map(|d| Demand::new(d.src + offset, d.dst + offset, d.amount_bps)),
            );
            offset += part.num_nodes();
        }
        (net, demands)
    }

    #[test]
    fn windowed_run_is_bit_identical_to_serial_across_components() {
        let (net, demands) = meshes_and_pairs();
        let config = |workers| SimConfig {
            duration_s: 0.3,
            seed: 11,
            workers,
            ..SimConfig::default()
        };
        let serial = Simulation::new(net.clone(), demands.clone(), config(1)).run();
        assert!(serial.delivered > 0);
        for workers in test_widths(&[1, 2, 4]).into_iter().chain([3]) {
            let mut sim = Simulation::new(net.clone(), demands.clone(), config(workers));
            assert_eq!(sim.num_components(), 5);
            // One partition across the five components.
            if workers > 1 {
                assert!(planned(&sim, None).is_some(), "workers {workers}");
            }
            assert_eq!(serial, sim.run_windowed(0.0), "workers {workers}");
            assert_eq!(serial, sim.run(), "workers {workers}");
        }
    }

    /// Two zero-delay links in a chain, crossed by two flows: any cut has
    /// zero lookahead.
    fn zero_propagation_chain() -> (Network, Vec<Demand>) {
        let mut net = Network::new(3);
        for (a, b) in [(0, 1), (1, 2)] {
            net.add_link(LinkSpec {
                from: a,
                to: b,
                rate_bps: 5e6,
                propagation_s: 0.0,
                buffer_bytes: 20_000.0,
            });
        }
        let demands = vec![Demand::new(0, 2, 2e6), Demand::new(1, 2, 2e6)];
        (net, demands)
    }

    #[test]
    fn windowed_run_survives_zero_propagation_cut_links() {
        // Zero-delay links give no conservative lookahead: the windowed
        // engine must collapse such a component to one shard, not spin.
        let (net, demands) = zero_propagation_chain();
        let serial = Simulation::new(
            net.clone(),
            demands.clone(),
            SimConfig {
                duration_s: 0.2,
                workers: 1,
                ..SimConfig::default()
            },
        )
        .run();
        assert!(serial.delivered > 0);
        for workers in test_widths(&[1, 2, 4]) {
            let mut sim = Simulation::new(
                net.clone(),
                demands.clone(),
                SimConfig {
                    duration_s: 0.2,
                    workers,
                    ..SimConfig::default()
                },
            );
            assert_eq!(serial, sim.run(), "workers {workers}");
            assert_eq!(serial, sim.run_windowed(0.0), "workers {workers}");
        }
    }

    #[test]
    fn unroutable_demands_yield_an_empty_report_in_every_mode() {
        // Every link disabled (total weather failure): all demands become
        // unroutable, the flow partition is empty (zero components, not
        // components without flows), and both executions must produce a
        // clean all-zero report.
        let (net, demands) = multi_component_inputs(3);
        let disabled = vec![true; net.num_links()];
        for workers in test_widths(&[1, 2, 4]) {
            let config = SimConfig {
                duration_s: 0.1,
                workers,
                ..SimConfig::default()
            };
            let routes = compute_routes_avoiding(&net, &demands, config.routing, &disabled);
            let mut sim = Simulation::with_routes(net.clone(), demands.clone(), routes, config);
            assert_eq!(sim.num_components(), 0);
            for mode in EVERY_MODE {
                let report = run_as(&mut sim, mode);
                assert_eq!(report.delivered + report.dropped, 0, "{mode:?}");
                assert_eq!(report.mean_delay_ms, 0.0);
                assert_eq!(report.flow_delivered, vec![0; demands.len()]);
                assert_eq!(report.flow_dropped, vec![0; demands.len()]);
                assert_eq!(report.max_link_utilization, 0.0);
            }
        }
    }

    #[test]
    fn staging_invariant_holds_under_many_packets_in_flight() {
        // A conduit-like chain whose propagation far exceeds the
        // inter-packet gap: ~80 packets in flight per segment keep every
        // pipeline non-empty, and a mid-chain entrant interleaves with the
        // through traffic. The queue must still hold at most one in-transit
        // head per link plus one pending emission per flow, every packet
        // must come out the far end, and the parallel modes must reproduce
        // the serial report float for float.
        let (net, demands) = staging_chain();
        let config = |workers| SimConfig {
            duration_s: 0.3,
            workers,
            ..SimConfig::default()
        };
        let mut serial_sim = Simulation::new(net.clone(), demands.clone(), config(1));
        let serial = serial_sim.run();
        assert_eq!(serial.dropped, 0);
        // 60 Mbps and 20 Mbps of 500 B packets over 0.3 s.
        assert_eq!(serial.flow_delivered, vec![4500, 1500]);
        let in_flight_per_link = 0.004 * 60e6 / (500.0 * 8.0);
        assert!(in_flight_per_link > 50.0);
        let peak = serial_sim.last_queue_stats.peak_occupancy;
        assert!(
            peak <= (net.num_links() + demands.len()) as u64,
            "queue peaked at {peak} events"
        );
        for workers in test_widths(&[1, 2, 4]) {
            let mut sim = Simulation::new(net.clone(), demands.clone(), config(workers));
            for mode in EVERY_MODE {
                assert_eq!(
                    serial,
                    run_as(&mut sim, mode),
                    "workers {workers}, {mode:?}"
                );
            }
        }
    }

    #[test]
    fn queue_stats_accumulate_over_a_run() {
        // One worker, so the stats are one queue's whatever the machine.
        let (net, demands) = single_component_mesh(8);
        let mut sim = Simulation::new(
            net,
            demands,
            SimConfig {
                duration_s: 0.2,
                workers: 1,
                ..SimConfig::default()
            },
        );
        assert_eq!(sim.last_queue_stats, QueueStats::default());
        let report = sim.run();
        assert!(report.delivered > 0);
        let stats = sim.last_queue_stats;
        assert!(stats.pushes > 0);
        assert!(stats.peak_occupancy > 0);
        // Sized for the component and calibrated once up front: no growth
        // resizes.
        assert!(stats.resizes <= 2, "{stats:?}");
    }

    /// How [`Simulation::run`] (`forced` = `None`) or the
    /// [`Simulation::run_windowed`] hook would execute `sim`: `None` runs it
    /// on the serial engine, `Some` is the gang's plan.
    fn planned(sim: &Simulation, forced: Option<f64>) -> Option<Plan> {
        let ctx = EngineContext {
            network: &sim.network,
            routes: &sim.routes,
            demands: &sim.demands,
            config: &sim.config,
            fluid: None,
            first: &sim.first_emissions,
        };
        let workers = resolve_workers(sim.config.workers);
        (workers > 1)
            .then(|| Simulation::plan(&ctx, workers, forced))
            .flatten()
    }

    #[test]
    fn the_run_picks_its_execution_from_expected_packets_per_window() {
        let window = |(net, demands): (Network, Vec<Demand>), duration_s, workers| {
            let config = SimConfig {
                duration_s,
                workers,
                ..SimConfig::default()
            };
            let sim = Simulation::new(net, demands, config);
            planned(&sim, None).map(|plan| {
                assert_eq!(plan.workers, workers);
                plan.window
            })
        };
        // 8 × 3 Mbps for 0.2 s: 1 200 packets against 6.4 for the gang's
        // 32 hops and 5 for each of the 131.6 windows of 1.6 ms until the
        // longest route (10.6 ms) has drained.
        let long = window(single_component_mesh(8), 0.2, 2);
        assert!(long.is_some_and(|w| (w - 1.6e-3).abs() < 1e-12), "{long:?}");
        // 0.5 ms is less than one window: 3 packets in all. (That the hop
        // test comes before the partition, so a run that does not pay never
        // partitions, is pinned by `tests/whatif_warm_allocations.rs`.)
        assert_eq!(window(single_component_mesh(8), 5e-4, 2), None);
        // One worker runs serial.
        assert_eq!(window(single_component_mesh(8), 0.2, 1), None);
        // A zero-delay cut has no conservative window, even when forced.
        assert_eq!(window(zero_propagation_chain(), 0.2, 2), None);
        let (net, demands) = zero_propagation_chain();
        let zero = Simulation::new(
            net,
            demands,
            SimConfig {
                workers: 2,
                ..SimConfig::default()
            },
        );
        assert!(planned(&zero, Some(0.0)).is_none());
        // One-link pairs have no cut to window across.
        assert_eq!(window(multi_component_inputs(6), 0.2, 2), None);
        // The rings and pairs together go windowed: one partition over
        // every flow, whatever component it is in.
        assert!(window(meshes_and_pairs(), 0.2, 2).is_some());
        // Forming the gang costs 0.2 packets a route hop: 300 packets over
        // 27 windows of 4 ms pay for it on 100 two-hop flows (40), not on
        // 1 000 (400).
        let light_flows = |flows: usize| {
            let mut net = Network::new(3);
            for (a, b) in [(0, 1), (1, 2)] {
                net.add_link(LinkSpec {
                    from: a,
                    to: b,
                    rate_bps: 100e6,
                    propagation_s: 0.004,
                    buffer_bytes: 1e6,
                });
            }
            (net, vec![Demand::new(0, 2, 12e6 / flows as f64); flows])
        };
        assert!(window(light_flows(100), 0.1, 2).is_some());
        assert_eq!(window(light_flows(1000), 0.1, 2), None);
        // A forced window skips the pay test and is clamped to the
        // lookahead, never raised to it.
        let (net, demands) = single_component_mesh(8);
        let short = Simulation::new(
            net,
            demands,
            SimConfig {
                duration_s: 5e-4,
                workers: 2,
                ..SimConfig::default()
            },
        );
        let forced = |window_s| planned(&short, Some(window_s)).map(|plan| plan.window);
        let lookahead = forced(0.0).expect("a forced run partitions");
        assert!((lookahead - 1.6e-3).abs() < 1e-12, "{lookahead}");
        assert_eq!(forced(1e-3), Some(1e-3));
        assert_eq!(forced(10.0), Some(lookahead));
    }

    /// The panic message construction refuses `config` / `demands` with.
    fn refusal(config: SimConfig, demands: Vec<Demand>) -> String {
        let refused = std::panic::catch_unwind(|| {
            Simulation::new(single_link_net(1e6), demands, config);
        })
        .expect_err("construction must refuse this input");
        refused
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    #[test]
    fn bad_duration_is_refused_at_construction_by_name() {
        for duration_s in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let config = SimConfig {
                duration_s,
                ..SimConfig::default()
            };
            let message = refusal(config, vec![Demand::new(0, 1, 1e6)]);
            assert!(message.contains("SimConfig::duration_s"), "{message}");
        }
    }

    #[test]
    fn bad_packet_size_is_refused_at_construction_by_name() {
        for packet_bytes in [0.0, -500.0, f64::NAN, f64::INFINITY] {
            let config = SimConfig {
                packet_bytes,
                ..SimConfig::default()
            };
            let message = refusal(config, vec![Demand::new(0, 1, 1e6)]);
            assert!(message.contains("SimConfig::packet_bytes"), "{message}");
        }
    }

    #[test]
    fn non_finite_demand_rate_is_refused_at_construction_by_name() {
        for amount_bps in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let demands = vec![Demand::new(0, 1, 1e6), Demand::new(0, 1, amount_bps)];
            let message = refusal(SimConfig::default(), demands);
            assert!(message.contains("demand 1: amount_bps"), "{message}");
        }
        // Zero and negative rates stay legal: the demand is inactive.
        let demands = vec![Demand::new(0, 1, 0.0), Demand::new(0, 1, -5.0)];
        let report = Simulation::new(single_link_net(1e6), demands, SimConfig::default()).run();
        assert_eq!(report.delivered + report.dropped, 0);
    }

    #[test]
    fn hybrid_without_background_demands_is_bit_identical_to_pure_packet() {
        let (net, demands) = single_component_mesh(8);
        let config = |background| SimConfig {
            duration_s: 0.2,
            seed: 3,
            workers: 1,
            background,
            ..SimConfig::default()
        };
        let packet = Simulation::new(
            net.clone(),
            demands.clone(),
            config(BackgroundModel::Packet),
        )
        .run();
        let hybrid = Simulation::new(net, demands, config(BackgroundModel::Fluid)).run();
        assert_eq!(packet, hybrid);
        assert!(hybrid.background.is_none());
    }

    #[test]
    fn hybrid_report_is_bit_identical_across_modes_and_workers() {
        let (net, mut demands) = single_component_mesh(8);
        // Tag half the demands background.
        for d in demands.iter_mut().skip(4) {
            d.class = crate::routing::TrafficClass::Background;
        }
        let config = |workers| SimConfig {
            duration_s: 0.2,
            seed: 3,
            workers,
            background: BackgroundModel::Fluid,
            ..SimConfig::default()
        };
        let serial = Simulation::new(net.clone(), demands.clone(), config(1)).run();
        assert!(serial.background.is_some());
        for workers in test_widths(&[1, 2, 4]) {
            let mut sim = Simulation::new(net.clone(), demands.clone(), config(workers));
            for mode in EVERY_MODE {
                assert_eq!(
                    serial,
                    run_as(&mut sim, mode),
                    "workers {workers}, {mode:?}"
                );
            }
        }
    }

    #[test]
    fn hybrid_offloads_background_packets_and_reports_class_stats() {
        // 6 Mbps foreground + 8 Mbps background share the 10 Mbps link:
        // overloaded in aggregate. Hybrid simulates only the foreground
        // packets; the background appears as fluid stats and as queueing
        // delay on the foreground. The buffer is large enough that the
        // fluid backlog (peak 4 Mbps × 0.5 s ÷ 8 = 250 kB) never fills it,
        // so no class loses packets to drops.
        let net = single_link_net(500_000.0);
        let demands = vec![Demand::new(0, 1, 6e6), Demand::background(0, 1, 8e6)];
        let config = |background| SimConfig {
            duration_s: 0.5,
            background,
            ..SimConfig::default()
        };
        let hybrid =
            Simulation::new(net.clone(), demands.clone(), config(BackgroundModel::Fluid)).run();
        let packet = Simulation::new(net, demands, config(BackgroundModel::Packet)).run();

        // The background flow emitted no packets in hybrid...
        assert_eq!(hybrid.flow_delivered[1] + hybrid.flow_dropped[1], 0);
        // ...but did in pure packet.
        assert!(packet.flow_delivered[1] > 0);
        // Hybrid processed far fewer packet events.
        let hybrid_packets = hybrid.delivered + hybrid.dropped;
        let packet_packets = packet.delivered + packet.dropped;
        assert!(
            hybrid_packets * 2 < packet_packets,
            "{hybrid_packets} vs {packet_packets}"
        );
        // The fluid stats account for the background class.
        let bg = hybrid.background.expect("hybrid must report class stats");
        assert_eq!(bg.flows, 1);
        assert!((bg.offered_bits - 8e6 * 0.5).abs() < 1.0);
        assert!(bg.delivered_bits > 0.0);
        assert!(bg.peak_backlog_bytes > 0.0);
        assert!(bg.packet_equivalent_events > 100.0);
        // The background queue delays foreground packets: mean queueing is
        // well above the foreground-only level but bounded by the peak
        // backlog drain time (250 kB at 10 Mbps = 200 ms).
        assert!(hybrid.mean_queue_delay_ms > 0.0);
        assert!(hybrid.mean_queue_delay_ms <= 200.0 + 1e-9);
        // Background load is visible in link utilisation: the link is
        // saturated in aggregate even though only foreground packets flow.
        assert!(
            hybrid.max_link_utilization > 0.9,
            "{}",
            hybrid.max_link_utilization
        );
    }

    #[test]
    fn hybrid_leaves_foreground_flows_off_background_routes_untouched() {
        // Disjoint pairs: tagging one pair background must leave every
        // other pair's per-flow statistics bit-identical to pure packet.
        let (net, mut demands) = multi_component_inputs(4);
        demands[2].class = crate::routing::TrafficClass::Background;
        let config = |background| SimConfig {
            duration_s: 0.3,
            background,
            ..SimConfig::default()
        };
        let packet = Simulation::new(
            net.clone(),
            demands.clone(),
            config(BackgroundModel::Packet),
        )
        .run();
        let hybrid = Simulation::new(net, demands, config(BackgroundModel::Fluid)).run();
        for k in [0usize, 1, 3] {
            assert_eq!(packet.flow_mean_delay_ms[k], hybrid.flow_mean_delay_ms[k]);
            assert_eq!(packet.flow_delivered[k], hybrid.flow_delivered[k]);
            assert_eq!(packet.flow_dropped[k], hybrid.flow_dropped[k]);
        }
        assert_eq!(hybrid.flow_delivered[2], 0);
        assert!(hybrid.background.is_some());
    }

    #[test]
    fn components_split_disjoint_flows() {
        let (net, demands) = multi_component_inputs(4);
        let sim = Simulation::new(net, demands, SimConfig::default());
        let comps = sim.partition_flows();
        assert_eq!(comps.len(), 4);
        for (i, comp) in comps.iter().enumerate() {
            assert_eq!(comp, &vec![i as u32]);
        }
    }

    #[test]
    fn flows_sharing_a_link_stay_in_one_component() {
        let mut net = Network::new(4);
        for (a, b, rate) in [(0, 2, 1e9), (1, 2, 1e9), (2, 3, 10e6)] {
            net.add_link(LinkSpec {
                from: a,
                to: b,
                rate_bps: rate,
                propagation_s: 0.001,
                buffer_bytes: 30_000.0,
            });
        }
        let demands = vec![Demand::new(0, 3, 4e6), Demand::new(1, 3, 4e6)];
        let sim = Simulation::new(net, demands, SimConfig::default());
        let comps = sim.partition_flows();
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0], vec![0, 1]);
    }

    /// The gang's barrier on its own, over 10 000 generations at widths 1,
    /// 2, 3 and 5: every party stores the generation number in its slot,
    /// crosses, and reads every party's slot. The slots alternate between
    /// two buffers by generation parity, so one crossing per generation
    /// suffices: a slot is rewritten two generations on, after every reader
    /// of it has arrived at the next crossing. Every `STALL_EVERY`-th
    /// generation one party (a different one each time) sleeps three times
    /// [`SPIN_BEFORE_PARK`] before storing, so the others wait past their
    /// spin budget and park, and the last arrival must unpark them — a lost
    /// wake-up hangs here rather than failing. The parties are
    /// [`drain_jobs`] workers, one job each: no job returns before every
    /// party has arrived, so no worker claims a second one. A stale read
    /// is counted rather than asserted inside the loop, where a panicking
    /// party would leave the others waiting forever.
    #[test]
    fn gang_barrier_publishes_every_generation_to_every_party() {
        const GENERATIONS: usize = 10_000;
        const STALL_EVERY: usize = 97;
        for width in [1, 2, 3, 5] {
            let barrier = GangBarrier::new(width);
            let slots: [Vec<AtomicUsize>; 2] =
                std::array::from_fn(|_| (0..width).map(|_| AtomicUsize::new(usize::MAX)).collect());
            let (per_party, _) = drain_jobs(
                width,
                width,
                || (),
                |_, party| {
                    let mut stale = 0usize;
                    let mut longest_stalled_wait = Duration::ZERO;
                    for generation in 0..GENERATIONS {
                        let stall_round = generation % STALL_EVERY == 0;
                        if stall_round && (generation / STALL_EVERY) % width == party {
                            thread::sleep(SPIN_BEFORE_PARK * 3);
                        }
                        let slot = &slots[generation % 2];
                        slot[party].store(generation, AtomicOrdering::Relaxed);
                        let arrived = Instant::now();
                        barrier.wait();
                        if stall_round {
                            longest_stalled_wait = longest_stalled_wait.max(arrived.elapsed());
                        }
                        stale += slot
                            .iter()
                            .filter(|s| s.load(AtomicOrdering::Relaxed) != generation)
                            .count();
                    }
                    (stale, longest_stalled_wait)
                },
            );
            for (party, &(stale, waited)) in per_party.iter().enumerate() {
                assert_eq!(stale, 0, "width {width}: party {party} read stale slots");
                if width > 1 {
                    assert!(
                        waited > SPIN_BEFORE_PARK,
                        "width {width}: party {party} never waited past the spin ({waited:?})"
                    );
                }
            }
        }
    }
}
