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
//! * *Lazy emissions.* The queue holds one pending emission per flow; each
//!   popped emission schedules its successor (strictly later, so it is
//!   pushed before it could pop). The event *set* is exactly the eagerly
//!   scheduled one, and the strict `(time, flow, hop)` order makes the pop
//!   sequence a function of the set alone.
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
//! once, up front (see `Shard::begin`).
//!
//! # Components, shards and the execution plan
//!
//! Two flows can only interact by queueing at a shared link, so the demand
//! set decomposes into *components* — groups of flows connected through
//! shared links — that are completely independent simulations. The engine
//! always partitions (union-find over each route's links), and before the
//! first event [`Simulation::run`] decides, per component, how to execute
//! it on [`SimConfig::workers`] threads:
//!
//! * *Whole* — one shard runs the component to exhaustion. With one worker
//!   that is the serial reference; with more, the components are spread
//!   over the workers (component sharding), which wins when the run is
//!   short or splits into many components.
//! * *Time-windowed* — conservative time-windowed execution *inside* the
//!   component, for one giant mesh on a long run. Its links are partitioned
//!   into per-worker shards of balanced link counts
//!   (`cisp_graph::partition_path_links`; balancing expected events instead
//!   measured no faster), every worker simulates only the events on its own
//!   links, and the event horizon is advanced in lock-step windows no longer
//!   than the partition's propagation-delay lookahead
//!   (`cisp_graph::partition_lookahead`) — a packet crossing onto another
//!   shard's link is handed over at the window barrier, provably before its
//!   receiver can need it.
//!
//! A component runs time-windowed when its expected packets (Σ rate ×
//! duration / packet bits over its flows) pay for forming the gang — the
//! partition, per route hop — and for every window's two barriers, the
//! windows lasting until its longest route has drained: (duration + that
//! route's propagation) / lookahead of them. See
//! `WINDOWED_PACKETS_PER_WINDOW` and `WINDOWED_PACKETS_PER_HOP` for
//! the measured break-even. Everything else runs whole, including every
//! `workers: 1` run and every component whose cut has zero lookahead.
//!
//! Both run the same per-event kernel, `Shard`, generic over a
//! `Boundary` policy that answers the three questions on which the modes
//! differ: does this shard own a link, has the window ended, and where does
//! a packet bound for a foreign link go. `WholeComponent` answers
//! "yes, never, nowhere" as constants, so its instantiation compiles
//! without a boundary branch; `WindowedShard` consults the link-owner
//! table, the window end and its outboxes.
//!
//! Deliveries never touch link state, so the final transmit accounts for
//! each one on the spot and stores nothing per packet. *Per-flow sums by
//! ownership*: a flow delivers over one final link, that link has exactly
//! one owning shard, and its finish times strictly increase — so a flow's
//! delay sums are accumulated by one shard in one order under every plan,
//! and the means are taken over them in flow-index order. *Histograms by
//! addition*: every delay is also binned into its shard's
//! `DeliveryHistograms`, integer counts that the run adds up in whatever
//! order the shards finish. Nothing depends on how the events were split,
//! which makes the produced [`SimReport`] **bit-identical for every
//! `workers` value and every execution plan** by construction —
//! `workers: 1` is the pinned serial reference, `workers: 0` picks the
//! machine's parallelism. The parity suites force each plan through the
//! hidden [`Simulation::run_in`] hook.
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
//! `workers` value and execution plan.
//!
//! [`PathStore`]: cisp_graph::PathStore
//! [`TrafficClass::Background`]: crate::routing::TrafficClass::Background

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Mutex;
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use cisp_graph::{partition_lookahead, partition_path_links};

use crate::flows::{ArrivalProcess, EmissionSchedule, FlowSpec};
use crate::fluid::{self, BackgroundModel, FluidOutcome};
use crate::jobs::{drain_jobs, resolve_workers};
use crate::monitor::{FlowMonitor, SimReport};
use crate::network::{DirtyLinks, LinkState, LinkStates, Network, Transmit};
use crate::queue::{Event, EventQueue};
use crate::routing::{compute_routes, Demand, RoutingScheme, RoutingTable};

/// An execution forced on every component of a run through
/// [`Simulation::run_in`] — a test hook: [`Simulation::run`] picks the
/// execution per component itself, and the report is the same either way.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecMode {
    /// Every component runs whole; the components are spread over the
    /// workers.
    ComponentSharded,
    /// Every component with a positive lookahead runs time-windowed, the
    /// rest whole. `window_s <= 0` selects the automatic window: the
    /// partition's propagation-delay lookahead. A positive `window_s` is
    /// clamped down to the lookahead, never up — correctness is never
    /// traded for window length.
    TimeWindowed {
        /// Window length in simulated seconds; `<= 0` = auto (lookahead).
        window_s: f64,
    },
}

impl ExecMode {
    /// Time-windowed execution with the automatic (lookahead) window.
    pub fn windowed_auto() -> Self {
        ExecMode::TimeWindowed { window_s: 0.0 }
    }
}

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
    /// serial. Results are bit-identical for every value. How a run spends
    /// them is decided per component before the first event (see the
    /// [module docs](self)). A sweep of many short runs (the what-if
    /// re-runs of `cisp_core::evaluate::LoweredNetwork::rerun`: storm
    /// intervals, conduit cuts, link upgrades) spends this budget *across*
    /// its runs — that many runs in flight, each serial inside — because a
    /// millisecond-scale run loses more to its own threads than it gains.
    pub workers: usize,
    /// How background-class demands execute: packet-level like everything
    /// else (the default), or as flow-level fluid queues that foreground
    /// packets ride on (the hybrid engine, [`crate::fluid`]). Composes with
    /// every execution plan; with no background demands the report is
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

/// Expected packets a time-windowed component must carry per window.
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

/// Expected packets a time-windowed component must carry per route hop of
/// its flows, to pay for forming the gang before its first window.
///
/// Partitioning the component's links and finding the lookahead walk every
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
/// routed demand set, the run configuration and the fluid solution
/// foreground packets ride on (hybrid runs, `None` under pure packet
/// execution).
#[derive(Clone, Copy)]
struct EngineContext<'a> {
    network: &'a Network,
    routes: &'a RoutingTable,
    demands: &'a [Demand],
    config: &'a SimConfig,
    fluid: Option<&'a FluidOutcome>,
}

/// Where a shard's share of a component ends — the only thing the two
/// execution modes disagree on. The kernel ([`Shard`]) is monomorphised
/// over it.
trait Boundary {
    /// Whether this shard simulates the events on `link`.
    fn owns(&self, link: usize) -> bool;
    /// Whether an event at `time` lies beyond what this shard may process
    /// before synchronising with the others.
    fn past_end(&self, time: f64) -> bool;
    /// Take a packet whose next hop `link` another shard owns.
    fn hand_over(&mut self, link: usize, arrival: Event);
}

/// The component-sharded policy: one shard owns every link of the
/// component and runs it to exhaustion, so nothing is ever handed over.
struct WholeComponent;

impl Boundary for WholeComponent {
    #[inline(always)]
    fn owns(&self, _link: usize) -> bool {
        true
    }

    #[inline(always)]
    fn past_end(&self, _time: f64) -> bool {
        false
    }

    fn hand_over(&mut self, _link: usize, _arrival: Event) {
        unreachable!("a whole-component shard owns every link");
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
/// the dirty-link tracker used to harvest and recycle only the links the
/// worker actually touched, and everything the worker's share of the run
/// produced — its own [`FlowMonitor`] and the final link states — which
/// [`RunTotals::of`] collects once the run is over. One `Shard`
/// serves every component its worker runs: [`begin`](Self::begin) →
/// [`advance`](Self::advance) (once, or once per window) →
/// [`finish`](Self::finish).
struct Shard<'a, B> {
    ctx: EngineContext<'a>,
    boundary: B,
    states: LinkStates,
    dirty: DirtyLinks,
    queue: EventQueue,
    /// In-transit events coming off each link, behind the head that sits in
    /// `queue`; FIFO order is departure-time order.
    transit: Vec<VecDeque<Event>>,
    /// Whether the link's pipeline head is in `queue`.
    head_queued: Vec<bool>,
    /// Flow index → its entry in `schedules`, filled by `begin` for the
    /// flows entering on this shard. Other entries are stale, but only an
    /// entering flow's emissions ever pop here.
    flow_pos: Vec<u32>,
    /// Lazy emission schedule of each flow whose first link this shard
    /// owns: emissions enter the network there, so that shard alone
    /// schedules them.
    schedules: Vec<EmissionSchedule>,
    /// Tallies and delay histograms of the packets this shard delivered or
    /// dropped. Only the shard owning a flow's last link delivers it, so
    /// the flow's delay sums are whole here and zero on every other shard;
    /// drops may come from any shard, but counters commute.
    monitor: FlowMonitor,
    /// The exact path, kept as the histograms' oracle: every delivery as
    /// `(delay, queue_delay, is_background)`.
    #[cfg(test)]
    tap: Vec<(f64, f64, bool)>,
    /// Final state of the links this shard owned, component after component
    /// (components are link-disjoint and a link has one owner).
    links: Vec<(u32, LinkState)>,
}

impl<'a, B: Boundary> Shard<'a, B> {
    fn new(ctx: EngineContext<'a>, boundary: B) -> Self {
        let num_links = ctx.network.num_links();
        Self {
            ctx,
            boundary,
            states: LinkStates::new(num_links),
            dirty: DirtyLinks::new(num_links),
            queue: EventQueue::new(),
            transit: vec![VecDeque::new(); num_links],
            head_queued: vec![false; num_links],
            flow_pos: vec![0; ctx.demands.len()],
            schedules: Vec::new(),
            monitor: FlowMonitor::new(ctx.demands.len()),
            #[cfg(test)]
            tap: Vec::new(),
            links: Vec::new(),
        }
    }

    /// This shard, its state and products kept, under another boundary
    /// policy.
    fn with_boundary<C>(self, boundary: C) -> Shard<'a, C> {
        Shard {
            ctx: self.ctx,
            boundary,
            states: self.states,
            dirty: self.dirty,
            queue: self.queue,
            transit: self.transit,
            head_queued: self.head_queued,
            flow_pos: self.flow_pos,
            schedules: self.schedules,
            monitor: self.monitor,
            #[cfg(test)]
            tap: self.tap,
            links: self.links,
        }
    }

    /// Start this shard's share of a component: track the links it will
    /// dirty (for extraction + reset), size what the component's shape
    /// fixes, and seed the first emission of every flow that enters the
    /// network on one of its links.
    ///
    /// Sized up front: the schedules of the entering flows, and the queue,
    /// for one pending emission per entering flow plus one pipeline head
    /// per owned link. Its bucket width is then calibrated
    /// once, for the events this shard will see per second (Σ rate × owned
    /// hops / packet bits), where a growing queue would rebuild on every
    /// doubling. The seeded emissions alone would set it ≈ 4 × too wide at
    /// paper scale (one event per packet where a packet makes ≈ 4.3), and
    /// every bucket would grow to hold that crowd.
    fn begin(&mut self, flows: &[u32]) {
        let EngineContext {
            routes,
            demands,
            config,
            ..
        } = self.ctx;
        self.queue.clear();
        self.schedules.clear();
        let packet_bits = 8.0 * config.packet_bytes;
        let (mut entering, mut events_per_s) = (0, 0.0);
        for &f in flows {
            let route = routes.route(f as usize);
            entering += usize::from(self.boundary.owns(route[0] as usize));
            for &l in route {
                if !self.boundary.owns(l as usize) {
                    continue;
                }
                self.dirty.mark(l as usize);
                events_per_s += demands[f as usize].amount_bps / packet_bits;
            }
        }
        self.queue.reserve(entering + self.dirty.len());
        self.schedules.reserve_exact(entering);
        for &f in flows {
            if !self.boundary.owns(routes.route(f as usize)[0] as usize) {
                continue;
            }
            let demand = demands[f as usize];
            let flow = FlowSpec {
                src: demand.src,
                dst: demand.dst,
                rate_bps: demand.amount_bps,
                packet_bytes: config.packet_bytes,
            };
            let mut schedule =
                EmissionSchedule::new(&flow, f as usize, config.arrivals, config.seed);
            Self::push_next_emission(&mut self.queue, &mut schedule, config, f);
            self.flow_pos[f as usize] = self.schedules.len() as u32;
            self.schedules.push(schedule);
        }
        self.queue.calibrate(events_per_s);
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

    /// Process events in timestamp order until the queue is empty or its
    /// earliest event lies past the boundary's end.
    fn advance(&mut self) {
        let EngineContext { routes, config, .. } = self.ctx;
        while let Some(popped) = self.queue.pop_if(|e| !self.boundary.past_end(e.time)) {
            if popped.hop == 0 {
                // A popped emission schedules its successor.
                let pos = self.flow_pos[popped.flow as usize] as usize;
                let schedule = &mut self.schedules[pos];
                Self::push_next_emission(&mut self.queue, schedule, config, popped.flow);
            } else {
                // A pipeline head left the queue (a packet handed over from
                // a foreign link waits in this shard's pipeline of that
                // link too).
                let crossed = routes.route(popped.flow as usize)[popped.hop as usize - 1] as usize;
                self.advance_pipeline(crossed);
            }
            self.process_event(popped);
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
    fn process_event(&mut self, ev: Event) {
        let EngineContext {
            network,
            routes,
            demands,
            config,
            fluid,
            ..
        } = self.ctx;
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

    /// Close this shard's share of the component: keep the final state of
    /// the links it dirtied and recycle the worker arrays for the next
    /// component. (The queue and every pipeline are empty by now — each
    /// popped head promoted its successor.)
    fn finish(&mut self) {
        self.links
            .extend(self.dirty.drain_snapshots(&mut self.states));
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
    /// The first shard's products with the others' added — a serial run,
    /// which every what-if sweep is made of, copies nothing.
    fn of<B>(shards: Vec<Shard<'_, B>>) -> Self {
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

impl<'a> Shard<'a, WindowedShard<'a>> {
    /// Run one time-windowed component with the rest of the gang: simulate
    /// the events on the links this shard owns, window by window.
    fn run_windows(&mut self, flows: &[u32], window: f64, gang: &Gang) {
        let me = self.boundary.me as usize;
        let routes = self.ctx.routes;
        self.begin(flows);
        loop {
            // Publish the local event horizon; after the barrier every
            // shard derives the same window start (the global minimum).
            let local_next = self.queue.peek().map_or(f64::INFINITY, |e| e.time);
            gang.next_times[me].store(local_next.to_bits(), AtomicOrdering::Release);
            gang.barrier.wait();
            let start = gang
                .next_times
                .iter()
                .map(|t| f64::from_bits(t.load(AtomicOrdering::Acquire)))
                .fold(f64::INFINITY, f64::min);
            // All horizons empty: every shard sees the same start and
            // agrees the component is drained.
            let done = !start.is_finite();
            if !done {
                self.boundary.end = start + window;
                self.advance();
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
                let crossed = routes.route(ev.flow as usize)[ev.hop as usize - 1] as usize;
                self.stage(crossed, ev);
            }
        }
        self.finish();
    }
}

/// How one component executes, decided before the first event.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Execution {
    /// One shard runs the component to exhaustion.
    Whole,
    /// The gang runs it in lock-step windows of this many seconds.
    Windowed(f64),
}

/// What a run decided before the first event.
struct Plan {
    /// Shards (threads) the run uses.
    workers: usize,
    /// How each component executes.
    executions: Vec<Execution>,
    /// Shard owning each link of a windowed component (the partition's);
    /// the other entries are never read.
    owner: Vec<u32>,
}

impl Plan {
    fn windowed(&self) -> bool {
        self.executions
            .iter()
            .any(|e| matches!(e, Execution::Windowed(_)))
    }
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
    /// The components that run whole, in order, and the first one no
    /// shard has claimed yet.
    whole: Vec<usize>,
    next_whole: AtomicUsize,
}

/// A complete simulation: network, demands, routes and configuration.
pub struct Simulation {
    network: Network,
    demands: Vec<Demand>,
    routes: RoutingTable,
    config: SimConfig,
    /// Event-queue occupancy statistics aggregated across every worker of
    /// the most recent run (all zeroes before the first run).
    #[cfg(test)]
    last_queue_stats: crate::queue::QueueStats,
    /// Every delivery of the most recent run, see [`Shard::tap`].
    #[cfg(test)]
    last_tap: Vec<(f64, f64, bool)>,
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
        Self {
            network,
            demands,
            routes,
            config,
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

    /// Number of link-disjoint components the active flows decompose into —
    /// the component engine's parallelism grain.
    pub fn num_components(&self) -> usize {
        self.partition_flows().len()
    }

    /// Group the active flows (non-empty route, positive rate) into
    /// link-disjoint components via union-find over each route's links.
    /// Component order follows the first demand of each component, so the
    /// decomposition is deterministic. Under the hybrid engine
    /// ([`BackgroundModel::Fluid`]) background demands belong to the fluid
    /// solver, not the packet engine, so they are excluded here — an
    /// all-background demand set packet-simulates zero components.
    fn partition_flows(&self) -> Vec<Vec<u32>> {
        let fluid_active = self.config.background == BackgroundModel::Fluid;
        let skip = |d: &Demand| d.amount_bps <= 0.0 || (fluid_active && d.is_background());
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
        for (k, d) in self.demands.iter().enumerate() {
            if skip(d) {
                continue;
            }
            let route = self.routes.route(k);
            if route.is_empty() {
                continue;
            }
            let root = find(&mut parent, route[0]);
            for &l in &route[1..] {
                let r = find(&mut parent, l);
                parent[r as usize] = root;
            }
        }
        let mut comp_of_root: Vec<usize> = vec![usize::MAX; num_links];
        let mut comps: Vec<Vec<u32>> = Vec::new();
        for (k, d) in self.demands.iter().enumerate() {
            if skip(d) || self.routes.route(k).is_empty() {
                continue;
            }
            let root = find(&mut parent, self.routes.route(k)[0]) as usize;
            let idx = if comp_of_root[root] == usize::MAX {
                comp_of_root[root] = comps.len();
                comps.push(Vec::new());
                comps.len() - 1
            } else {
                comp_of_root[root]
            };
            comps[idx].push(k as u32);
        }
        comps
    }

    /// Decide, before the first event, how each component of `comps`
    /// executes on `workers` shards; `forced` overrides the choice (the
    /// [`run_in`](Self::run_in) hook). A component runs time-windowed when
    /// its partition has a positive, finite lookahead and its expected
    /// packets pay for the gang ([`WINDOWED_PACKETS_PER_HOP`]) and for its
    /// windows ([`WINDOWED_PACKETS_PER_WINDOW`]); otherwise it runs whole.
    fn plan(
        ctx: &EngineContext<'_>,
        comps: &[Vec<u32>],
        workers: usize,
        forced: Option<ExecMode>,
    ) -> Plan {
        let EngineContext {
            network,
            routes,
            demands,
            config,
            ..
        } = *ctx;
        let mut plan = Plan {
            workers,
            executions: vec![Execution::Whole; comps.len()],
            owner: vec![0; network.num_links()],
        };
        if workers == 1 || forced == Some(ExecMode::ComponentSharded) {
            return plan;
        }
        let packet_bits = 8.0 * config.packet_bytes;
        let delays: Vec<f64> = network.links().iter().map(|l| l.propagation_s).collect();
        let mut paths: Vec<&[u32]> = Vec::new();
        for (comp, execution) in comps.iter().zip(&mut plan.executions) {
            let rate: f64 = comp.iter().map(|&f| demands[f as usize].amount_bps).sum();
            let packets = rate * config.duration_s / packet_bits;
            let hops: usize = comp.iter().map(|&f| routes.route(f as usize).len()).sum();
            let gang_cost = WINDOWED_PACKETS_PER_HOP * hops as f64;
            // A run has at least one window: a component that cannot pay
            // for the gang and one window is not worth partitioning.
            if forced.is_none() && packets < gang_cost + WINDOWED_PACKETS_PER_WINDOW {
                continue;
            }
            paths.clear();
            paths.extend(comp.iter().map(|&f| routes.route(f as usize)));
            partition_path_links(&paths, workers, &mut plan.owner);
            let lookahead = partition_lookahead(&paths, &plan.owner, &delays);
            let window = match forced {
                Some(ExecMode::TimeWindowed { window_s }) if window_s > 0.0 => {
                    window_s.min(lookahead)
                }
                Some(_) => lookahead,
                None => {
                    // The windows last until the last packet is delivered:
                    // the duration plus the longest route's propagation.
                    let drain = comp
                        .iter()
                        .map(|&f| routes.route_latency_s(network, f as usize))
                        .fold(0.0, f64::max);
                    let windows = ((config.duration_s + drain) / lookahead).max(1.0);
                    if packets >= gang_cost + windows * WINDOWED_PACKETS_PER_WINDOW {
                        lookahead
                    } else {
                        0.0
                    }
                }
            };
            // A zero lookahead (a zero-delay link on the cut) admits no
            // conservative window; an infinite one means the partition put
            // every link on one shard.
            if window > 0.0 && window.is_finite() {
                *execution = Execution::Windowed(window);
            }
        }
        plan
    }

    /// Component-sharded execution: the component list drained by `workers`
    /// shards ([`drain_jobs`]; one worker runs inline). Components are
    /// independent, so which shard runs which is irrelevant.
    fn run_components(ctx: &EngineContext<'_>, comps: &[Vec<u32>], workers: usize) -> RunTotals {
        let (_, shards) = drain_jobs(
            comps.len(),
            workers,
            || Shard::new(*ctx, WholeComponent),
            |shard, i| {
                shard.begin(&comps[i]);
                shard.advance();
                shard.finish();
            },
        );
        RunTotals::of(shards)
    }

    /// Execution with at least one time-windowed component: a gang of
    /// `plan.workers` shards, one [`drain_jobs`] job each at that width,
    /// runs the windowed components in lock-step, in order, then drains the
    /// whole ones without a barrier, each shard claiming the next unclaimed
    /// component as [`drain_jobs`] does.
    fn run_gang(ctx: &EngineContext<'_>, comps: &[Vec<u32>], plan: &Plan) -> RunTotals {
        let workers = plan.workers;
        let gang = Gang {
            barrier: GangBarrier::new(workers),
            inboxes: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
            next_times: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            whole: (0..comps.len())
                .filter(|&c| plan.executions[c] == Execution::Whole)
                .collect(),
            next_whole: AtomicUsize::new(0),
        };
        let (shards, _) = drain_jobs(
            workers,
            workers,
            || (),
            |_, me| Self::run_gang_shard(*ctx, comps, plan, &gang, me),
        );
        RunTotals::of(shards)
    }

    /// One gang member's run over every component.
    fn run_gang_shard<'a>(
        ctx: EngineContext<'a>,
        comps: &[Vec<u32>],
        plan: &'a Plan,
        gang: &Gang,
        me: usize,
    ) -> Shard<'a, WholeComponent> {
        let mut shard = Shard::new(
            ctx,
            WindowedShard {
                owner: &plan.owner,
                me: me as u32,
                end: f64::INFINITY,
                outbox: (0..plan.workers).map(|_| Vec::new()).collect(),
            },
        );
        for (comp, &execution) in comps.iter().zip(&plan.executions) {
            if let Execution::Windowed(window) = execution {
                shard.run_windows(comp, window, gang);
            }
        }
        let mut shard = shard.with_boundary(WholeComponent);
        // The counter publishes nothing but itself, as in `drain_jobs`.
        let claim = || gang.next_whole.fetch_add(1, AtomicOrdering::Relaxed);
        while let Some(&c) = gang.whole.get(claim()) {
            shard.begin(&comps[c]);
            shard.advance();
            shard.finish();
        }
        shard
    }

    /// Run the simulation and produce a report.
    ///
    /// Before the first event the run decides, per component, whether to
    /// run it whole or time-windowed across [`SimConfig::workers`] shards
    /// (see the [module docs](self)). The report — including float-for-float
    /// every statistic — is identical for every `workers` value and either
    /// choice.
    pub fn run(&mut self) -> SimReport {
        self.execute(None)
    }

    /// [`run`](Self::run) with every component forced into `mode`, whatever
    /// the run would have chosen. A hook for the parity suites: the report
    /// is the same.
    #[doc(hidden)]
    pub fn run_in(&mut self, mode: ExecMode) -> SimReport {
        self.execute(Some(mode))
    }

    fn execute(&mut self, forced: Option<ExecMode>) -> SimReport {
        self.network.reset();
        // Hybrid runs solve the background class first — once, immutably —
        // so every execution plan reads the same fluid backlogs and the
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
        let fluid = fluid_solution.as_ref();
        let comps = self.partition_flows();
        let ctx = EngineContext {
            network: &self.network,
            routes: &self.routes,
            demands: &self.demands,
            config: &self.config,
            fluid,
        };
        let plan = Self::plan(&ctx, &comps, resolve_workers(self.config.workers), forced);
        let totals = if plan.windowed() {
            Self::run_gang(&ctx, &comps, &plan)
        } else {
            Self::run_components(&ctx, &comps, plan.workers)
        };
        // Zero-flow demand sets (e.g. every demand unroutable after weather
        // failures) produce *zero components*: no shard has anything to
        // add and the report is all zeroes (pinned by
        // `unroutable_demands_yield_an_empty_report_in_every_mode`).
        let monitor = totals.monitor;
        for (l, state) in &totals.links {
            self.network.states_mut().restore(*l as usize, state);
        }
        #[cfg(test)]
        {
            self.last_queue_stats = totals.queue_stats;
            self.last_tap = totals.tap;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::test_widths;
    use crate::network::LinkSpec;
    use crate::queue::QueueStats;
    use crate::routing::compute_routes_avoiding;

    /// The run's own choice (`None`) and every forced execution.
    const EVERY_MODE: [Option<ExecMode>; 4] = [
        None,
        Some(ExecMode::ComponentSharded),
        Some(ExecMode::TimeWindowed { window_s: 0.0 }),
        Some(ExecMode::TimeWindowed { window_s: 5e-4 }),
    ];

    /// `run()` or, with a mode, the `run_in` hook.
    fn run_as(sim: &mut Simulation, mode: Option<ExecMode>) -> SimReport {
        match mode {
            None => sim.run(),
            Some(mode) => sim.run_in(mode),
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
    /// multi-hop flows, so every route shares links with others — component
    /// sharding degenerates to serial here, and time-windowed execution is
    /// the only parallel mode.
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
    fn run_against_exact_path(
        sim: &mut Simulation,
        mode: Option<ExecMode>,
        what: &str,
    ) -> SimReport {
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
                    let report = sim.run_in(ExecMode::TimeWindowed { window_s });
                    assert_eq!(
                        serial, report,
                        "{arrivals:?}, workers {workers}, window {window_s}"
                    );
                }
            }
        }
    }

    #[test]
    fn windowed_run_matches_component_sharding_on_disjoint_components() {
        let (net, demands) = multi_component_inputs(5);
        for workers in test_widths(&[1, 2, 4]).into_iter().chain([3]) {
            let config = SimConfig {
                duration_s: 0.3,
                seed: 11,
                workers,
                ..SimConfig::default()
            };
            let mut sim = Simulation::new(net.clone(), demands.clone(), config);
            let sharded = sim.run_in(ExecMode::ComponentSharded);
            assert_eq!(sharded, sim.run_in(ExecMode::windowed_auto()), "{workers}");
            assert_eq!(sharded, sim.run(), "workers {workers}");
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
            assert_eq!(
                serial,
                sim.run_in(ExecMode::windowed_auto()),
                "workers {workers}"
            );
        }
    }

    #[test]
    fn unroutable_demands_yield_an_empty_report_in_every_mode() {
        // Every link disabled (total weather failure): all demands become
        // unroutable, the flow partition is empty (zero components, not
        // components without flows), and both engines must produce a clean
        // all-zero report.
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

    /// How [`Simulation::run`] would execute `net` / `demands` under
    /// `config`: its worker count and each component's execution.
    fn planned(net: Network, demands: Vec<Demand>, config: SimConfig) -> (usize, Vec<Execution>) {
        let sim = Simulation::new(net, demands, config);
        let comps = sim.partition_flows();
        let ctx = EngineContext {
            network: &sim.network,
            routes: &sim.routes,
            demands: &sim.demands,
            config: &sim.config,
            fluid: None,
        };
        let plan = Simulation::plan(&ctx, &comps, resolve_workers(config.workers), None);
        (plan.workers, plan.executions)
    }

    #[test]
    fn the_run_picks_its_execution_from_expected_packets_per_window() {
        let config = |duration_s, workers| SimConfig {
            duration_s,
            workers,
            ..SimConfig::default()
        };
        let (net, demands) = single_component_mesh(8);
        // 8 × 3 Mbps for 0.2 s: 1 200 packets against 6.4 for the gang's
        // 32 hops and 5 for each of the 131.6 windows of 1.6 ms until the
        // longest route (10.6 ms) has drained.
        let (workers, long) = planned(net.clone(), demands.clone(), config(0.2, 2));
        assert_eq!(workers, 2);
        assert!(
            matches!(long[..], [Execution::Windowed(w)] if (w - 1.6e-3).abs() < 1e-12),
            "{long:?}"
        );
        // 0.5 ms is less than one window: 3 packets in all.
        let (_, short) = planned(net.clone(), demands.clone(), config(5e-4, 2));
        assert_eq!(short, [Execution::Whole]);
        // One worker runs serial.
        assert_eq!(
            planned(net, demands, config(0.2, 1)),
            (1, vec![Execution::Whole])
        );
        // A zero-delay cut has no conservative window.
        let (net, demands) = zero_propagation_chain();
        let (_, zero) = planned(net, demands, config(0.2, 2));
        assert_eq!(zero, [Execution::Whole]);
        // One-link components have no cut to window across.
        let (net, demands) = multi_component_inputs(6);
        let (_, pairs) = planned(net, demands, config(0.2, 2));
        assert_eq!(pairs, vec![Execution::Whole; 6]);
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
        let (net, demands) = light_flows(100);
        let (_, few) = planned(net, demands, config(0.1, 2));
        assert!(matches!(few[..], [Execution::Windowed(_)]), "{few:?}");
        let (net, demands) = light_flows(1000);
        let (_, many) = planned(net, demands, config(0.1, 2));
        assert_eq!(many, [Execution::Whole]);
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
