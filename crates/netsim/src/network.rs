//! Nodes, links and the link queueing model.
//!
//! Links are unidirectional and characterised by a transmission rate, a
//! propagation delay and a finite drop-tail buffer. Every link is one FIFO
//! queue in the standard "virtual clock" formulation of store-and-forward:
//! a link keeps the time at which its transmitter frees up; a packet
//! arriving at time `t` starts transmission at `max(t, free_at)`, occupies
//! the wire for `size / rate`, and is dropped if the backlog implied by
//! `free_at − t` exceeds the buffer. This is exactly equivalent to
//! simulating an explicit FIFO queue, at a fraction of the bookkeeping
//! cost. Traffic classes ([`crate::routing::TrafficClass`]) share that one
//! queue in arrival order; the hybrid engine's fluid background enters it
//! as extra backlog (`LinkStates::transmit_queued`).
//!
//! Dynamic per-link state lives in [`LinkStates`] — parallel flat arrays
//! (struct-of-arrays) rather than a `Vec` of state structs, so the
//! transmit hot path touches only the arrays it reads (`free_at`,
//! `bytes_sent`) instead of dragging whole 48-byte state records through
//! the cache, and the sharded simulation engine can hand each worker its
//! own state arrays over the shared immutable [`LinkSpec`] table.

/// Identifier of a node in the simulated network.
pub type NodeId = usize;
/// Identifier of a (unidirectional) link.
pub type LinkId = usize;

/// Static description of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Transmission rate in bits per second.
    pub rate_bps: f64,
    /// Propagation delay in seconds.
    pub propagation_s: f64,
    /// Buffer size in bytes (drop-tail).
    pub buffer_bytes: f64,
}

impl LinkSpec {
    /// Serialisation (transmission) delay of a packet of `bytes` on this link.
    pub(crate) fn serialization_s(&self, bytes: f64) -> f64 {
        bytes * 8.0 / self.rate_bps
    }

    /// `true` when the link can serialise a packet in finite time. A zero or
    /// non-finite rate has no defined virtual-clock arithmetic (`bytes/rate`
    /// is `inf` or NaN), so the transmit paths drop on such links instead of
    /// propagating NaN through `free_at`.
    #[inline]
    pub(crate) fn can_transmit(&self) -> bool {
        self.rate_bps.is_finite() && self.rate_bps > 0.0
    }
}

/// Snapshot of one link's dynamic state (assembled from [`LinkStates`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkState {
    /// Time at which the transmitter becomes free.
    pub free_at: f64,
    /// Total bytes accepted for transmission (for utilisation).
    pub bytes_sent: f64,
    /// Total packets dropped at this link's buffer.
    pub packets_dropped: u64,
    /// Sum of queueing delays experienced at this link.
    pub queue_delay_sum: f64,
    /// Number of packets accepted for transmission at this link.
    pub packets_forwarded: u64,
    /// Maximum backlog observed, in bytes.
    pub max_backlog_bytes: f64,
}

/// Outcome of offering a packet to a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Transmit {
    /// The packet was accepted; it is fully received by the other end at the
    /// given time.
    Delivered {
        /// Time the last bit arrives at the downstream node.
        arrival: f64,
        /// Queueing delay experienced before transmission began.
        queue_delay: f64,
    },
    /// The packet was dropped because the buffer was full.
    Dropped,
}

/// Dynamic state of every link, in struct-of-arrays form: one flat array per
/// field, indexed by [`LinkId`]. The simulation engine's workers each own a
/// private `LinkStates` over the shared link table; the serial path uses the
/// network's own.
#[derive(Debug, Clone, Default)]
pub struct LinkStates {
    /// Time at which each link's transmitter becomes free.
    pub free_at: Vec<f64>,
    /// Total bytes accepted per link.
    pub bytes_sent: Vec<f64>,
    /// Packets dropped per link.
    pub packets_dropped: Vec<u64>,
    /// Summed queueing delay per link.
    pub queue_delay_sum: Vec<f64>,
    /// Packets accepted per link.
    pub packets_forwarded: Vec<u64>,
    /// Maximum backlog observed per link, bytes.
    pub max_backlog_bytes: Vec<f64>,
}

impl LinkStates {
    /// Zeroed state for `n` links.
    pub fn new(n: usize) -> Self {
        Self {
            free_at: vec![0.0; n],
            bytes_sent: vec![0.0; n],
            packets_dropped: vec![0; n],
            queue_delay_sum: vec![0.0; n],
            packets_forwarded: vec![0; n],
            max_backlog_bytes: vec![0.0; n],
        }
    }

    /// Number of links covered.
    pub fn len(&self) -> usize {
        self.free_at.len()
    }

    /// `true` when covering no links.
    pub fn is_empty(&self) -> bool {
        self.free_at.is_empty()
    }

    /// Append one zeroed link slot.
    fn push_default(&mut self) {
        self.free_at.push(0.0);
        self.bytes_sent.push(0.0);
        self.packets_dropped.push(0);
        self.queue_delay_sum.push(0.0);
        self.packets_forwarded.push(0);
        self.max_backlog_bytes.push(0.0);
    }

    /// Reset every link to the zero state.
    pub fn reset(&mut self) {
        self.free_at.fill(0.0);
        self.bytes_sent.fill(0.0);
        self.packets_dropped.fill(0);
        self.queue_delay_sum.fill(0.0);
        self.packets_forwarded.fill(0);
        self.max_backlog_bytes.fill(0.0);
    }

    /// Reset a single link to the zero state (workers recycle their arrays
    /// between components).
    pub(crate) fn reset_link(&mut self, id: LinkId) {
        self.free_at[id] = 0.0;
        self.bytes_sent[id] = 0.0;
        self.packets_dropped[id] = 0;
        self.queue_delay_sum[id] = 0.0;
        self.packets_forwarded[id] = 0;
        self.max_backlog_bytes[id] = 0.0;
    }

    /// Snapshot one link's state.
    pub fn snapshot(&self, id: LinkId) -> LinkState {
        LinkState {
            free_at: self.free_at[id],
            bytes_sent: self.bytes_sent[id],
            packets_dropped: self.packets_dropped[id],
            queue_delay_sum: self.queue_delay_sum[id],
            packets_forwarded: self.packets_forwarded[id],
            max_backlog_bytes: self.max_backlog_bytes[id],
        }
    }

    /// Overwrite one link's state from a snapshot (the engine's merge step).
    pub(crate) fn restore(&mut self, id: LinkId, state: &LinkState) {
        self.free_at[id] = state.free_at;
        self.bytes_sent[id] = state.bytes_sent;
        self.packets_dropped[id] = state.packets_dropped;
        self.queue_delay_sum[id] = state.queue_delay_sum;
        self.packets_forwarded[id] = state.packets_forwarded;
        self.max_backlog_bytes[id] = state.max_backlog_bytes;
    }

    /// Offer a packet of `bytes` to link `id` (described by `spec`) at time
    /// `now` — the virtual-clock FIFO model.
    #[inline]
    pub fn transmit(&mut self, spec: &LinkSpec, id: LinkId, now: f64, bytes: f64) -> Transmit {
        self.transmit_queued(spec, id, now, bytes, 0.0)
    }

    /// [`LinkStates::transmit`] with `extra_backlog_bytes` of queue already
    /// occupying the link that the virtual clock does not know about — the
    /// hybrid engine's coupling point, where the fluid model's background
    /// backlog delays foreground packets. The packet waits behind the extra
    /// bytes (`now + extra·8/rate`) unless the virtual clock is later
    /// (`free_at` already embeds the fluid wait of earlier packets, so taking
    /// the max avoids double counting), and the drop check sees the combined
    /// occupancy. With `extra_backlog_bytes == 0.0` this is bit-identical to
    /// the pure packet model.
    #[inline]
    pub(crate) fn transmit_queued(
        &mut self,
        spec: &LinkSpec,
        id: LinkId,
        now: f64,
        bytes: f64,
        extra_backlog_bytes: f64,
    ) -> Transmit {
        // A zero or non-finite rate admits no finite serialisation: the
        // division below would make `ready` NaN — previously masked only by
        // `f64::max`'s NaN-eating behaviour. Defined semantics: such a link
        // drops every packet offered to it.
        if !spec.can_transmit() {
            self.packets_dropped[id] += 1;
            return Transmit::Dropped;
        }
        // Backlog implied by the virtual clock.
        let backlog_s = (self.free_at[id] - now).max(0.0);
        let backlog_bytes = backlog_s * spec.rate_bps / 8.0 + extra_backlog_bytes;
        if backlog_bytes + bytes > spec.buffer_bytes && spec.buffer_bytes > 0.0 {
            self.packets_dropped[id] += 1;
            return Transmit::Dropped;
        }
        let ready = now + extra_backlog_bytes * 8.0 / spec.rate_bps;
        let start = ready.max(self.free_at[id]);
        let queue_delay = start - now;
        let finish = start + spec.serialization_s(bytes);
        self.free_at[id] = finish;
        self.bytes_sent[id] += bytes;
        self.queue_delay_sum[id] += queue_delay;
        self.packets_forwarded[id] += 1;
        self.max_backlog_bytes[id] = self.max_backlog_bytes[id].max(backlog_bytes + bytes);
        Transmit::Delivered {
            arrival: finish + spec.propagation_s,
            queue_delay,
        }
    }
}

/// Tracks which links one simulation shard has dirtied, so its private
/// [`LinkStates`] can be harvested and recycled without sweeping the full
/// arrays. Both the component-sharded and the time-windowed engine use one
/// per worker: the component engine marks every link of a component's
/// routes, the windowed engine only the links the worker's shard owns.
#[derive(Debug, Clone, Default)]
pub(crate) struct DirtyLinks {
    seen: Vec<bool>,
    touched: Vec<u32>,
}

impl DirtyLinks {
    /// A tracker over `num_links` links, nothing dirty.
    pub(crate) fn new(num_links: usize) -> Self {
        Self {
            seen: vec![false; num_links],
            touched: Vec::new(),
        }
    }

    /// Mark a link dirty (idempotent; first-mark order is preserved).
    #[inline]
    pub(crate) fn mark(&mut self, id: LinkId) {
        if !self.seen[id] {
            self.seen[id] = true;
            self.touched.push(id as u32);
        }
    }

    /// Number of links currently marked dirty.
    pub(crate) fn len(&self) -> usize {
        self.touched.len()
    }

    /// Harvest every dirty link: snapshot it from `states`, reset it there,
    /// clear its mark, and return the `(link, snapshot)` pairs in mark
    /// order. Afterwards both the tracker and the dirtied slots of `states`
    /// are ready for the next shard of work.
    pub(crate) fn drain_snapshots(&mut self, states: &mut LinkStates) -> Vec<(u32, LinkState)> {
        let mut out = Vec::with_capacity(self.touched.len());
        for l in self.touched.drain(..) {
            out.push((l, states.snapshot(l as usize)));
            states.reset_link(l as usize);
            self.seen[l as usize] = false;
        }
        out
    }
}

/// The simulated network: a set of nodes and unidirectional links.
#[derive(Debug, Clone)]
pub struct Network {
    num_nodes: usize,
    links: Vec<LinkSpec>,
    states: LinkStates,
}

impl Network {
    /// Create a network with `num_nodes` nodes and no links.
    pub fn new(num_nodes: usize) -> Self {
        Self {
            num_nodes,
            links: Vec::new(),
            states: LinkStates::default(),
        }
    }

    /// Add a unidirectional link; returns its id.
    pub fn add_link(&mut self, spec: LinkSpec) -> LinkId {
        assert!(spec.from < self.num_nodes && spec.to < self.num_nodes);
        assert!(spec.from != spec.to, "self-loops are not allowed");
        // Propagation must be finite: the routing layer packs every link
        // into a CSR whose weights are shortest-path costs (an unusable
        // link is expressed by *not building it*, or via the disabled-link
        // mask of `compute_routes_avoiding`).
        assert!(
            spec.rate_bps > 0.0
                && spec.propagation_s.is_finite()
                && spec.propagation_s >= 0.0
                && spec.buffer_bytes >= 0.0
        );
        self.links.push(spec);
        self.states.push_default();
        self.links.len() - 1
    }

    /// Add a bidirectional link (two mirrored unidirectional links); returns
    /// the pair of ids `(forward, reverse)`.
    pub fn add_bidirectional_link(&mut self, spec: LinkSpec) -> (LinkId, LinkId) {
        let fwd = self.add_link(spec);
        let rev = self.add_link(LinkSpec {
            from: spec.to,
            to: spec.from,
            ..spec
        });
        (fwd, rev)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Link specification.
    pub fn link(&self, id: LinkId) -> &LinkSpec {
        &self.links[id]
    }

    /// All link specifications.
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }

    /// Replace a link's rate — the capacity-expansion hook (the economics
    /// loop re-simulates a lowered network with one link upgraded). Keeps
    /// [`Self::add_link`]'s invariant: the new rate must be positive and
    /// finite.
    pub fn set_link_rate(&mut self, id: LinkId, rate_bps: f64) {
        assert!(rate_bps > 0.0 && rate_bps.is_finite());
        self.links[id].rate_bps = rate_bps;
    }

    /// Snapshot of a link's runtime state (after a simulation run).
    pub fn link_state(&self, id: LinkId) -> LinkState {
        self.states.snapshot(id)
    }

    /// The dynamic state arrays.
    pub fn states(&self) -> &LinkStates {
        &self.states
    }

    /// Mutable access to the dynamic state arrays (the engine's merge step).
    pub(crate) fn states_mut(&mut self) -> &mut LinkStates {
        &mut self.states
    }

    /// Reset all dynamic state (between runs).
    pub fn reset(&mut self) {
        self.states.reset();
    }

    /// Offer a packet of `bytes` to link `id` at time `now`.
    pub fn transmit(&mut self, id: LinkId, now: f64, bytes: f64) -> Transmit {
        let spec = self.links[id];
        self.states.transmit(&spec, id, now, bytes)
    }

    /// Utilisation of a link over a run of `duration` seconds.
    pub fn utilization(&self, id: LinkId, duration: f64) -> f64 {
        assert!(duration > 0.0);
        (self.states.bytes_sent[id] * 8.0 / self.links[id].rate_bps / duration).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gbps_link(buffer_bytes: f64) -> LinkSpec {
        LinkSpec {
            from: 0,
            to: 1,
            rate_bps: 1e9,
            propagation_s: 0.005,
            buffer_bytes,
        }
    }

    #[test]
    fn serialization_delay_is_size_over_rate() {
        let spec = gbps_link(1e6);
        assert!((spec.serialization_s(1500.0) - 12e-6).abs() < 1e-12);
    }

    #[test]
    fn idle_link_delivers_after_serialization_plus_propagation() {
        let mut net = Network::new(2);
        let l = net.add_link(gbps_link(1e6));
        match net.transmit(l, 1.0, 500.0) {
            Transmit::Delivered {
                arrival,
                queue_delay,
            } => {
                assert!((arrival - (1.0 + 4e-6 + 0.005)).abs() < 1e-12);
                assert_eq!(queue_delay, 0.0);
            }
            Transmit::Dropped => panic!("should not drop"),
        }
    }

    #[test]
    fn back_to_back_packets_queue_behind_each_other() {
        let mut net = Network::new(2);
        let l = net.add_link(gbps_link(1e9));
        let t0 = 0.0;
        net.transmit(l, t0, 1500.0);
        match net.transmit(l, t0, 1500.0) {
            Transmit::Delivered { queue_delay, .. } => {
                assert!((queue_delay - 12e-6).abs() < 1e-9);
            }
            _ => panic!(),
        }
        // The link state records one queued packet.
        assert_eq!(net.link_state(l).packets_forwarded, 2);
        assert!(net.link_state(l).queue_delay_sum > 0.0);
    }

    #[test]
    fn buffer_overflow_drops() {
        let mut net = Network::new(2);
        // Buffer of exactly 3000 bytes: two 1500 B packets in flight/queued OK,
        // the third (arriving while both still occupy the horizon) is dropped.
        let l = net.add_link(gbps_link(3000.0));
        assert!(matches!(
            net.transmit(l, 0.0, 1500.0),
            Transmit::Delivered { .. }
        ));
        assert!(matches!(
            net.transmit(l, 0.0, 1500.0),
            Transmit::Delivered { .. }
        ));
        assert!(matches!(net.transmit(l, 0.0, 1500.0), Transmit::Dropped));
        assert_eq!(net.link_state(l).packets_dropped, 1);
    }

    #[test]
    fn queue_drains_over_time() {
        let mut net = Network::new(2);
        let l = net.add_link(gbps_link(3000.0));
        net.transmit(l, 0.0, 1500.0);
        net.transmit(l, 0.0, 1500.0);
        // 30 µs later both have been transmitted; a new packet is accepted.
        assert!(matches!(
            net.transmit(l, 30e-6, 1500.0),
            Transmit::Delivered { .. }
        ));
    }

    #[test]
    fn utilization_accounts_bytes_sent() {
        let mut net = Network::new(2);
        let l = net.add_link(gbps_link(1e9));
        for i in 0..1000 {
            net.transmit(l, i as f64 * 1e-4, 1250.0);
        }
        // 1000 × 1250 B = 10 Mbit over 0.1 s on a 1 Gbps link ⇒ 10 % utilisation.
        let u = net.utilization(l, 0.1);
        assert!((u - 0.1).abs() < 0.01, "u = {u}");
    }

    #[test]
    fn reset_clears_state() {
        let mut net = Network::new(2);
        let l = net.add_link(gbps_link(1e6));
        net.transmit(l, 0.0, 1500.0);
        net.reset();
        assert_eq!(net.link_state(l).bytes_sent, 0.0);
        assert_eq!(net.link_state(l).packets_forwarded, 0);
    }

    #[test]
    fn bidirectional_links_are_independent() {
        let mut net = Network::new(2);
        let (f, r) = net.add_bidirectional_link(gbps_link(1e6));
        net.transmit(f, 0.0, 1500.0);
        assert_eq!(net.link_state(f).packets_forwarded, 1);
        assert_eq!(net.link_state(r).packets_forwarded, 0);
        assert_eq!(net.link(r).from, 1);
        assert_eq!(net.link(r).to, 0);
    }

    #[test]
    fn detached_states_match_network_transmits() {
        // A worker-local LinkStates over the same specs reproduces the
        // network's own transmit bookkeeping exactly.
        let mut net = Network::new(2);
        let l = net.add_link(gbps_link(3000.0));
        let mut local = LinkStates::new(net.num_links());
        for t in [0.0, 0.0, 0.0, 40e-6] {
            let a = net.transmit(l, t, 1500.0);
            let b = local.transmit(net.link(l), l, t, 1500.0);
            assert_eq!(a, b);
        }
        assert_eq!(local.snapshot(l), net.link_state(l));
        // Restore round-trips the snapshot.
        let snap = local.snapshot(l);
        let mut other = LinkStates::new(1);
        other.restore(0, &snap);
        assert_eq!(other.snapshot(0), snap);
        local.reset_link(l);
        assert_eq!(local.snapshot(l), LinkState::default());
    }

    #[test]
    fn dirty_links_harvest_resets_only_marked_links() {
        let mut states = LinkStates::new(3);
        let spec = gbps_link(1e9);
        states.transmit(&spec, 0, 0.0, 1500.0);
        states.transmit(&spec, 2, 0.0, 1500.0);
        let mut dirty = DirtyLinks::new(3);
        assert_eq!(dirty.len(), 0);
        dirty.mark(2);
        dirty.mark(0);
        dirty.mark(2); // idempotent
        assert_eq!(dirty.len(), 2);
        let harvested = dirty.drain_snapshots(&mut states);
        // Mark order preserved; snapshots carry the transmit bookkeeping.
        assert_eq!(harvested.len(), 2);
        assert_eq!(harvested[0].0, 2);
        assert_eq!(harvested[1].0, 0);
        assert_eq!(harvested[0].1.packets_forwarded, 1);
        // Harvested slots are reset, the tracker is reusable.
        assert_eq!(dirty.len(), 0);
        assert_eq!(states.snapshot(0), LinkState::default());
        assert_eq!(states.snapshot(2), LinkState::default());
        dirty.mark(1);
        assert_eq!(dirty.len(), 1);
    }

    #[test]
    fn zero_or_non_finite_rate_drops_instead_of_nan() {
        // Regression: `transmit_queued` used to divide by `rate_bps`
        // unguarded, so a zero-rate link made `ready` NaN (masked only by
        // `f64::max`'s NaN behaviour). Defined semantics now: the packet is
        // dropped and counted, and the virtual clock stays finite.
        for bad_rate in [0.0, f64::NAN, f64::INFINITY, -1.0] {
            let spec = LinkSpec {
                from: 0,
                to: 1,
                rate_bps: bad_rate,
                propagation_s: 0.001,
                buffer_bytes: 1e6,
            };
            let mut states = LinkStates::new(1);
            assert_eq!(
                states.transmit_queued(&spec, 0, 0.5, 1500.0, 0.0),
                Transmit::Dropped,
                "rate {bad_rate} must drop"
            );
            assert_eq!(
                states.transmit_queued(&spec, 0, 0.5, 1500.0, 12_000.0),
                Transmit::Dropped,
                "rate {bad_rate} must drop behind a fluid backlog"
            );
            let snap = states.snapshot(0);
            assert_eq!(snap.packets_dropped, 2);
            assert_eq!(snap.packets_forwarded, 0);
            assert!(snap.free_at.is_finite() && snap.free_at == 0.0);
        }
    }

    #[test]
    #[should_panic]
    fn self_loop_rejected() {
        let mut net = Network::new(2);
        net.add_link(LinkSpec {
            from: 1,
            to: 1,
            rate_bps: 1e9,
            propagation_s: 0.0,
            buffer_bytes: 1e6,
        });
    }
}
