//! Flow-level fluid model for background traffic — the cheap half of the
//! hybrid engine.
//!
//! The paper's value metric is delivered latency for *latency-sensitive*
//! foreground traffic (gaming frames, small web transfers); bulk background
//! traffic only matters through the queue occupancy it induces. The fluid
//! model exploits that asymmetry: background demands are not simulated
//! packet by packet but as per-link FIFO fluid queues whose backlogs evolve
//! piecewise-linearly between *rate-change events* (flow start/stop, a
//! backlog emptying, a buffer capping). A million-user bulk demand that
//! would cost millions of packet events costs a handful of rate events.
//!
//! # The model
//!
//! Between events every rate is constant. At each event the solver relaxes
//! a fixed point over the installed routes (Gauss–Seidel sweeps, in demand
//! order — deterministic):
//!
//! * every link drains at its *effective capacity* — the configured rate
//!   minus the offered foreground load through it — whenever it has backlog
//!   or its fluid inflow exceeds that capacity, and at its inflow otherwise;
//! * a flow's departure rate is the link's total departure times the flow's
//!   share of the total inflow (a well-mixed FIFO queue: queued fluid is
//!   assumed proportionally blended, so the share may exceed the flow's
//!   inflow while a queue drains);
//! * at a full drop-tail buffer the backlog stays capped and the inflow
//!   excess over capacity is dropped, exactly like the packet model's
//!   drop-tail check;
//! * rate propagation along a route is instantaneous (propagation delay
//!   shifts *when* fluid arrives, not how much; ignoring it in the rate
//!   plumbing is the standard fluid-model simplification).
//!
//! The solved backlog timelines couple back into the packet engine: a
//! foreground packet arriving at a link at time `t` waits behind
//! `FluidOutcome::backlog_bytes(link, t)` extra bytes
//! (`crate::network::LinkStates::transmit_queued`), and the combined
//! occupancy feeds the drop check. Foreground statistics stay exact and
//! per-flow; the background class is reported in aggregate
//! ([`crate::monitor::BackgroundStats`]).
//!
//! # Agreement envelope
//!
//! With no background demands the hybrid report is *bit-identical* to pure
//! packet (the extra backlog is exactly `0.0` everywhere). Foreground flows
//! that share no link with any background route are likewise bit-identical.
//! On shared links both models bound the per-hop queueing delay by the
//! drop-tail buffer's drain time, so a foreground flow's mean delay differs
//! from pure packet by at most `Σ_route buffer_bytes · 8 / rate_bps` — the
//! envelope the parity tests assert.

use crate::flows::FlowSpec;
use crate::monitor::BackgroundStats;
use crate::network::Network;
use crate::routing::{Demand, RoutingTable};
use crate::sim::SimConfig;

/// How [`crate::routing::TrafficClass::Background`] demands are executed
/// ([`SimConfig::background`]). A pure performance knob for the foreground
/// class: foreground flows are packet-simulated either way.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BackgroundModel {
    /// Background demands are packet-simulated like everything else.
    #[default]
    Packet,
    /// Background demands become per-link fluid queues; foreground packets
    /// ride on the solved backlog timelines (the hybrid engine).
    Fluid,
}

/// One sample of a link's fluid backlog trajectory: from time `t` the
/// backlog is `backlog_bytes + slope_bytes_per_s · (τ − t)` until the next
/// point.
#[derive(Debug, Clone, Copy)]
struct TimelinePoint {
    t: f64,
    backlog_bytes: f64,
    slope_bytes_per_s: f64,
}

/// The solved fluid trajectories of one run: per-link piecewise-linear
/// backlog timelines, per-link fluid bytes carried (for utilisation
/// accounting), and the aggregate background statistics. Computed once,
/// immutably, before the packet engine dispatches — so every
/// `(mode, workers, window)` configuration reads identical backlogs and the
/// hybrid report stays bit-identical across execution modes.
#[derive(Debug, Clone)]
pub struct FluidOutcome {
    /// Per-link index into `timelines`, `u32::MAX` for links no background
    /// route touches (their backlog is identically zero).
    timeline_of: Vec<u32>,
    timelines: Vec<Vec<TimelinePoint>>,
    /// Fluid bytes carried per touched link.
    link_bytes: Vec<(u32, f64)>,
    stats: BackgroundStats,
}

impl FluidOutcome {
    /// Fluid backlog occupying `link` at time `t`, in bytes. Exactly `0.0`
    /// for links without background traffic — the guarantee that makes
    /// hybrid bit-identical to pure packet off the background routes.
    #[inline]
    pub(crate) fn backlog_bytes(&self, link: usize, t: f64) -> f64 {
        let ti = self.timeline_of[link];
        if ti == u32::MAX {
            return 0.0;
        }
        let timeline = &self.timelines[ti as usize];
        match timeline.partition_point(|p| p.t <= t) {
            0 => 0.0,
            i => {
                let p = timeline[i - 1];
                (p.backlog_bytes + p.slope_bytes_per_s * (t - p.t)).max(0.0)
            }
        }
    }

    /// Fluid bytes carried per touched link, credited into the link byte
    /// counters before utilisations are computed.
    pub(crate) fn link_bytes(&self) -> &[(u32, f64)] {
        &self.link_bytes
    }

    /// Aggregate background statistics.
    pub fn stats(&self) -> BackgroundStats {
        self.stats
    }

    /// Background flows modelled (0 = the fluid layer is inert).
    pub(crate) fn num_flows(&self) -> usize {
        self.stats.flows
    }
}

/// Solve the fluid trajectories for the background class of `demands` over
/// the installed `routes`. Deterministic: fixed sweep order, fixed event
/// order, pure `f64` arithmetic.
pub fn solve(
    network: &Network,
    routes: &RoutingTable,
    demands: &[Demand],
    config: &SimConfig,
) -> FluidOutcome {
    let links = network.links();
    let num_links = network.num_links();
    let duration = config.duration_s;

    // Background flows with a route and positive rate; everything else is
    // inert, mirroring the packet engine's partition rules.
    let flows: Vec<(usize, f64)> = demands
        .iter()
        .enumerate()
        .filter(|(k, d)| d.is_background() && d.amount_bps > 0.0 && !routes.route(*k).is_empty())
        .map(|(k, d)| (k, d.amount_bps))
        .collect();

    // Effective fluid capacity: configured rate minus offered foreground
    // load (both classes share the link's one FIFO queue; on average the
    // foreground occupies its offered share). Floored at 1 bps so a
    // foreground-saturated link still has a well-defined — glacial — drain
    // rate.
    let mut cap_bps: Vec<f64> = links.iter().map(|l| l.rate_bps).collect();
    for (k, d) in demands.iter().enumerate() {
        if !d.is_background() && d.amount_bps > 0.0 {
            for &l in routes.route(k) {
                cap_bps[l as usize] -= d.amount_bps;
            }
        }
    }
    for c in &mut cap_bps {
        *c = c.max(1.0);
    }

    // Links some background route touches, in first-touch order.
    let mut timeline_of = vec![u32::MAX; num_links];
    let mut touched: Vec<usize> = Vec::new();
    for &(k, _) in &flows {
        for &l in routes.route(k) {
            let l = l as usize;
            if timeline_of[l] == u32::MAX {
                timeline_of[l] = touched.len() as u32;
                touched.push(l);
            }
        }
    }

    // Per-flow in-rates at every hop (entry `route.len()` is the delivered
    // rate past the last hop), warm-started across events.
    let mut hop_rates: Vec<Vec<f64>> = flows
        .iter()
        .map(|&(k, _)| vec![0.0; routes.route(k).len() + 1])
        .collect();
    // Each flow's last share of its link's inflow while that inflow was
    // positive — the well-mixed queue's composition. When inflow stops but
    // backlog remains (sources stopped), the drain is attributed by these
    // frozen shares, so queued fluid still reaches its destinations and
    // offered = delivered + dropped holds.
    let mut frozen_share: Vec<Vec<f64>> = flows
        .iter()
        .map(|&(k, _)| vec![0.0; routes.route(k).len()])
        .collect();

    let mut backlog = vec![0.0f64; num_links];
    let mut total_in = vec![0.0f64; num_links];
    let mut total_out = vec![0.0f64; num_links];
    let mut slope = vec![0.0f64; num_links];
    let mut drop_rate = vec![0.0f64; num_links];
    let mut fluid_bytes = vec![0.0f64; num_links];
    let mut timelines: Vec<Vec<TimelinePoint>> = vec![Vec::new(); touched.len()];

    let mut t = 0.0f64;
    let mut rate_events = 0u64;
    let mut truncated = false;
    let mut delivered_bits = 0.0;
    let mut dropped_bits = 0.0;
    let mut backlog_integral = 0.0; // Σ_links ∫ backlog dt (byte-seconds)
    let mut peak_backlog = 0.0f64;

    while !flows.is_empty() {
        rate_events += 1;
        let source_active = t < duration;

        // Fixed point of the rate plumbing at time `t` (Gauss–Seidel; the
        // sweep uses freshly updated upstream rates, so acyclic routes
        // converge in one pass and shared bottlenecks in a few).
        for (fi, &(_, rate)) in flows.iter().enumerate() {
            hop_rates[fi][0] = if source_active { rate } else { 0.0 };
        }
        for _sweep in 0..100 {
            for &l in &touched {
                total_in[l] = 0.0;
            }
            for (fi, &(k, _)) in flows.iter().enumerate() {
                for (h, &l) in routes.route(k).iter().enumerate() {
                    total_in[l as usize] += hop_rates[fi][h];
                }
            }
            for &l in &touched {
                total_out[l] = if backlog[l] > 0.0 {
                    cap_bps[l]
                } else {
                    total_in[l].min(cap_bps[l])
                };
            }
            let mut max_delta = 0.0f64;
            for (fi, &(k, _)) in flows.iter().enumerate() {
                for (h, &l) in routes.route(k).iter().enumerate() {
                    let l = l as usize;
                    let share = if total_in[l] > 0.0 {
                        hop_rates[fi][h] / total_in[l]
                    } else {
                        frozen_share[fi][h]
                    };
                    let new = total_out[l] * share;
                    max_delta = max_delta.max((new - hop_rates[fi][h + 1]).abs());
                    hop_rates[fi][h + 1] = new;
                }
            }
            if max_delta <= 1.0 {
                break;
            }
        }
        for (fi, &(k, _)) in flows.iter().enumerate() {
            for (h, &l) in routes.route(k).iter().enumerate() {
                let l = l as usize;
                if total_in[l] > 0.0 {
                    frozen_share[fi][h] = hop_rates[fi][h] / total_in[l];
                }
            }
        }

        // Slopes and drop rates from the converged totals. A capped buffer
        // holds its backlog flat and sheds the inflow excess, matching the
        // packet model's drop-tail (`buffer_bytes <= 0` means unbounded).
        for &l in &touched {
            let buf = links[l].buffer_bytes;
            let capped = buf > 0.0 && backlog[l] >= buf && total_in[l] > cap_bps[l];
            if capped {
                slope[l] = 0.0;
                drop_rate[l] = total_in[l] - cap_bps[l];
            } else {
                slope[l] = total_in[l] - total_out[l];
                drop_rate[l] = 0.0;
            }
        }

        // Record the trajectory segment starting here.
        for (ti, &l) in touched.iter().enumerate() {
            timelines[ti].push(TimelinePoint {
                t,
                backlog_bytes: backlog[l],
                slope_bytes_per_s: slope[l] / 8.0,
            });
        }

        let total_backlog: f64 = touched.iter().map(|&l| backlog[l]).sum();
        peak_backlog = peak_backlog.max(total_backlog);

        // Drained and sources stopped: the trajectory is complete.
        if !source_active && total_backlog <= 1e-9 {
            break;
        }

        // Next rate-change event: sources stopping, a backlog emptying, or
        // a buffer capping — whichever comes first.
        let mut next = if source_active {
            duration
        } else {
            f64::INFINITY
        };
        for &l in &touched {
            let s = slope[l];
            if s < 0.0 && backlog[l] > 0.0 {
                next = next.min(t + backlog[l] * 8.0 / -s);
            } else if s > 0.0 {
                let buf = links[l].buffer_bytes;
                if buf > 0.0 && backlog[l] < buf {
                    next = next.min(t + (buf - backlog[l]) * 8.0 / s);
                }
            }
        }
        if !next.is_finite() || rate_events > 100_000 {
            // Defensive valve — sources stop at `duration`, so a finite
            // breakpoint always exists while they run, and backlog drains
            // monotonically afterwards. If it fires anyway, say so: every
            // statistic below under-counts the cut tail, and silent
            // truncation is indistinguishable from a clean finish.
            truncated = true;
            break;
        }
        let next = next.max(t + 1e-12);

        // Advance the piecewise-linear state across [t, next).
        let dt = next - t;
        for &l in &touched {
            let buf = links[l].buffer_bytes;
            let cap = if buf > 0.0 { buf } else { f64::INFINITY };
            let mut nb = (backlog[l] + slope[l] / 8.0 * dt).clamp(0.0, cap);
            if nb < 1e-9 {
                nb = 0.0;
            }
            backlog_integral += 0.5 * (backlog[l] + nb) * dt;
            fluid_bytes[l] += total_out[l] * dt / 8.0;
            dropped_bits += drop_rate[l] * dt;
            backlog[l] = nb;
        }
        for (fi, &(k, _)) in flows.iter().enumerate() {
            delivered_bits += hop_rates[fi][routes.route(k).len()] * dt;
        }
        t = next;
    }

    let offered_bits: f64 = flows.iter().map(|&(_, rate)| rate * duration).sum();
    let packet_equivalent_events: f64 = flows
        .iter()
        .map(|&(k, rate)| {
            let spec = FlowSpec {
                src: demands[k].src,
                dst: demands[k].dst,
                rate_bps: rate,
                packet_bytes: config.packet_bytes,
            };
            // One event per hop plus the delivery event, per packet.
            spec.expected_packets(duration) * (routes.route(k).len() + 1) as f64
        })
        .sum();
    let horizon = t.max(duration);
    let stats = BackgroundStats {
        flows: flows.len(),
        offered_bits,
        delivered_bits,
        dropped_bits,
        mean_throughput_bps: if duration > 0.0 {
            delivered_bits / duration
        } else {
            0.0
        },
        mean_backlog_bytes: if horizon > 0.0 {
            backlog_integral / horizon
        } else {
            0.0
        },
        peak_backlog_bytes: peak_backlog,
        rate_events,
        packet_equivalent_events,
        truncated,
        truncated_horizon_s: if truncated {
            (duration - t).max(0.0)
        } else {
            0.0
        },
    };

    FluidOutcome {
        timeline_of,
        timelines,
        link_bytes: touched
            .iter()
            .map(|&l| (l as u32, fluid_bytes[l]))
            .collect(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::LinkSpec;
    use crate::routing::compute_routes;

    fn single_link_inputs(rate_bps: f64, buffer_bytes: f64) -> (Network, SimConfig) {
        let mut net = Network::new(2);
        net.add_link(LinkSpec {
            from: 0,
            to: 1,
            rate_bps,
            propagation_s: 0.010,
            buffer_bytes,
        });
        let config = SimConfig {
            duration_s: 1.0,
            ..SimConfig::default()
        };
        (net, config)
    }

    fn solve_for(net: &Network, demands: &[Demand], config: &SimConfig) -> FluidOutcome {
        let routes = compute_routes(net, demands, config.routing);
        solve(net, &routes, demands, config)
    }

    #[test]
    fn overloaded_link_backlog_matches_closed_form() {
        // 15 Mbps offered into 10 Mbps for 1 s: backlog grows at 5 Mbps to
        // 625 kB, then drains at 10 Mbps in 0.5 s. Everything delivered.
        let (net, config) = single_link_inputs(10e6, 1e9);
        let demands = vec![Demand::background(0, 1, 15e6)];
        let out = solve_for(&net, &demands, &config);
        assert_eq!(out.num_flows(), 1);
        let s = out.stats();
        assert!((s.peak_backlog_bytes - 625_000.0).abs() < 1.0, "{s:?}");
        assert!((out.backlog_bytes(0, 0.5) - 312_500.0).abs() < 1.0);
        assert!((out.backlog_bytes(0, 1.0) - 625_000.0).abs() < 1.0);
        // Half drained a quarter second after sources stop.
        assert!((out.backlog_bytes(0, 1.25) - 312_500.0).abs() < 1.0);
        assert_eq!(out.backlog_bytes(0, 2.0), 0.0);
        assert!((s.offered_bits - 15e6).abs() < 1.0);
        assert!((s.delivered_bits - 15e6).abs() < 100.0, "{s:?}");
        assert_eq!(s.dropped_bits, 0.0);
        assert!(s.rate_events < 10, "{}", s.rate_events);
        assert!(s.packet_equivalent_events > 1000.0);
    }

    #[test]
    fn capped_buffer_drops_the_excess() {
        // Same overload with a 20 kB drop-tail: caps after
        // 20 kB · 8 / 5 Mbps = 32 ms, then drops 5 Mbps until the sources
        // stop.
        let (net, config) = single_link_inputs(10e6, 20_000.0);
        let demands = vec![Demand::background(0, 1, 15e6)];
        let out = solve_for(&net, &demands, &config);
        let s = out.stats();
        assert!((s.peak_backlog_bytes - 20_000.0).abs() < 1.0);
        let expected_dropped = 5e6 * (1.0 - 0.032);
        assert!(
            (s.dropped_bits - expected_dropped).abs() < 1e3,
            "dropped {} vs {expected_dropped}",
            s.dropped_bits
        );
        assert!((s.offered_bits - (s.delivered_bits + s.dropped_bits)).abs() < 1e3);
    }

    #[test]
    fn underloaded_link_never_queues() {
        let (net, config) = single_link_inputs(10e6, 1e9);
        let demands = vec![Demand::background(0, 1, 4e6)];
        let out = solve_for(&net, &demands, &config);
        let s = out.stats();
        assert_eq!(s.peak_backlog_bytes, 0.0);
        assert_eq!(out.backlog_bytes(0, 0.5), 0.0);
        assert!((s.delivered_bits - 4e6).abs() < 1.0);
        assert!((s.mean_throughput_bps - 4e6).abs() < 1.0);
    }

    #[test]
    fn foreground_load_reduces_fluid_capacity() {
        // 6 Mbps foreground + 8 Mbps background into 10 Mbps: the fluid
        // sees 4 Mbps effective capacity, so its backlog grows at 4 Mbps.
        let (net, config) = single_link_inputs(10e6, 1e9);
        let demands = vec![Demand::new(0, 1, 6e6), Demand::background(0, 1, 8e6)];
        let out = solve_for(&net, &demands, &config);
        let growth_bps = out.backlog_bytes(0, 1.0) * 8.0;
        assert!((growth_bps - 4e6).abs() < 1e3, "growth {growth_bps}");
    }

    #[test]
    fn shared_bottleneck_splits_by_inflow_share() {
        // Two background flows (6 and 2 Mbps) share a 4 Mbps bottleneck:
        // FIFO fluid shares the 4 Mbps as 3:1.
        let mut net = Network::new(4);
        for (from, to, rate) in [(0usize, 2usize, 100e6), (1, 2, 100e6), (2, 3, 4e6)] {
            net.add_link(LinkSpec {
                from,
                to,
                rate_bps: rate,
                propagation_s: 0.001,
                buffer_bytes: 1e9,
            });
        }
        let demands = vec![Demand::background(0, 3, 6e6), Demand::background(1, 3, 2e6)];
        let config = SimConfig {
            duration_s: 1.0,
            ..SimConfig::default()
        };
        let out = solve_for(&net, &demands, &config);
        let s = out.stats();
        // Delivered splits 3:1 while the queue builds; both flows keep
        // draining after the stop, so total delivered approaches offered.
        assert!(s.delivered_bits > 4e6, "{s:?}");
        assert!(s.peak_backlog_bytes > 0.0);
    }

    #[test]
    fn untouched_links_report_zero_backlog() {
        let (net, config) = single_link_inputs(10e6, 1e9);
        let demands = vec![Demand::background(0, 1, 15e6)];
        let out = solve_for(&net, &demands, &config);
        // Only link 0 exists; a hypothetical later link index would be
        // out of range, so probe the timeline map contract via link 0 at
        // negative time instead.
        assert_eq!(out.backlog_bytes(0, -1.0), 0.0);
    }

    #[test]
    fn well_formed_runs_are_never_truncated() {
        let (net, config) = single_link_inputs(10e6, 20_000.0);
        let demands = vec![Demand::background(0, 1, 15e6)];
        let s = solve_for(&net, &demands, &config).stats();
        assert!(!s.truncated, "{s:?}");
        assert_eq!(s.truncated_horizon_s, 0.0);
    }

    #[test]
    fn safety_valve_records_truncation_instead_of_stopping_silently() {
        // An infinite-rate source into an unbounded buffer leaves an
        // infinite backlog when the sources stop: no finite breakpoint
        // exists, the valve fires, and — the regression — the stats must
        // say so rather than reading like a clean finish.
        let (net, config) = single_link_inputs(10e6, 0.0);
        let demands = vec![Demand::background(0, 1, f64::INFINITY)];
        let s = solve_for(&net, &demands, &config).stats();
        assert!(s.truncated, "{s:?}");
    }

    #[test]
    fn no_background_demands_is_inert() {
        let (net, config) = single_link_inputs(10e6, 1e9);
        let demands = vec![Demand::new(0, 1, 15e6)];
        let out = solve_for(&net, &demands, &config);
        assert_eq!(out.num_flows(), 0);
        assert_eq!(out.stats().rate_events, 0);
        assert_eq!(out.backlog_bytes(0, 0.5), 0.0);
        assert!(out.link_bytes().is_empty());
    }
}
