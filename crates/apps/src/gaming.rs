//! Online gaming latency models (§7.1, Fig. 12).
//!
//! Two client models:
//!
//! * **Fat client** — the game runs locally and only exchanges small state
//!   updates with the server; its interaction latency is simply the network
//!   round trip, so cISP's 3–4× RTT reduction applies directly.
//! * **Thin client** — every frame is rendered server-side and streamed; the
//!   frame time (input → observed output) is one RTT plus processing. With a
//!   low-latency *augmentation*, the server speculates on the possible next
//!   game states, pre-sends the corresponding frames over the conventional
//!   (high-bandwidth) path, and then sends only a tiny "which branch
//!   happened" message over the low-latency path — so on a speculation hit
//!   the frame time collapses to the low-latency RTT, and on a miss it falls
//!   back to the conventional RTT (Outatime-style speculation, \[46\]).

use serde::{Deserialize, Serialize};

/// Parameters of the thin-client streaming model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GameModel {
    /// Client+server processing and rendering overhead per frame, ms.
    pub processing_ms: f64,
    /// Probability that the server's speculation covers the user's input
    /// (the toy Pacman client of the paper speculates on all four moves, so
    /// its hit rate is ~1; richer games are lower).
    pub speculation_hit_rate: f64,
    /// Ratio of the low-latency network's RTT to the conventional RTT
    /// (paper: 1/3).
    pub lowlat_rtt_fraction: f64,
    /// Bandwidth overhead factor of speculative streaming (2–4.5× in prior
    /// work); reported, not used in the latency model.
    pub bandwidth_overhead: f64,
}

impl Default for GameModel {
    fn default() -> Self {
        Self {
            processing_ms: 40.0,
            speculation_hit_rate: 1.0,
            lowlat_rtt_fraction: 1.0 / 3.0,
            bandwidth_overhead: 3.0,
        }
    }
}

/// Thin-client frame time over conventional connectivity only.
pub fn frame_time_conventional_ms(model: &GameModel, conventional_rtt_ms: f64) -> f64 {
    assert!(conventional_rtt_ms >= 0.0);
    model.processing_ms + conventional_rtt_ms
}

/// Thin-client frame time with the low-latency augmentation: speculation
/// hits pay only the low-latency RTT, misses fall back to the conventional
/// RTT (expected value).
pub fn frame_time_ms(model: &GameModel, conventional_rtt_ms: f64) -> f64 {
    assert!(conventional_rtt_ms >= 0.0);
    assert!((0.0..=1.0).contains(&model.speculation_hit_rate));
    let lowlat_rtt = conventional_rtt_ms * model.lowlat_rtt_fraction;
    let hit = model.processing_ms + lowlat_rtt;
    let miss = model.processing_ms + conventional_rtt_ms + lowlat_rtt;
    model.speculation_hit_rate * hit + (1.0 - model.speculation_hit_rate) * miss
}

/// Fat-client interaction latency: the RTT itself, reduced by the
/// low-latency network's factor when it is used.
pub fn fat_client_latency_ms(conventional_rtt_ms: f64, use_lowlat: bool, fraction: f64) -> f64 {
    assert!(conventional_rtt_ms >= 0.0);
    if use_lowlat {
        conventional_rtt_ms * fraction
    } else {
        conventional_rtt_ms
    }
}

/// Frame-time statistics over a *distribution* of RTTs — the form the
/// end-to-end pipeline feeds this model: per-pair RTTs measured by the
/// packet simulator (propagation + serialization + queueing) instead of a
/// single synthetic RTT.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FrameTimeStats {
    /// Mean thin-client frame time over conventional connectivity, ms.
    pub mean_conventional_ms: f64,
    /// Mean thin-client frame time with the low-latency augmentation, ms.
    pub mean_augmented_ms: f64,
    /// Worst-pair conventional frame time, ms.
    pub worst_conventional_ms: f64,
    /// Worst-pair augmented frame time, ms.
    pub worst_augmented_ms: f64,
    /// Fraction of the RTT samples whose *augmented* frame time meets the
    /// paper's ~60 ms interactivity threshold while the conventional one
    /// does not — the pairs for which the low-latency network changes the
    /// experienced category.
    pub newly_playable_fraction: f64,
}

/// The interactivity threshold (ms) used for
/// [`FrameTimeStats::newly_playable_fraction`] — the paper's rule of thumb
/// that frame times beyond ~60 ms degrade fast-action games.
pub const PLAYABLE_FRAME_MS: f64 = 60.0;

/// Evaluate the thin-client model over a set of measured RTT samples
/// (milliseconds), e.g. the simulated per-pair RTTs of
/// `cisp_core::evaluate`. Panics on an empty sample set.
pub fn frame_time_distribution(model: &GameModel, rtt_ms_samples: &[f64]) -> FrameTimeStats {
    assert!(!rtt_ms_samples.is_empty(), "need at least one RTT sample");
    let mut sum_conv = 0.0;
    let mut sum_aug = 0.0;
    let mut worst_conv = 0.0f64;
    let mut worst_aug = 0.0f64;
    let mut newly_playable = 0usize;
    for &rtt in rtt_ms_samples {
        let conv = frame_time_conventional_ms(model, rtt);
        let aug = frame_time_ms(model, rtt);
        sum_conv += conv;
        sum_aug += aug;
        worst_conv = worst_conv.max(conv);
        worst_aug = worst_aug.max(aug);
        if aug <= PLAYABLE_FRAME_MS && conv > PLAYABLE_FRAME_MS {
            newly_playable += 1;
        }
    }
    let n = rtt_ms_samples.len() as f64;
    FrameTimeStats {
        mean_conventional_ms: sum_conv / n,
        mean_augmented_ms: sum_aug / n,
        worst_conventional_ms: worst_conv,
        worst_augmented_ms: worst_aug,
        newly_playable_fraction: newly_playable as f64 / n,
    }
}

/// The Fig. 12 sweep: frame times with and without the augmentation as the
/// conventional RTT grows. Returns `(rtt_ms, conventional, augmented)` rows.
pub fn frame_time_sweep(model: &GameModel, max_rtt_ms: f64, step_ms: f64) -> Vec<(f64, f64, f64)> {
    assert!(max_rtt_ms > 0.0 && step_ms > 0.0);
    let mut rows = Vec::new();
    let mut rtt = 0.0;
    while rtt <= max_rtt_ms + 1e-9 {
        rows.push((
            rtt,
            frame_time_conventional_ms(model, rtt),
            frame_time_ms(model, rtt),
        ));
        rtt += step_ms;
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn augmentation_always_helps_with_perfect_speculation() {
        let model = GameModel::default();
        for rtt in [10.0, 50.0, 100.0, 200.0, 300.0] {
            let conventional = frame_time_conventional_ms(&model, rtt);
            let augmented = frame_time_ms(&model, rtt);
            assert!(augmented < conventional, "rtt {rtt}");
            // The saving is the 2/3 of the RTT that speculation removes.
            assert!((conventional - augmented - rtt * 2.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_rtt_frame_time_is_processing_only() {
        let model = GameModel::default();
        assert_eq!(frame_time_ms(&model, 0.0), model.processing_ms);
        assert_eq!(frame_time_conventional_ms(&model, 0.0), model.processing_ms);
    }

    #[test]
    fn imperfect_speculation_blends_towards_conventional() {
        let perfect = GameModel::default();
        let imperfect = GameModel {
            speculation_hit_rate: 0.5,
            ..GameModel::default()
        };
        let rtt = 120.0;
        let t_perfect = frame_time_ms(&perfect, rtt);
        let t_imperfect = frame_time_ms(&imperfect, rtt);
        let t_conventional = frame_time_conventional_ms(&perfect, rtt);
        assert!(t_perfect < t_imperfect);
        // A miss costs even more than conventional-only (wasted speculation
        // round), so the blend may exceed it slightly at 50 % hit rate; it
        // must still be finite and ordered sensibly.
        assert!(t_imperfect < t_conventional + rtt);
    }

    #[test]
    fn fat_client_reduction_is_direct() {
        assert_eq!(fat_client_latency_ms(90.0, false, 1.0 / 3.0), 90.0);
        assert!((fat_client_latency_ms(90.0, true, 1.0 / 3.0) - 30.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_covers_the_fig12_range_and_grows_linearly() {
        let rows = frame_time_sweep(&GameModel::default(), 300.0, 25.0);
        assert_eq!(rows.len(), 13);
        assert_eq!(rows[0].0, 0.0);
        assert!((rows.last().unwrap().0 - 300.0).abs() < 1e-9);
        // Conventional frame time grows ~3× faster with RTT than augmented.
        let conv_slope = (rows[12].1 - rows[0].1) / 300.0;
        let aug_slope = (rows[12].2 - rows[0].2) / 300.0;
        assert!((conv_slope / aug_slope - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn negative_rtt_rejected() {
        frame_time_ms(&GameModel::default(), -1.0);
    }

    #[test]
    fn distribution_stats_aggregate_per_sample_models() {
        let model = GameModel::default();
        // One comfortably playable pair (10 ms), one that only the
        // augmentation rescues (45 ms: conventional 85 ms, augmented 55 ms),
        // one hopeless pair (300 ms).
        let rtts = [10.0, 45.0, 300.0];
        let stats = frame_time_distribution(&model, &rtts);
        assert!(stats.mean_augmented_ms < stats.mean_conventional_ms);
        assert!(stats.worst_augmented_ms < stats.worst_conventional_ms);
        assert!((stats.worst_conventional_ms - 340.0).abs() < 1e-9);
        // Exactly the 45 ms pair flips category: conventional 85 ms,
        // augmented 55 ms.
        assert!((stats.newly_playable_fraction - 1.0 / 3.0).abs() < 1e-12);
        // Mean matches the hand-rolled average.
        let conv_mean = (50.0 + 85.0 + 340.0) / 3.0;
        assert!((stats.mean_conventional_ms - conv_mean).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn empty_distribution_rejected() {
        frame_time_distribution(&GameModel::default(), &[]);
    }
}
