//! Step 2: topology design under a tower budget (§3.2).
//!
//! Given the candidate site-to-site microwave links (with their
//! latency-equivalent lengths `m_ij` and tower costs `c_ij`), the
//! always-available fiber distances `o_ij`, and a traffic matrix `h_ij`, pick
//! the subset of links to build within a tower budget `B` so that the
//! traffic-weighted mean stretch is minimised.
//!
//! Two design procedures are provided:
//!
//! * [`Designer::greedy`] — the scalable greedy: repeatedly add the candidate
//!   link that lowers mean stretch the most (the paper's pruning heuristic),
//!   with candidate scores maintained incrementally so that only a handful
//!   of candidates are exactly re-scored per iteration.
//! * [`Designer::cisp`] — the full cISP heuristic: run the greedy with an
//!   inflated (2×) budget to identify a candidate pool, then re-select within
//!   the real budget and polish with budget-respecting swap local search.
//!   (The paper hands the pruned pool to Gurobi; our pool-restricted
//!   selection plus swaps plays that role, and [`crate::ilp`] provides the
//!   exact formulation for the small instances where it is tractable.)
//!
//! Both procedures start by applying the paper's "fiber oracle" elimination:
//! a candidate MW link whose length is no better than the fiber distance
//! between its endpoints can never improve any route and is dropped outright.
//! This is exact, not an approximation.
//!
//! ## The incremental delta-scoring engine
//!
//! Candidate scoring — one O(n²)
//! [`mean_stretch_with_link`](crate::topology::mean_stretch_with_link) sweep
//! per candidate — dominates design time. The greedy (the private `engine`
//! module) keeps a cached predicted stretch per pool candidate and, after each
//! accepted link, repairs the caches from the link's improved-pair delta
//! instead of re-sweeping: candidates whose endpoints the accepted link did
//! not touch get an exact O(|improved|) repair, touched candidates are
//! re-scored with the exact kernel, and the winning candidate of every round
//! is always re-scored exactly before acceptance — so it selects what
//! re-scoring every candidate every round selects
//! (`tests/matrix_engine_parity.rs` keeps that naive greedy as the oracle).
//! The cached predictions need every traffic pair reachable over fiber; on
//! an input where one is not, the greedy falls to a plain
//! rebuild-and-rescore loop on the scalar kernel, each round's batch of
//! scores fanned out through [`cisp_netsim::jobs::drain_jobs`].
//!
//! Scoring parallelism in the greedy comes from *persistent worker shards*
//! (`engine::ShardPool`): one worker thread per core
//! ([`cisp_netsim::jobs::resolve_workers`]), spawned once per greedy run,
//! each owning a stable contiguous slice of the candidate pool across all
//! its rounds. Every shard count selects bit-identical designs (the shard
//! math is shared and reductions are order-fixed).
//!
//! ## The swap polish
//!
//! A pass of [`Designer::cisp`]'s polish asks, for every selected link `out`
//! and every unselected pool link `in` the budget allows, what the stretch
//! of `S∖out ∪ in` would be, and applies the best strictly improving swap.
//! Two mechanisms keep that from being `|S|²` matrix sweeps plus
//! `|S|·|pool|` kernel calls; both run on the calling thread.
//!
//! * **Leave-one-out closures.** The matrix of `S∖out` for every `out` comes
//!   from [`cisp_graph::leave_out_closures`] over the sets `{out}` — one-link
//!   sweeps, `|S|·log₂|S|` of them where a rebuild per `out` costs `|S|²` —
//!   visited in `selected` order, which is the pass's tie-break order.
//!   [`SwapPolishStats::improve_sweeps`] counts the sweeps.
//! * **A monotone lower bound.** Adding links only shrinks distances, so
//!   `stretch(S ∪ in)`, scored once per pass against the full selection's
//!   matrix, is a lower bound on `stretch(S∖out ∪ in)` for every `out`. A
//!   trial whose bound cannot pass the acceptance test is decided without
//!   scoring it. [`SwapPolishStats::trials_bounded_out`] against
//!   [`SwapPolishStats::trials_feasible`] is the share decided that way.
//!
//! The swap chosen is the one the plain "rebuild per `out`, score every
//! trial" pass would choose (`tests/matrix_engine_parity.rs` keeps that pass
//! as the oracle), and the reported stretch and topology are re-derived from
//! a freshly built topology after every applied swap.

use std::sync::RwLock;
use std::thread;
use std::time::Instant;

use cisp_geo::GeoPoint;
use cisp_graph::{improve_with_link_tracked, leave_out_closures, DistMatrix, ImprovedPairs};
use cisp_netsim::jobs::{drain_jobs, resolve_workers};
use serde::{Deserialize, Serialize};

use crate::engine::{exact_score, PoolScorer, RoundUpdate, ScoreContext, ShardPool};
use crate::links::CandidateLink;
use crate::topology::{HybridTopology, ScoringWeights};

/// How the greedy scores a candidate link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GreedyScore {
    /// Absolute reduction in mean stretch (the paper's rule).
    AbsoluteGain,
    /// Reduction in mean stretch per tower of cost (cost-aware variant).
    GainPerTower,
}

/// Configuration of the design procedures.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DesignConfig {
    /// Scoring rule for the greedy.
    pub score: GreedyScore,
    /// Budget-inflation factor for the candidate-pruning phase of the cISP
    /// heuristic (paper: 2×).
    pub pruning_budget_factor: f64,
    /// Maximum number of improving swap passes in the polishing phase.
    pub max_swap_passes: usize,
    /// Minimum mean-stretch gain for a link to be worth adding.
    pub min_gain: f64,
}

impl Default for DesignConfig {
    fn default() -> Self {
        Self {
            score: GreedyScore::AbsoluteGain,
            pruning_budget_factor: 2.0,
            max_swap_passes: 3,
            min_gain: 1e-9,
        }
    }
}

/// One step of the greedy build-out: the cumulative tower cost and the mean
/// stretch after adding the step's link. Recording every step lets a single
/// design run produce the whole stretch-vs-budget curve of Fig. 4(a).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignStep {
    /// Index into the candidate list of the link added at this step.
    pub candidate_index: usize,
    /// Cumulative tower cost after this step.
    pub cumulative_towers: usize,
    /// Traffic-weighted mean stretch after this step.
    pub mean_stretch: f64,
}

/// The inputs of the design problem.
#[derive(Debug, Clone)]
pub struct DesignInput {
    /// Site locations.
    pub sites: Vec<GeoPoint>,
    /// Traffic weights `h_ij` (symmetric, zero diagonal).
    pub traffic: DistMatrix,
    /// Latency-equivalent fiber distances `o_ij` (km, symmetric).
    pub fiber_km: DistMatrix,
    /// Candidate direct MW links from step 1.
    pub candidates: Vec<CandidateLink>,
}

impl DesignInput {
    /// A fresh topology with no MW links built.
    pub fn empty_topology(&self) -> HybridTopology {
        HybridTopology::new(
            self.sites.clone(),
            self.traffic.clone(),
            self.fiber_km.clone(),
        )
    }

    /// Indices of candidates that survive the fiber-oracle elimination: the
    /// MW link must be strictly shorter (latency-equivalent) than the fiber
    /// distance between its endpoints.
    pub fn useful_candidates(&self) -> Vec<usize> {
        self.candidates
            .iter()
            .enumerate()
            .filter(|(_, l)| l.mw_length_km < self.fiber_km.get(l.site_a, l.site_b))
            .map(|(i, _)| i)
            .collect()
    }
}

/// The result of a design run.
#[derive(Debug, Clone)]
pub struct DesignOutcome {
    /// Indices (into the input candidate list) of the links selected.
    pub selected: Vec<usize>,
    /// The resulting topology with the selected links built.
    pub topology: HybridTopology,
    /// Total tower cost of the selected links.
    pub total_towers: usize,
    /// Final traffic-weighted mean stretch.
    pub mean_stretch: f64,
    /// The greedy build-out history (empty for non-greedy methods).
    pub history: Vec<DesignStep>,
}

/// Wall-clock and work counters of one [`Designer::cisp_profiled`] run's swap
/// polish, summed over its passes.
/// `trials_scored + trials_bounded_out == trials_feasible`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SwapPolishStats {
    /// Wall-clock of the polish: every pass, the topology rebuilds after
    /// applied swaps included.
    pub wall_ms: f64,
    /// Passes run, the last non-improving one included.
    pub passes: u64,
    /// Swaps applied (at most one per pass).
    pub swaps_applied: u64,
    /// Selected links whose removal was tried.
    pub out_links: u64,
    /// `(out, in)` trials the tower budget allows.
    pub trials_feasible: u64,
    /// Of those, trials scored with the exact kernel.
    pub trials_scored: u64,
    /// Of those, trials decided by the lower bound without scoring.
    pub trials_bounded_out: u64,
    /// One-link matrix sweeps made to build the leave-one-out matrices (the
    /// topology rebuild after an applied swap is not counted).
    pub improve_sweeps: u64,
}

/// The topology designer.
pub struct Designer<'a> {
    input: &'a DesignInput,
    config: DesignConfig,
}

impl<'a> Designer<'a> {
    /// Create a designer with the default configuration.
    pub fn new(input: &'a DesignInput) -> Self {
        Self::with_config(input, DesignConfig::default())
    }

    /// Create a designer with an explicit configuration.
    pub fn with_config(input: &'a DesignInput, config: DesignConfig) -> Self {
        assert!(config.pruning_budget_factor >= 1.0);
        Self { input, config }
    }

    fn score(&self, gain: f64, cost: usize) -> f64 {
        match self.config.score {
            GreedyScore::AbsoluteGain => gain,
            GreedyScore::GainPerTower => gain / (cost.max(1) as f64),
        }
    }

    /// Greedy design over an explicit candidate pool (indices into the input
    /// candidate list), one scoring shard per core.
    fn greedy_over(&self, pool: &[usize], budget_towers: f64) -> DesignOutcome {
        self.greedy_sharded(pool, budget_towers, resolve_workers(0))
    }

    /// The incremental delta-scoring greedy (the `engine` module) over
    /// `shards` persistent scoring shards, clamped to the pool size; one
    /// shard runs inline on the calling thread. The shard count never changes
    /// the design.
    ///
    /// Every pool candidate's predicted stretch is cached; after each
    /// accepted link the caches are repaired from the link's improved-pair
    /// set by the shards. Selection re-scores the provisional winner with
    /// the exact kernel and accepts only once the exact value is still the
    /// best cached priority, so the chosen sequence is the one re-scoring
    /// every candidate every round would choose while almost all O(n²)
    /// sweeps disappear.
    fn greedy_sharded(&self, pool: &[usize], budget_towers: f64, shards: usize) -> DesignOutcome {
        let input = self.input;
        let base = input.empty_topology();
        let sw = ScoringWeights::compute(
            base.effective_matrix(),
            base.geodesic_matrix(),
            base.traffic(),
        );
        let Some(mut sw) = sw else {
            // Non-finite distances on scored pairs (or no traffic at all):
            // the delta decomposition does not apply.
            return self.greedy_rescore(pool, budget_towers);
        };
        // Arms the O(1) per-row metric skip of the repair sweeps when the
        // starting matrix is verified metric (distances only shrink, so one
        // check covers every round). No-op on non-metric inputs.
        sw.enable_gain_bounds(base.effective_matrix());
        let effective = RwLock::new(input.fiber_km.clone());
        let ctx = ScoreContext {
            candidates: &input.candidates,
            pool,
            geodesic: base.geodesic_matrix(),
            traffic: base.traffic(),
            matrix: &effective,
            sw: &sw,
        };
        let shards = shards.clamp(1, pool.len().max(1));
        let selected = if shards == 1 {
            let mut scorer = PoolScorer::inline(pool.len());
            self.run_incremental(&ctx, &mut scorer, budget_towers)
        } else {
            thread::scope(|scope| {
                let mut scorer = PoolScorer::Sharded(ShardPool::spawn(scope, &ctx, shards));
                self.run_incremental(&ctx, &mut scorer, budget_towers)
            })
        };

        // Replay the selection through a fresh topology so the returned
        // state (and its reported stretch) is what `add_mw_link` builds.
        let mut topology = input.empty_topology();
        let mut history = Vec::with_capacity(selected.len());
        let mut total_towers = 0usize;
        for &idx in &selected {
            let link = input.candidates[idx].clone();
            total_towers += link.tower_count;
            topology.add_mw_link(link);
            history.push(DesignStep {
                candidate_index: idx,
                cumulative_towers: total_towers,
                mean_stretch: topology.mean_stretch(),
            });
        }
        DesignOutcome {
            selected,
            mean_stretch: topology.mean_stretch(),
            total_towers,
            topology,
            history,
        }
    }

    /// The incremental greedy's selection loop: returns the accepted
    /// candidate indices in acceptance order. `ctx.matrix` ends up holding
    /// the final effective matrix.
    fn run_incremental(
        &self,
        ctx: &ScoreContext,
        scorer: &mut PoolScorer,
        budget_towers: f64,
    ) -> Vec<usize> {
        let pool = ctx.pool;
        let budget = budget_towers.floor() as usize;
        let mut values = vec![f64::INFINITY; pool.len()];
        scorer.init(ctx, &mut values);
        let mut removed = vec![false; pool.len()];
        let mut refreshed = vec![false; pool.len()];
        let stretch_of = |matrix: &DistMatrix| {
            crate::topology::weighted_mean_stretch(matrix, ctx.geodesic, ctx.traffic)
        };
        let mut current_stretch = stretch_of(&ctx.matrix.read().unwrap());
        let mut selected = Vec::new();
        let mut total_towers = 0usize;
        let mut improved = ImprovedPairs::new(ctx.geodesic.n());

        loop {
            // Select this round's link: repeatedly take the best cached
            // priority among affordable candidates, re-score it with the
            // exact kernel, and accept once the winner's value is exact.
            refreshed.fill(false);
            let mut overrides: Vec<(usize, f64)> = Vec::new();
            let mut chosen: Option<usize> = None;
            loop {
                let mut best: Option<(f64, usize)> = None;
                for pos in 0..pool.len() {
                    if removed[pos] {
                        continue;
                    }
                    let cost = self.input.candidates[pool[pos]].tower_count;
                    if total_towers + cost > budget {
                        continue;
                    }
                    let priority = self.score(current_stretch - values[pos], cost);
                    if priority <= self.config.min_gain {
                        continue;
                    }
                    // Strict `>` keeps the lowest position on ties: the
                    // greedy's deterministic tie-break.
                    if best.is_none() || priority > best.unwrap().0 {
                        best = Some((priority, pos));
                    }
                }
                let Some((_, pos)) = best else { break };
                if refreshed[pos] {
                    // Exact value and still the best priority: accept (the
                    // priority filter above already guarantees the gain
                    // clears `min_gain`).
                    chosen = Some(pos);
                    break;
                }
                // Same kernel as the shards' exact rescoring, so the
                // winner's refreshed value is bit-identical to what a shard
                // fallback would have produced.
                let exact = ctx.exact(&ctx.matrix.read().unwrap(), pos);
                values[pos] = exact;
                refreshed[pos] = true;
                overrides.push((pos, exact));
            }

            let Some(pos) = chosen else { break };
            let link = self.input.candidates[pool[pos]].clone();
            total_towers += link.tower_count;
            {
                let mut matrix = ctx.matrix.write().unwrap();
                improve_with_link_tracked(
                    &mut matrix,
                    link.site_a,
                    link.site_b,
                    link.mw_length_km,
                    &mut improved,
                );
            }
            current_stretch = stretch_of(&ctx.matrix.read().unwrap());
            selected.push(pool[pos]);
            removed[pos] = true;
            let update = RoundUpdate::new(
                std::mem::replace(&mut improved, ImprovedPairs::new(ctx.geodesic.n())),
                Some(pos),
                overrides,
                &ctx.matrix.read().unwrap(),
                ctx.sw,
            );
            scorer.apply(ctx, update, &mut values);
        }
        selected
    }

    /// What the greedy falls to when fiber leaves a traffic pair unreachable
    /// ([`ScoringWeights::compute`] returns `None`): every surviving
    /// affordable candidate re-scored with the scalar kernel — whose per-pair
    /// finiteness test handles pairs that become reachable mid-run — after
    /// every accepted link, and the true argmax taken (strict `>` keeps the
    /// earliest pool position on ties).
    fn greedy_rescore(&self, pool: &[usize], budget_towers: f64) -> DesignOutcome {
        let mut topology = self.input.empty_topology();
        let mut selected = Vec::new();
        let mut history = Vec::new();
        let mut total_towers = 0usize;
        let mut current_stretch = topology.mean_stretch();
        let budget = budget_towers.floor() as usize;
        // Surviving candidates, in pool order (the tie-break order).
        let mut remaining: Vec<usize> = pool.to_vec();

        loop {
            let affordable: Vec<usize> = remaining
                .iter()
                .copied()
                .filter(|&idx| total_towers + self.input.candidates[idx].tower_count <= budget)
                .collect();
            // One batch of O(n²) scoring sweeps, fanned out across cores.
            let (scores, _) = drain_jobs(
                affordable.len(),
                resolve_workers(0),
                || (),
                |_, k| {
                    exact_score(
                        topology.effective_matrix(),
                        topology.geodesic_matrix(),
                        topology.traffic(),
                        None,
                        &self.input.candidates[affordable[k]],
                    )
                },
            );
            let mut best: Option<(f64, usize)> = None;
            for (&idx, &with_link) in affordable.iter().zip(&scores) {
                let score = self.score(
                    current_stretch - with_link,
                    self.input.candidates[idx].tower_count,
                );
                if score > self.config.min_gain && (best.is_none() || score > best.unwrap().0) {
                    best = Some((score, idx));
                }
            }
            let Some((_, idx)) = best else { break };
            let link = self.input.candidates[idx].clone();
            total_towers += link.tower_count;
            topology.add_mw_link(link);
            current_stretch = topology.mean_stretch();
            selected.push(idx);
            history.push(DesignStep {
                candidate_index: idx,
                cumulative_towers: total_towers,
                mean_stretch: current_stretch,
            });
            remaining.retain(|&i| i != idx);
        }

        DesignOutcome {
            selected,
            mean_stretch: topology.mean_stretch(),
            total_towers,
            topology,
            history,
        }
    }

    /// Pure greedy design at the given tower budget (all useful candidates).
    pub fn greedy(&self, budget_towers: f64) -> DesignOutcome {
        assert!(budget_towers >= 0.0);
        self.greedy_over(&self.input.useful_candidates(), budget_towers)
    }

    /// The full cISP heuristic: greedy pruning at an inflated budget, then
    /// re-selection within the real budget, then swap-based polishing.
    ///
    /// `history` of the returned outcome is the phase-2 greedy build-out
    /// (re-selection within the real budget, over the pruned pool). The
    /// polish does not rewrite it: after a swap, `selected`, `topology`,
    /// `total_towers` and `mean_stretch` describe the polished design while
    /// `history` still ends at the greedy's last step.
    pub fn cisp(&self, budget_towers: f64) -> DesignOutcome {
        self.cisp_profiled(budget_towers).0
    }

    /// [`Self::cisp`] plus the swap polish's work counters.
    pub fn cisp_profiled(&self, budget_towers: f64) -> (DesignOutcome, SwapPolishStats) {
        assert!(budget_towers >= 0.0);
        // Phase 1: candidate pruning at inflated budget.
        let pruning = self.greedy_over(
            &self.input.useful_candidates(),
            budget_towers * self.config.pruning_budget_factor,
        );
        let pool = pruning.selected;
        // Phase 2: selection within the real budget, restricted to the pool.
        let mut outcome = self.greedy_over(&pool, budget_towers);
        // Phase 3: swap local search within the pool.
        let stats = self.swap_polish(&mut outcome, &pool, budget_towers, |_, _, _| {});
        (outcome, stats)
    }

    /// Swap local search: per pass, decide every budget-feasible "replace
    /// one selected link with one unselected pool link" move and apply the
    /// best improving one (see the module docs for the two mechanisms).
    ///
    /// Selected links are visited in `outcome.selected` order and, within
    /// one, replacements in ascending pool position; a trial becomes the
    /// incumbent only if it beats the incumbent by more than 1e-12, so the
    /// earliest of near-tied trials wins. `on_bounded_out` sees every trial
    /// the bound decides — the matrix without `out`, the replacement's
    /// candidate index and the incumbent stretch it was judged against — so
    /// a test can score it after all.
    fn swap_polish(
        &self,
        outcome: &mut DesignOutcome,
        pool: &[usize],
        budget_towers: f64,
        mut on_bounded_out: impl FnMut(&DistMatrix, usize, f64),
    ) -> SwapPolishStats {
        let started = Instant::now();
        let mut stats = SwapPolishStats::default();
        let budget = budget_towers.floor() as usize;
        if pool.is_empty() || outcome.selected.is_empty() {
            return stats;
        }
        let input = self.input;
        let geodesic = outcome.topology.geodesic_matrix().clone();
        // Every trial matrix is the fiber matrix improved by some link
        // subset, so distances are finite wherever fiber is — weights
        // computed against fiber stay valid for every trial.
        let sw = ScoringWeights::compute(&input.fiber_km, &geodesic, &input.traffic);
        let score = |matrix: &DistMatrix, idx: usize| {
            exact_score(
                matrix,
                &geodesic,
                &input.traffic,
                sw.as_ref(),
                &input.candidates[idx],
            )
        };
        let mut is_selected = vec![false; input.candidates.len()];
        // Per pass: the unselected pool links in pool order, as (candidate
        // index, tower cost, bound floor).
        let mut replacements: Vec<(usize, usize, f64)> = Vec::new();
        let mut links: Vec<(usize, usize, f64)> = Vec::new();
        let mut scratch: Vec<DistMatrix> = Vec::new();

        for _ in 0..self.config.max_swap_passes {
            stats.passes += 1;
            is_selected.fill(false);
            for &idx in &outcome.selected {
                is_selected[idx] = true;
            }
            // `stretch(S ∪ in)` is a lower bound on `stretch(S∖out ∪ in)`
            // for every `out`: the second selection is a subset of the
            // first, more links only shrink distances, and with `sw`
            // present the stretch is one fixed positive-weighted sum of
            // them. (Without `sw` the scalar kernel averages over the pairs
            // that are reachable, a set that grows with the selection, and
            // nothing is monotone: the floor is −∞ and every trial is
            // scored.)
            //
            // The floor is what the computed trial stretch cannot fall
            // below. Bound and trial are computed from matrices that apply
            // their links in different orders (`leave_out_closures`'
            // arithmetic contract): an entry is off by at most one ulp per
            // link on its path, and the compact kernel's sum of at most
            // n²/2 positive terms in 8 lanes by at most n²/16 ulp more —
            // under 1.1e-13 relative a side at the paper's n = 119, so
            // 1e-12 covers both sides with a factor of four to spare (and
            // the worst case, every rounding pointing one way, up to
            // n ≈ 270). A looser slack costs nothing measurable: trials
            // within 1e-12 of their bound are not the ones a pass accepts.
            const BOUND_SLACK_REL: f64 = 1e-12;
            let full = outcome.topology.effective_matrix();
            replacements.clear();
            replacements.extend(pool.iter().filter(|&&idx| !is_selected[idx]).map(|&idx| {
                let floor = match sw {
                    Some(_) => score(full, idx) * (1.0 - BOUND_SLACK_REL),
                    None => f64::NEG_INFINITY,
                };
                (idx, input.candidates[idx].tower_count, floor)
            }));
            links.clear();
            links.extend(outcome.selected.iter().map(|&idx| {
                let l = &input.candidates[idx];
                (l.site_a, l.site_b, l.mw_length_km)
            }));

            // Best swap found this pass: (out_idx, in_idx).
            let mut best: Option<(usize, usize)> = None;
            let mut best_stretch = outcome.mean_stretch;
            // Leave-one-out: set `k` fails the `k`-th selected link alone.
            let leave_one_out: Vec<[usize; 1]> = (0..links.len()).map(|k| [k]).collect();
            let sweeps = leave_out_closures(
                &input.fiber_km,
                &links,
                &leave_one_out,
                &mut scratch,
                |k, without_out| {
                    let out_idx = outcome.selected[k];
                    let base_towers = outcome.total_towers - input.candidates[out_idx].tower_count;
                    stats.out_links += 1;
                    for &(in_idx, in_cost, floor) in &replacements {
                        if base_towers + in_cost > budget {
                            continue;
                        }
                        stats.trials_feasible += 1;
                        // The acceptance test below, applied to the floor:
                        // float addition is monotone, so a trial at or above
                        // its floor fails it whenever the floor does.
                        if floor + 1e-12 >= best_stretch {
                            stats.trials_bounded_out += 1;
                            on_bounded_out(without_out, in_idx, best_stretch);
                            continue;
                        }
                        stats.trials_scored += 1;
                        let stretch = score(without_out, in_idx);
                        if stretch + 1e-12 < best_stretch {
                            best_stretch = stretch;
                            best = Some((out_idx, in_idx));
                        }
                    }
                },
            );
            stats.improve_sweeps += sweeps as u64;

            let Some((out_idx, in_idx)) = best else { break };
            stats.swaps_applied += 1;
            outcome.selected.retain(|&i| i != out_idx);
            outcome.selected.push(in_idx);
            outcome.total_towers = outcome.total_towers - input.candidates[out_idx].tower_count
                + input.candidates[in_idx].tower_count;
            let mut topology = input.empty_topology();
            for &idx in &outcome.selected {
                topology.add_mw_link(input.candidates[idx].clone());
            }
            // Re-derive the stretch from the rebuilt topology so the
            // reported value is bit-identical to what
            // `topology.mean_stretch()` returns.
            outcome.mean_stretch = topology.mean_stretch();
            outcome.topology = topology;
        }
        stats.wall_ms = started.elapsed().as_secs_f64() * 1e3;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisp_geo::geodesic;

    /// Build a synthetic design input: `n` sites on a line, fiber at 2×
    /// geodesic equivalent, uniform traffic, and a direct MW candidate for
    /// every pair at 1.05× geodesic costing 1 tower per 40 km.
    fn synthetic_input(n: usize) -> DesignInput {
        let sites: Vec<GeoPoint> = (0..n)
            .map(|i| GeoPoint::new(38.0 + (i % 3) as f64, -100.0 + i as f64 * 2.0))
            .collect();
        let traffic = DistMatrix::from_fn(n, |i, j| if i == j { 0.0 } else { 1.0 });
        let fiber_km =
            DistMatrix::from_fn(n, |i, j| geodesic::distance_km(sites[i], sites[j]) * 2.0);
        let mut candidates = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let geo = geodesic::distance_km(sites[i], sites[j]);
                let towers = (geo / 40.0).ceil() as usize;
                candidates.push(CandidateLink {
                    site_a: i,
                    site_b: j,
                    mw_length_km: geo * 1.05,
                    tower_count: towers.max(1),
                    tower_path: (0..towers.max(1)).collect(),
                });
            }
        }
        DesignInput {
            sites,
            traffic,
            fiber_km,
            candidates,
        }
    }

    #[test]
    fn zero_budget_builds_nothing() {
        let input = synthetic_input(6);
        let outcome = Designer::new(&input).greedy(0.0);
        assert!(outcome.selected.is_empty());
        assert_eq!(outcome.total_towers, 0);
        // Fiber-only stretch is 2× by construction.
        assert!((outcome.mean_stretch - 2.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_respects_budget_and_reduces_stretch() {
        let input = synthetic_input(8);
        let budget = 30.0;
        let outcome = Designer::new(&input).greedy(budget);
        assert!(outcome.total_towers as f64 <= budget);
        assert!(outcome.mean_stretch < 2.0);
        assert!(!outcome.selected.is_empty());
        // History is monotone: cost non-decreasing, stretch non-increasing.
        for w in outcome.history.windows(2) {
            assert!(w[0].cumulative_towers <= w[1].cumulative_towers);
            assert!(w[0].mean_stretch >= w[1].mean_stretch - 1e-12);
        }
    }

    #[test]
    fn larger_budget_never_hurts() {
        let input = synthetic_input(8);
        let designer = Designer::new(&input);
        let small = designer.greedy(15.0);
        let large = designer.greedy(60.0);
        assert!(large.mean_stretch <= small.mean_stretch + 1e-9);
    }

    #[test]
    fn unlimited_budget_approaches_mw_stretch() {
        let input = synthetic_input(8);
        let outcome = Designer::new(&input).greedy(10_000.0);
        // With every useful link built, every pair rides a 1.05× MW path (or
        // better, via concatenation).
        assert!(
            outcome.mean_stretch <= 1.06,
            "stretch {}",
            outcome.mean_stretch
        );
    }

    #[test]
    fn oracle_removes_useless_candidates() {
        let mut input = synthetic_input(5);
        // Make one candidate worse than fiber; it must never be selected.
        input.candidates[0].mw_length_km = input
            .fiber_km
            .get(input.candidates[0].site_a, input.candidates[0].site_b)
            * 1.1;
        let useful = input.useful_candidates();
        assert!(!useful.contains(&0));
        let outcome = Designer::new(&input).greedy(1_000.0);
        assert!(!outcome.selected.contains(&0));
    }

    #[test]
    fn cisp_heuristic_is_at_least_as_good_as_plain_greedy() {
        let input = synthetic_input(9);
        let designer = Designer::new(&input);
        let budget = 40.0;
        let greedy = designer.greedy(budget);
        let cisp = designer.cisp(budget);
        assert!(cisp.total_towers as f64 <= budget);
        assert!(cisp.mean_stretch <= greedy.mean_stretch + 1e-9);
    }

    #[test]
    fn gain_per_tower_scoring_changes_selection_order() {
        let input = synthetic_input(8);
        let abs = Designer::with_config(
            &input,
            DesignConfig {
                score: GreedyScore::AbsoluteGain,
                ..DesignConfig::default()
            },
        )
        .greedy(25.0);
        let per = Designer::with_config(
            &input,
            DesignConfig {
                score: GreedyScore::GainPerTower,
                ..DesignConfig::default()
            },
        )
        .greedy(25.0);
        // Both are valid designs within budget.
        assert!(abs.total_towers <= 25 && per.total_towers <= 25);
        // The cost-aware variant never selects a *more* expensive first link.
        if let (Some(a), Some(p)) = (abs.history.first(), per.history.first()) {
            let ca = input.candidates[a.candidate_index].tower_count;
            let cp = input.candidates[p.candidate_index].tower_count;
            assert!(cp <= ca);
        }
    }

    #[test]
    fn design_is_deterministic() {
        let input = synthetic_input(8);
        let a = Designer::new(&input).cisp(30.0);
        let b = Designer::new(&input).cisp(30.0);
        assert_eq!(a.selected, b.selected);
        assert!((a.mean_stretch - b.mean_stretch).abs() < 1e-15);
    }

    #[test]
    fn selected_links_are_within_candidate_range_and_unique() {
        let input = synthetic_input(7);
        let outcome = Designer::new(&input).cisp(35.0);
        let mut seen = std::collections::HashSet::new();
        for &idx in &outcome.selected {
            assert!(idx < input.candidates.len());
            assert!(seen.insert(idx), "duplicate selection of candidate {idx}");
        }
        // Reported totals are consistent.
        let cost: usize = outcome
            .selected
            .iter()
            .map(|&i| input.candidates[i].tower_count)
            .sum();
        assert_eq!(cost, outcome.total_towers);
        assert!((outcome.topology.mean_stretch() - outcome.mean_stretch).abs() < 1e-12);
    }

    /// `synthetic_input` with uneven traffic and MW detour factors, so the
    /// pool holds many near-useless replacements as well as a few good ones.
    fn uneven_input(n: usize, salt: u64) -> DesignInput {
        let mut input = synthetic_input(n);
        let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..n {
            for j in (i + 1)..n {
                // Heavy-tailed, and most pairs carry nothing.
                let h = if unit() < 0.7 { 0.0 } else { unit().powi(4) };
                input.traffic.set_sym(i, j, h);
            }
        }
        for link in &mut input.candidates {
            link.mw_length_km *= 1.0 + 0.5 * unit();
        }
        input
    }

    /// Bit-level identity of two outcomes: picks, build-out and stretch.
    fn assert_same_outcome(got: &DesignOutcome, want: &DesignOutcome, what: &str) {
        assert_eq!(got.selected, want.selected, "{what}");
        assert_eq!(got.history, want.history, "{what}");
        assert_eq!(got.total_towers, want.total_towers, "{what}");
        assert_eq!(
            got.mean_stretch.to_bits(),
            want.mean_stretch.to_bits(),
            "{what}"
        );
    }

    #[test]
    fn parallel_and_serial_scoring_select_identical_designs() {
        // Shard counts are pinned here because `greedy_over` takes one per
        // core, which is one on a single-core container.
        for (salt, budget) in [(5, 400.0), (6, 250.0), (7, 2_000.0)] {
            let input = uneven_input(24, salt);
            let designer = Designer::new(&input);
            let pool = input.useful_candidates();
            let inline = designer.greedy_sharded(&pool, budget, 1);
            assert!(inline.selected.len() >= 10, "fixture must run many rounds");
            for shards in [2, 3, 5] {
                let sharded = designer.greedy_sharded(&pool, budget, shards);
                assert_same_outcome(&sharded, &inline, &format!("salt {salt}, {shards} shards"));
            }
        }
    }

    #[test]
    fn pools_smaller_than_the_shard_count_design_like_one_shard() {
        let input = uneven_input(12, 2);
        let designer = Designer::new(&input);
        let useful = input.useful_candidates();
        for len in 0..=3 {
            let pool = &useful[..len];
            let inline = designer.greedy_sharded(pool, 500.0, 1);
            let sharded = designer.greedy_sharded(pool, 500.0, 5);
            assert_same_outcome(&sharded, &inline, &format!("pool of {len}"));
            assert!(inline.selected.iter().all(|idx| pool.contains(idx)));
            assert_eq!(inline.selected.is_empty(), len == 0);
        }
    }

    #[test]
    fn incremental_and_full_rescore_engines_select_identically() {
        // The plain loop only ever runs where the incremental engine cannot;
        // on inputs both accept it must be the same greedy.
        for (input, budget) in [
            (synthetic_input(9), 35.0),
            (uneven_input(16, 2), 200.0),
            (uneven_input(20, 3), 300.0),
        ] {
            let designer = Designer::new(&input);
            let pool = input.useful_candidates();
            let incremental = designer.greedy_over(&pool, budget);
            let plain = designer.greedy_rescore(&pool, budget);
            assert_same_outcome(&incremental, &plain, "incremental vs plain rescore");
        }
    }

    #[test]
    fn bounded_out_trials_would_not_have_been_accepted() {
        let mut totals = SwapPolishStats::default();
        for (n, salt, budget) in [
            (12, 1, 150.0),
            (16, 2, 200.0),
            (20, 3, 300.0),
            (20, 4, 500.0),
            (24, 5, 400.0),
            (24, 6, 250.0),
        ] {
            let input = uneven_input(n, salt);
            let designer = Designer::new(&input);
            let pool = designer
                .greedy_over(&input.useful_candidates(), budget * 2.0)
                .selected;
            let mut outcome = designer.greedy_over(&pool, budget);
            let links_before = outcome.selected.len();
            let geodesic = outcome.topology.geodesic_matrix().clone();
            let sw = ScoringWeights::compute(&input.fiber_km, &geodesic, &input.traffic);
            assert!(sw.is_some());
            let stats =
                designer.swap_polish(&mut outcome, &pool, budget, |matrix, in_idx, best| {
                    let stretch = exact_score(
                        matrix,
                        &geodesic,
                        &input.traffic,
                        sw.as_ref(),
                        &input.candidates[in_idx],
                    );
                    assert!(
                        stretch + 1e-12 >= best,
                        "n = {n}: trial {in_idx} bounded out at {best} scores {stretch}"
                    );
                });
            assert_eq!(
                stats.trials_scored + stats.trials_bounded_out,
                stats.trials_feasible
            );
            assert_eq!(stats.out_links, stats.passes * links_before as u64);
            let depth = links_before.next_power_of_two().trailing_zeros() as u64;
            assert!(stats.improve_sweeps <= stats.passes * links_before as u64 * depth);
            assert!(stats.swaps_applied <= stats.passes && stats.passes <= 3);
            totals.trials_feasible += stats.trials_feasible;
            totals.trials_bounded_out += stats.trials_bounded_out;
            totals.swaps_applied += stats.swaps_applied;
        }
        // The fixtures exercise both the bound and the swap itself.
        assert!(totals.trials_bounded_out * 4 > totals.trials_feasible);
        assert!(totals.swaps_applied > 0);
    }

    #[test]
    fn bound_is_off_when_fiber_leaves_a_traffic_pair_unreachable() {
        // No `ScoringWeights` ⇒ the scalar kernel's mean runs over the
        // reachable pairs only, which is not monotone in the selection:
        // every feasible trial must be scored.
        let mut input = uneven_input(12, 1);
        input.traffic.set_sym(0, 11, 1.0);
        input.fiber_km.set_sym(0, 11, f64::INFINITY);
        let (outcome, stats) = Designer::new(&input).cisp_profiled(150.0);
        assert!(stats.trials_feasible > 0);
        assert_eq!(stats.trials_bounded_out, 0);
        assert_eq!(stats.trials_scored, stats.trials_feasible);
        assert!(outcome.total_towers <= 150);
    }

    #[test]
    fn cisp_profiled_is_cisp_and_history_is_the_greedy_build_out() {
        let input = uneven_input(20, 3);
        let designer = Designer::new(&input);
        let plain = designer.cisp(300.0);
        let (profiled, stats) = designer.cisp_profiled(300.0);
        assert_eq!(plain.selected, profiled.selected);
        assert!((plain.mean_stretch - profiled.mean_stretch).abs() == 0.0);
        assert!(stats.swaps_applied > 0, "fixture must exercise a swap");
        // `history` still lists the phase-2 greedy's picks, one of which the
        // polish has since swapped out.
        let greedy_picks: Vec<usize> = profiled.history.iter().map(|s| s.candidate_index).collect();
        assert_eq!(greedy_picks.len(), profiled.selected.len());
        assert_ne!(greedy_picks, profiled.selected);
        // Zero passes: no polish, empty counters.
        let none = Designer::with_config(
            &input,
            DesignConfig {
                max_swap_passes: 0,
                ..DesignConfig::default()
            },
        )
        .cisp_profiled(300.0);
        let counters = SwapPolishStats {
            wall_ms: 0.0,
            ..none.1
        };
        assert_eq!(counters, SwapPolishStats::default());
        assert!(stats.wall_ms > 0.0);
        assert_eq!(none.0.selected, greedy_picks);
    }
}
