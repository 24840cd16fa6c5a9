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
//!   inflated budget ([`PRUNING_BUDGET_FACTOR`], the paper's 2×) to
//!   identify a candidate pool, then re-select within
//!   the real budget and polish with budget-respecting swap local search.
//!   (The paper hands the pruned pool to Gurobi; our pool-restricted
//!   selection plus swaps plays that role, and [`crate::exact`] finds the
//!   true optimum for the small instances where it is tractable.)
//!   The re-selection resumes from the pruning greedy: while the real
//!   budget is slack both greedies pick the same links in the same order,
//!   so the longest prefix of the pool that fits the budget is replayed
//!   with the one-link kernel and only the rounds after it are run (the
//!   exactness argument is in [`Designer::cisp`]'s docs).
//!
//! Both procedures start by applying the paper's "fiber oracle" elimination:
//! a candidate MW link whose length is no better than the fiber distance
//! between its endpoints can never improve any route and is dropped outright.
//! This is exact, not an approximation.
//!
//! Like the paper's `o_ij`, fiber must reach every traffic-carrying pair:
//! [`Designer::with_config`] panics, naming the pair, when one is
//! unreachable or a traffic weight is negative or not finite. An input
//! where no pair carries traffic designs nothing (stretch 1.0).
//!
//! ## The incremental delta-scoring engine
//!
//! Candidate scoring — one O(n²) [`mean_stretch_with_link_compact`] sweep
//! per candidate — dominates design time. The greedy (the private `engine`
//! module) keeps a cached predicted stretch per pool candidate and, after
//! each accepted link, repairs the caches from the link's improved-pair
//! delta instead of re-sweeping: a candidate's repair visits only the
//! improved pairs and the rows of its endpoints' changed neighbours (on a
//! verified-metric matrix most rows fall to an O(1) test), and the winning
//! candidate of every round is always re-scored exactly before acceptance
//! — so it selects what re-scoring every candidate every round selects
//! (`tests/matrix_engine_parity.rs` keeps that naive greedy as the
//! oracle). The improved pairs' per-candidate
//! corrections visit only the candidates whose ends pass a per-pair site
//! screen: a via can only shortcut pair `(a, b)` if `D[a][i] + g[i][b]`
//! and `g[a][j] + D[j][b]` are below `D[a][b]`, with `g` the geodesic
//! matrix when [`Designer::with_config`] verifies it as a floor (see
//! [`Designer::geodesic_screen_armed`]) and zero otherwise. At the
//! paper-scale input that cuts the visits of one `cisp` run from 310 M to
//! 51 M with bit-identical values.
//!
//! Scoring parallelism in the greedy comes from *scoring shards*: the pool
//! is split once per greedy run into one stable contiguous slice per core
//! ([`cisp_netsim::jobs::resolve_workers`]), each slice owning its cached
//! predictions across all rounds, and every round repairs the slices in one
//! [`cisp_netsim::jobs::drain_jobs`] fan-out. Every shard count selects
//! bit-identical designs (the shard math is shared and reductions are
//! order-fixed).
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

use cisp_geo::GeoPoint;
use cisp_graph::{improve_with_link, leave_out_closures, DistMatrix};
use cisp_netsim::jobs::resolve_workers;

use crate::engine::{PoolScorer, RoundUpdate, ScoreContext};
use crate::links::CandidateLink;
use crate::topology::{mean_stretch_with_link_compact, HybridTopology, ScoringWeights};

/// Budget-inflation factor of the cISP heuristic's candidate-pruning phase:
/// the paper's 2×.
pub const PRUNING_BUDGET_FACTOR: f64 = 2.0;

/// Minimum mean-stretch gain for a link to be worth adding.
const MIN_GAIN: f64 = 1e-9;

/// Configuration of the design procedures.
#[derive(Debug, Clone, Copy)]
pub struct DesignConfig {
    /// Maximum number of improving swap passes in [`Designer::cisp`]'s
    /// polishing phase (0 turns the polish off).
    pub max_swap_passes: usize,
}

impl Default for DesignConfig {
    fn default() -> Self {
        Self { max_swap_passes: 3 }
    }
}

/// One step of the greedy build-out: the cumulative tower cost and the mean
/// stretch after adding the step's link. Recording every step lets a single
/// design run produce the whole stretch-vs-budget curve of Fig. 4(a).
#[derive(Debug, Clone, Copy, PartialEq)]
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
    pub(crate) fn useful_candidates(&self) -> Vec<usize> {
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
    /// The greedy build-out history, one step per accepted link (see
    /// [`Designer::cisp`] for how the swap polish leaves it).
    pub history: Vec<DesignStep>,
}

/// Work counters of one [`Designer::cisp_profiled`] run's swap polish,
/// summed over its passes.
/// `trials_scored + trials_bounded_out == trials_feasible`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SwapPolishStats {
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
    /// Geodesic distances between the sites (the stretch denominators).
    geodesic: DistMatrix,
    /// The run's one set of scoring weights, against the fiber matrix every
    /// design matrix descends from; the repair's metric side test is armed
    /// when fiber is metric, and its geodesic site screen when the geodesic
    /// matrix is metric and neither fiber nor a useful candidate undercuts
    /// it.
    sw: ScoringWeights,
    /// Whether the geodesic site screen is armed.
    geodesic_screen: bool,
}

impl<'a> Designer<'a> {
    /// Create a designer with the default configuration.
    pub fn new(input: &'a DesignInput) -> Self {
        Self::with_config(input, DesignConfig::default())
    }

    /// Create a designer with an explicit configuration.
    ///
    /// # Panics
    ///
    /// When fiber leaves a traffic-carrying pair unreachable, or a traffic
    /// weight is negative or not finite ([`ScoringWeights::compute`]); the
    /// message names the pair.
    pub fn with_config(input: &'a DesignInput, config: DesignConfig) -> Self {
        let base = input.empty_topology();
        let mut sw =
            ScoringWeights::compute(&input.fiber_km, base.geodesic_matrix(), &input.traffic);
        // Arms the via repair's metric side test (rows and columns) when
        // fiber is verified metric (distances only shrink, so one check
        // covers every round). No-op on non-metric inputs.
        sw.arm_row_skip(&input.fiber_km);
        // Arms the pair-major repair's geodesic site screen (its floor
        // stays zero otherwise). Pools only ever hold useful candidates.
        let geodesic_screen = sw.arm_geodesic_screen(
            base.geodesic_matrix(),
            &input.fiber_km,
            input.useful_candidates().into_iter().map(|idx| {
                let l = &input.candidates[idx];
                (l.site_a, l.site_b, l.mw_length_km)
            }),
        );
        Self {
            input,
            config,
            geodesic: base.geodesic_matrix().clone(),
            sw,
            geodesic_screen,
        }
    }

    /// Whether the greedy's pair-major repair screens candidates with the
    /// geodesic floor: the geodesic matrix is metric, and no fiber distance
    /// and no useful candidate is shorter than it (each within a relative
    /// 1e-8). When it is not, the screen runs with a zero floor, which
    /// visits more candidates and selects the same design.
    pub fn geodesic_screen_armed(&self) -> bool {
        self.geodesic_screen
    }

    /// Greedy design over an explicit candidate pool (indices into the input
    /// candidate list), one scoring shard per core.
    fn greedy_over(&self, pool: &[usize], budget_towers: f64) -> DesignOutcome {
        self.greedy_sharded(pool, budget_towers, resolve_workers(0))
    }

    /// The incremental delta-scoring greedy (the `engine` module) over
    /// `shards` scoring shards, clamped to the pool size; one shard runs
    /// inline on the calling thread. The shard count never changes the
    /// design.
    ///
    /// Every pool candidate's predicted stretch is cached; after each
    /// accepted link the caches are repaired from the link's improved-pair
    /// set by the shards. Selection re-scores the provisional winner with
    /// the exact kernel and accepts only once the exact value is still the
    /// best cached gain, so the chosen sequence is the one re-scoring
    /// every candidate every round would choose while almost all O(n²)
    /// sweeps disappear.
    fn greedy_sharded(&self, pool: &[usize], budget_towers: f64, shards: usize) -> DesignOutcome {
        let fiber = self.input.fiber_km.clone();
        self.outcome_of(self.run_incremental(pool, budget_towers, shards, fiber, 0))
    }

    /// Replay a selection through a fresh topology, so the returned state
    /// (and its reported stretch) is what `add_mw_link` builds; `history`
    /// gets one step per link.
    fn outcome_of(&self, selected: Vec<usize>) -> DesignOutcome {
        let input = self.input;
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

    /// The incremental greedy's selection loop over `pool` on `shards`
    /// scoring shards, resumed from a state an earlier selection left:
    /// `matrix` is the effective matrix (fiber improved by the links
    /// already chosen) and `spent` their tower count, which the budget
    /// includes. Returns the newly accepted candidate indices in acceptance
    /// order.
    fn run_incremental(
        &self,
        pool: &[usize],
        budget_towers: f64,
        shards: usize,
        mut matrix: DistMatrix,
        spent: usize,
    ) -> Vec<usize> {
        let ctx = ScoreContext {
            candidates: &self.input.candidates,
            pool,
            sw: &self.sw,
        };
        let mut scorer = PoolScorer::new(pool.len(), shards);
        let budget = budget_towers.floor() as usize;
        let mut values = vec![f64::INFINITY; pool.len()];
        scorer.init(&ctx, &matrix, &mut values);
        let mut removed = vec![false; pool.len()];
        let mut refreshed = vec![false; pool.len()];
        let stretch_of = |matrix: &DistMatrix| {
            crate::topology::weighted_mean_stretch(matrix, &self.geodesic, &self.input.traffic)
        };
        let mut current_stretch = stretch_of(&matrix);
        let mut selected = Vec::new();
        let mut total_towers = spent;
        // One update (the pre-round matrix among its buffers) serves every
        // round.
        let mut update = RoundUpdate::new(matrix.n(), ctx.sw);
        let mut overrides: Vec<(usize, f64)> = Vec::new();

        loop {
            // Select this round's link: repeatedly take the best cached
            // gain among affordable candidates, re-score it with the
            // exact kernel, and accept once the winner's value is exact.
            refreshed.fill(false);
            overrides.clear();
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
                    let gain = current_stretch - values[pos];
                    if gain <= MIN_GAIN {
                        continue;
                    }
                    // Strict `>` keeps the lowest position on ties: the
                    // greedy's deterministic tie-break.
                    if best.is_none() || gain > best.unwrap().0 {
                        best = Some((gain, pos));
                    }
                }
                let Some((_, pos)) = best else { break };
                if refreshed[pos] {
                    // Exact value and still the best gain: accept (the
                    // filter above already guarantees it clears `MIN_GAIN`).
                    chosen = Some(pos);
                    break;
                }
                // Same kernel as the shards' exact rescoring, so the
                // winner's refreshed value is bit-identical to a shard's
                // exact re-score of it.
                let exact = ctx.exact(&matrix, pos);
                values[pos] = exact;
                refreshed[pos] = true;
                overrides.push((pos, exact));
            }

            let Some(pos) = chosen else { break };
            let link = &self.input.candidates[pool[pos]];
            total_towers += link.tower_count;
            update.accept(&mut matrix, link, pos, &overrides, ctx.sw);
            current_stretch = stretch_of(&matrix);
            selected.push(pool[pos]);
            removed[pos] = true;
            scorer.apply(&ctx, &matrix, &update, &mut values);
        }
        selected
    }

    /// Pure greedy design at the given tower budget (all useful candidates).
    pub fn greedy(&self, budget_towers: f64) -> DesignOutcome {
        assert!(budget_towers >= 0.0);
        self.greedy_over(&self.input.useful_candidates(), budget_towers)
    }

    /// The full cISP heuristic: greedy pruning at an inflated budget, then
    /// re-selection within the real budget, then swap-based polishing.
    ///
    /// Phase 2 resumes from phase 1 rather than re-running its first
    /// rounds. Let `k` be the longest prefix of the pruned pool (phase 1's
    /// picks, in pick order) whose tower count fits `floor(budget_towers)`.
    /// A greedy over the pool within the real budget picks exactly
    /// `pool[..k]` first: at each round `r < k` it starts from the state
    /// phase 1 was in at round `r` (same links, matrix and towers spent),
    /// and phase 1's pick `pool[r]` was the best gain over a superset of the
    /// pool candidates the real budget allows (every unpicked pool link is
    /// still a candidate there, and `floor(budget_towers)` is at most the
    /// inflated budget's floor) — `pool[r]` is one of those, since the
    /// prefix fits. So no pool candidate beats it, and on a tie it wins too:
    /// pool order is pick order, so `pool[r]` holds the lowest position
    /// among the pool candidates left. Phase 2 therefore replays
    /// `pool[..k]` into a copy of fiber with the one-link kernel (bit for
    /// bit the tracked kernel the greedy applied) and runs the greedy over
    /// `pool[k..]` only, from that matrix and tower count. This is exact up
    /// to the engine's own caveat (the `engine` module): candidates whose
    /// scores tie within the repair's ulp-level noise.
    ///
    /// `history` of the returned outcome is the phase-2 greedy build-out
    /// (re-selection within the real budget, over the pruned pool): the
    /// replayed prefix, then the resumed picks. The polish does not rewrite
    /// it: after a swap, `selected`, `topology`, `total_towers` and
    /// `mean_stretch` describe the polished design while `history` still
    /// ends at the greedy's last step.
    pub fn cisp(&self, budget_towers: f64) -> DesignOutcome {
        self.cisp_profiled(budget_towers).0
    }

    /// [`Self::cisp`] plus the swap polish's work counters.
    pub fn cisp_profiled(&self, budget_towers: f64) -> (DesignOutcome, SwapPolishStats) {
        assert!(budget_towers >= 0.0);
        let shards = resolve_workers(0);
        // Phase 1: candidate pruning at inflated budget; only its picks are
        // read.
        let pool = self.run_incremental(
            &self.input.useful_candidates(),
            budget_towers * PRUNING_BUDGET_FACTOR,
            shards,
            self.input.fiber_km.clone(),
            0,
        );
        // Phase 2: selection within the real budget, restricted to the pool.
        let (selected, _) = self.resume_within(&pool, budget_towers, shards);
        let mut outcome = self.outcome_of(selected);
        // Phase 3: swap local search within the pool.
        let stats = self.swap_polish(&mut outcome, &pool, budget_towers, |_, _, _| {});
        (outcome, stats)
    }

    /// Phase 2 of [`Self::cisp`]: the greedy over `pool` (a greedy's picks
    /// at a budget of at least `budget_towers`, in pick order) within
    /// `budget_towers`, resumed after the longest prefix that fits. Returns
    /// the selection and the length `k` of that prefix.
    fn resume_within(
        &self,
        pool: &[usize],
        budget_towers: f64,
        shards: usize,
    ) -> (Vec<usize>, usize) {
        let budget = budget_towers.floor() as usize;
        let mut matrix = self.input.fiber_km.clone();
        let mut spent = 0usize;
        let mut k = 0;
        for &idx in pool {
            let link = &self.input.candidates[idx];
            if spent + link.tower_count > budget {
                break;
            }
            spent += link.tower_count;
            improve_with_link(&mut matrix, link.site_a, link.site_b, link.mw_length_km);
            k += 1;
        }
        let mut selected = pool[..k].to_vec();
        selected.extend(self.run_incremental(&pool[k..], budget_towers, shards, matrix, spent));
        (selected, k)
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
        let mut stats = SwapPolishStats::default();
        let budget = budget_towers.floor() as usize;
        if pool.is_empty() || outcome.selected.is_empty() {
            return stats;
        }
        let input = self.input;
        // Every trial matrix is the fiber matrix improved by some link
        // subset, so the run's weights, computed against fiber, stay valid
        // for every trial.
        let score = |matrix: &DistMatrix, idx: usize| {
            let l = &input.candidates[idx];
            mean_stretch_with_link_compact(matrix, &self.sw, l.site_a, l.site_b, l.mw_length_km)
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
            // first, more links only shrink distances, and the stretch is
            // one fixed positive-weighted sum of them.
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
                let floor = score(full, idx) * (1.0 - BOUND_SLACK_REL);
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
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisp_geo::geodesic;
    use cisp_netsim::jobs::test_widths;

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

    /// Phase 2 resumes after the longest prefix of the pruned pool whose
    /// towers fit the budget (`<=`: a prefix landing on the budget exactly
    /// is replayed) and then selects what a cold greedy over the pool
    /// selects, at every shard count: no prefix (the first pick alone is
    /// over budget), a zero budget, the whole pool, and crossings midway —
    /// on a prefix total exactly, a fraction above one, and one tower short
    /// of the next.
    #[test]
    fn phase_two_resumes_after_the_prefix_that_fits_and_selects_like_a_cold_greedy() {
        let mut resumed_rounds = 0;
        for (n, salt, pruning_budget) in [(20, 3, 600.0), (24, 5, 800.0)] {
            let input = uneven_input(n, salt);
            let designer = Designer::new(&input);
            let pool = designer
                .greedy_over(&input.useful_candidates(), pruning_budget)
                .selected;
            assert!(pool.len() >= 8, "fixture must prune to a long pool");
            let towers: Vec<usize> = pool
                .iter()
                .scan(0, |total, &idx| {
                    *total += input.candidates[idx].tower_count;
                    Some(*total)
                })
                .collect();
            let (first, mid, last) = (towers[0], pool.len() / 2, pool.len() - 1);
            assert!(
                first >= 2,
                "a first pick of one tower leaves no k = 0 budget"
            );
            // (budget, length of the replayed prefix)
            let cases = [
                ((first - 1) as f64, 0),
                (0.0, 0),
                (towers[last] as f64, pool.len()),
                (towers[mid] as f64, mid + 1),
                (towers[mid] as f64 + 0.5, mid + 1),
                ((towers[mid + 1] - 1) as f64, mid + 1),
            ];
            for shards in test_widths(&[1, 2, 3, 5]) {
                for (budget, want_k) in cases {
                    let what = format!("salt {salt}, budget {budget}, {shards} shards");
                    let (resumed, k) = designer.resume_within(&pool, budget, shards);
                    assert_eq!(k, want_k, "{what}");
                    let cold = designer.greedy_sharded(&pool, budget, shards).selected;
                    assert_eq!(resumed, cold, "{what}");
                    resumed_rounds += resumed.len() - k;
                }
            }
        }
        assert!(
            resumed_rounds > 0,
            "fixtures must run rounds after the prefix"
        );
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
    #[should_panic(expected = "traffic weight of sites 2 and 7 is NaN")]
    fn a_nan_traffic_weight_is_rejected() {
        let mut input = synthetic_input(9);
        input.traffic.set_sym(2, 7, f64::NAN);
        Designer::new(&input);
    }

    #[test]
    #[should_panic(expected = "traffic weight of sites 1 and 4 is -0.5")]
    fn a_negative_traffic_weight_is_rejected() {
        let mut input = synthetic_input(9);
        input.traffic.set_sym(1, 4, -0.5);
        Designer::new(&input);
    }

    #[test]
    fn no_traffic_designs_nothing() {
        let mut input = synthetic_input(8);
        input.traffic = DistMatrix::zeros(8);
        let designer = Designer::new(&input);
        for outcome in [designer.greedy(1_000.0), designer.cisp(1_000.0)] {
            assert!(outcome.selected.is_empty());
            assert!(outcome.history.is_empty());
            assert_eq!(outcome.total_towers, 0);
            assert_eq!(outcome.mean_stretch, 1.0);
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
            let stats =
                designer.swap_polish(&mut outcome, &pool, budget, |matrix, in_idx, best| {
                    let l = &input.candidates[in_idx];
                    let stretch = mean_stretch_with_link_compact(
                        matrix,
                        &designer.sw,
                        l.site_a,
                        l.site_b,
                        l.mw_length_km,
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
        let none =
            Designer::with_config(&input, DesignConfig { max_swap_passes: 0 }).cisp_profiled(300.0);
        assert_eq!(none.1, SwapPolishStats::default());
        assert_eq!(none.0.selected, greedy_picks);
    }
}
