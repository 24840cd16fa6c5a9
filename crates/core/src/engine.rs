//! The incremental delta-scoring engine and its scoring shards.
//!
//! The greedy designer keeps one cached predicted mean stretch per pool
//! candidate and, after every accepted link, *repairs* those caches instead
//! of re-scoring every candidate with an O(n²) sweep.
//!
//! A candidate's predicted stretch is `Σ w(s,t) · min(D[s][t], via(s,t))`
//! (over the objective's pairs, divided by `Σ w · g`-weights), where
//! `via(s,t)` uses only rows `i` and `j` of the matrix — the candidate's
//! endpoints. After a link is accepted, a pair's term can change only if one
//! of its five inputs changed: `(s,t)` itself improved, or `s`/`t` is a
//! *changed neighbour* of an endpoint (its distance to `i` or `j`
//! improved). [`ShardState::apply`] repairs every cached value from exactly
//! those pairs, in two passes over one [`RoundUpdate`]:
//!
//! 1. **Via part, candidate-major.** The rows of the candidate's changed
//!    neighbours, each pair's new term minus its old term. Every old
//!    distance is a plain read of the *pre-round matrix* the update carries
//!    (the matrix as it stood before the accepted link). Vias only shrink,
//!    so a pair contributes exactly when `via_new < d_st && via_new !=
//!    via_old`. On a verified-metric matrix one side test, applied at both
//!    ends of the pair, confines the walk: a via through `(i, j, m)` beats
//!    `d(s,t)` only when `s` is nearer one endpoint and `t` nearer the
//!    other, each by more than `m` less a slack. A row on neither side is
//!    dismissed in O(1); a row on a side walks only the opposite side's
//!    columns, its *shortcut cone*, two site bitsets built once per
//!    candidate and round, in ascending column order, so the additions
//!    keep a full scan's order and bits. A candidate with no changed
//!    neighbour at either endpoint has no via part and skips the pass.
//! 2. **Direct part, pair-major.** The improved pairs' candidate-independent
//!    base (added in pass 1) plus per-candidate corrections. A candidate
//!    `(i, j, m)` corrects pair `(a, b)` only when one of its vias on the
//!    pre-round matrix `D`, say `D[a][i] + m + D[j][b]`, beats `D[a][b]`;
//!    every other correction is an exact `+0.0`. Such a via forces both
//!    `D[a][i] + g[i][b]` and `g[a][j] + D[j][b]` below `D[a][b]`, where
//!    `g` is a *floor* no design matrix and no candidate undercuts: since
//!    `g(i,b) ≤ g(i,j) + g(j,b) ≤ m + D[j][b]`, and mirror-wise. The
//!    floor is the geodesic matrix when
//!    [`Designer::with_config`](crate::design::Designer::with_config)
//!    verifies that (it is metric, and neither fiber nor a useful candidate
//!    is shorter), and zero otherwise, where the same two tests still hold
//!    because every term is non-negative; a slack of a few `1e-8` of the
//!    largest distance absorbs the verification tolerance and rounding
//!    ([`ScoringWeights::arm_geodesic_screen`] has the argument). So
//!    [`RoundUpdate::accept`] screens each improved pair's sites once per
//!    round into two bitsets, `near_a` and `near_b`, and a shard, which
//!    keeps per site the bitset of the sites its candidates link it to and
//!    a slot lookup per site pair (a chain for parallel candidates), visits
//!    only the candidates with one end in each set, once per pair, in
//!    improved-pair order. Each value sees its non-zero additions in the
//!    order a visit of every candidate would add them, so the repaired
//!    values are bit for bit those of the unscreened pass (a test keeps
//!    the length-prefix scan this replaced as the reference). Were a
//!    contributing candidate ever screened out, its value would only be
//!    too low, by a correction that is always positive: the designer's
//!    exact re-score of every provisional winner would catch it, so the
//!    design could not change, only the re-score count.
//!
//! The repair is mathematically identical to a full rescore — only
//! floating-point summation order differs, which the designer absorbs by
//! re-scoring the winning candidate with the exact kernel before accepting
//! it. The residual caveat: candidates whose exact scores tie to within the
//! repair's ulp-level noise (~1e-14 relative) could in principle be ranked
//! differently than by full rescoring; the parity property tests pin the
//! engine to a naive full-rescoring greedy on every fixture tried.
//!
//! Parallelism comes from **scoring shards** ([`PoolScorer`]): the pool is
//! split once per greedy run into stable contiguous slices, each a
//! [`ShardState`] that owns its slice's cached predictions and repair
//! scratch across all rounds. Every round is one
//! [`cisp_netsim::jobs::drain_jobs`] fan-out with one job per shard, scored
//! against the matrix the designer lends it and mutates only between
//! rounds. The shards serve the greedy only: the swap polish decides most
//! of its trials from a bound and scores the few that are left on the
//! calling thread (see [`crate::design`]).
//!
//! Every exact score of a run — the shards' first scores, the winner's
//! refresh, the polish's bounds and trials — is the compact kernel
//! [`mean_stretch_with_link_compact`] with the run's one [`ScoringWeights`].

use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Mutex;

use cisp_graph::{improve_with_link_tracked, DistMatrix, ImprovedPairs};
use cisp_netsim::jobs::drain_jobs;

use crate::links::CandidateLink;
use crate::topology::{mean_stretch_with_link_compact, ScoringWeights};

/// Everything a scoring shard needs to score its candidates besides the
/// matrix it scores against: the candidate pool and the run's weights.
/// Shared immutably with every shard for the lifetime of a greedy run.
pub(crate) struct ScoreContext<'a> {
    /// All candidate links of the design input.
    pub candidates: &'a [CandidateLink],
    /// The candidate pool: indices into `candidates`, in selection-priority
    /// tie-break order. Shards own stable contiguous ranges of this slice.
    pub pool: &'a [usize],
    /// The run's compacted scoring weights: every exact score goes through
    /// the vectorised compact kernel, and the repair sweeps read their `h/g`
    /// weights from here.
    pub sw: &'a ScoringWeights,
}

impl ScoreContext<'_> {
    /// Exact predicted mean stretch of `matrix` with the candidate at pool
    /// position `pos` added.
    #[inline]
    pub(crate) fn exact(&self, matrix: &DistMatrix, pos: usize) -> f64 {
        let link = &self.candidates[self.pool[pos]];
        mean_stretch_with_link_compact(matrix, self.sw, link.site_a, link.site_b, link.mw_length_km)
    }
}

/// `a.min(b)` for the repair loops, whose operands are sums of
/// non-negative distances and never NaN: one compare-and-select, where
/// `f64::min`'s NaN handling costs extra instructions on every pair the
/// repair walks. No `-0.0` arises either, so equal operands have equal bits
/// and the result is bit for bit `f64::min`'s.
#[inline(always)]
fn min_no_nan(a: f64, b: f64) -> f64 {
    if b < a {
        b
    } else {
        a
    }
}

/// The per-round delta the designer hands every shard after accepting a
/// link, with the lookup structures the repair sweeps need (built once per
/// round, shared by every shard). A greedy run allocates one update and
/// refills it with [`Self::accept`] every round.
#[derive(Debug)]
pub(crate) struct RoundUpdate {
    /// The accepted link's improved pairs `(a, b, old)`, from
    /// [`improve_with_link_tracked`].
    improved: ImprovedPairs,
    /// The matrix as it stood before the accepted link, with both entries
    /// of every improved pair set to the old distance `improved` recorded
    /// for it (the matrix is symmetric only up to summation ulps, and the
    /// repair reads a pair's old distance from either side). Every old
    /// distance the repair needs is a plain read of it: the via part's
    /// endpoint rows and the pair-major pass's two rows per improved pair
    /// are its row slices.
    old: DistMatrix,
    /// Pool position of the accepted candidate — removed from scoring.
    removed_pos: usize,
    /// Exact kernel values the designer computed during selection (pool
    /// position, predicted stretch *before* the accepted link). Applied
    /// before the delta so shard caches match what the designer compared.
    overrides: Vec<(usize, f64)>,
    /// `changed_nbrs[v]` = vertices whose distance to `v` improved.
    changed_nbrs: Vec<Vec<u32>>,
    /// The direct part's scored pairs `(a, b, old, new, weight)` (positive
    /// objective weight only), in improved-pair order — the order every
    /// candidate's pair-major corrections are added in.
    direct_pairs: Vec<(u32, u32, f64, f64, f64)>,
    /// The direct part's candidate-independent base,
    /// `Σ w·(new − old) / den`, in predicted-stretch units.
    direct_base: f64,
    /// `u64` words of one site bitset.
    site_words: usize,
    /// The site screen of every direct pair `(a, b)`, in `direct_pairs`
    /// order: two site bitsets each, `near_a` (sites `s` with `old[a][s] +
    /// floor[s][b] < old[a][b] + slack`, where a shortcutting candidate's
    /// `a`-side end must lie) then `near_b` (sites with `floor[a][s] +
    /// old[b][s] < old[a][b] + slack`, its `b`-side end); see
    /// [`ScoringWeights::arm_geodesic_screen`].
    screens: Vec<u64>,
    /// Distance slack of the via part's metric side test on rows and
    /// columns ([`ScoringWeights::row_skip_slack_km`]); `None` when the
    /// run's matrix was not verified metric, disabling the test.
    row_skip_slack: Option<f64>,
}

impl RoundUpdate {
    /// The buffers of a greedy run over `n` sites scored with `sw`; nothing
    /// in them is meaningful before the first [`Self::accept`].
    pub(crate) fn new(n: usize, sw: &ScoringWeights) -> Self {
        Self {
            improved: ImprovedPairs::new(n),
            old: DistMatrix::zeros(n),
            removed_pos: 0,
            overrides: Vec::new(),
            changed_nbrs: vec![Vec::new(); n],
            direct_pairs: Vec::new(),
            direct_base: 0.0,
            site_words: n.div_ceil(64),
            screens: Vec::new(),
            row_skip_slack: sw.row_skip_slack_km(),
        }
    }

    /// Add `link`, the candidate at pool position `pos`, to `matrix` and
    /// refill this update with the round: the pre-round copy of `matrix`,
    /// the improved pairs, the designer's exact `overrides`, and the
    /// candidate-independent per-round constants — the direct part's pair
    /// list, base sum and site screens — computed here once rather than by
    /// every shard.
    pub(crate) fn accept(
        &mut self,
        matrix: &mut DistMatrix,
        link: &CandidateLink,
        pos: usize,
        overrides: &[(usize, f64)],
        sw: &ScoringWeights,
    ) {
        self.old.copy_from(matrix);
        improve_with_link_tracked(
            matrix,
            link.site_a,
            link.site_b,
            link.mw_length_km,
            &mut self.improved,
        );
        self.removed_pos = pos;
        self.overrides.clear();
        self.overrides.extend_from_slice(overrides);
        for list in &mut self.changed_nbrs {
            list.clear();
        }
        self.direct_pairs.clear();
        for &(a, b, old_d) in self.improved.pairs() {
            self.old.set_sym(a as usize, b as usize, old_d);
            self.changed_nbrs[a as usize].push(b);
            self.changed_nbrs[b as usize].push(a);
            let w = sw.weights().get(a as usize, b as usize);
            if w > 0.0 {
                let new_d = matrix.get(a as usize, b as usize);
                self.direct_pairs.push((a, b, old_d, new_d, w));
            }
        }
        let den = sw.den();
        self.direct_base = self
            .direct_pairs
            .iter()
            .map(|&(_, _, old_d, new_d, w)| w * (new_d - old_d) / den)
            .sum();
        let n = matrix.n();
        let (floor, slack) = (sw.screen_floor_km(), sw.screen_slack_km());
        self.screens.clear();
        for &(a, b, old_d, _, _) in &self.direct_pairs {
            let (old_a, old_b) = (self.old.row(a as usize), self.old.row(b as usize));
            let (floor_a, floor_b) = (floor.row(a as usize), floor.row(b as usize));
            let bound = old_d + slack;
            let start = self.screens.len();
            self.screens.resize(start + 2 * self.site_words, 0);
            let (near_a, near_b) = self.screens[start..].split_at_mut(self.site_words);
            for s in 0..n {
                near_a[s / 64] |= u64::from(old_a[s] + floor_b[s] < bound) << (s % 64);
                near_b[s / 64] |= u64::from(floor_a[s] + old_b[s] < bound) << (s % 64);
            }
        }
    }

    /// The site screen of the `p`-th direct pair: `(near_a, near_b)`.
    fn screen(&self, p: usize) -> (&[u64], &[u64]) {
        let words = self.site_words;
        self.screens[2 * p * words..2 * (p + 1) * words].split_at(words)
    }
}

/// A shard's per-round working buffers, sized once per greedy run by
/// [`ShardState::init_score`].
#[derive(Default)]
struct RepairScratch {
    /// Membership flags of `affected`; all `false` between candidates.
    in_affected: Vec<bool>,
    /// The current candidate's changed neighbours, deduplicated.
    affected: Vec<u32>,
    /// The current candidate's `i` side, a site bitset: sites `t` with
    /// `d(j,t) − d(i,t) > m − slack` ([`shortcut_sides`]).
    near_i: Vec<u64>,
    /// Its `j` side: sites `t` with `d(i,t) − d(j,t) > m − slack`.
    near_j: Vec<u64>,
}

impl RepairScratch {
    /// Buffers for a shard over `n` sites.
    fn new(n: usize) -> Self {
        Self {
            in_affected: vec![false; n],
            affected: Vec::with_capacity(n),
            near_i: vec![0; n.div_ceil(64)],
            near_j: vec![0; n.div_ceil(64)],
        }
    }
}

/// Fill the two sides of candidate `(i, j, m)` from the endpoints' rows,
/// with `m_slack = m − slack`: `near_i` holds the sites `t` with
/// `d(j,t) − d(i,t) > m_slack`, `near_j` those with `d(i,t) − d(j,t) >
/// m_slack`. A via `d(s,i) + m + d(j,t)` can beat `d(s,t)` only with `s`
/// in `near_i` and `t` in `near_j` (and mirror-wise), so a row's *shortcut
/// cone* is the opposite side of its own
/// ([`ScoringWeights::row_skip_slack_km`] has the argument). With the
/// skip unarmed (`m_slack = −∞`) both sides hold every site whose two
/// distances are not both infinite.
fn shortcut_sides(
    row_i: &[f64],
    row_j: &[f64],
    m_slack: f64,
    near_i: &mut [u64],
    near_j: &mut [u64],
) {
    near_i.fill(0);
    near_j.fill(0);
    for (t, (&d_it, &d_jt)) in row_i.iter().zip(row_j).enumerate() {
        near_i[t / 64] |= u64::from(d_jt - d_it > m_slack) << (t % 64);
        near_j[t / 64] |= u64::from(d_it - d_jt > m_slack) << (t % 64);
    }
}

/// No owned slot: the end of a [`ShardState::parallel_next`] chain.
const NO_SLOT: u32 = u32::MAX;

/// One shard: a stable contiguous range of pool positions, their cached
/// predicted-stretch values and the repair's scratch. [`PoolScorer`] holds
/// one per job of its rounds; a single shard spans the whole pool. All
/// scoring math lives here, so serial and sharded runs are identical by
/// construction.
pub(crate) struct ShardState {
    range: Range<usize>,
    /// Cached predicted mean stretch per owned pool position.
    values: Vec<f64>,
    /// Owned pool positions already accepted into the design.
    removed: Vec<bool>,
    /// Per site `x`, the bitset (`RoundUpdate::site_words` words) of the
    /// sites an owned candidate links `x` to: the pair-major pass meets
    /// each improved pair's screen with it. Built by [`Self::init_score`],
    /// like the two lookups below.
    site_links: Vec<u64>,
    /// `pair_slot[x·n + y]`: the first owned slot linking sites `x` and
    /// `y` (both orientations), or [`NO_SLOT`].
    pair_slot: Vec<u32>,
    /// The next owned slot on the same site pair as this one, or
    /// [`NO_SLOT`]: parallel candidates (one site pair, several lengths).
    parallel_next: Vec<u32>,
    /// Length of each owned slot's candidate.
    slot_len: Vec<f64>,
    /// Endpoints `(site_a, site_b)` of each owned slot's candidate.
    slot_ends: Vec<(u32, u32)>,
    scratch: RepairScratch,
}

impl ShardState {
    /// A shard owning `range` of the pool (values start unscored).
    pub(crate) fn new(range: Range<usize>) -> Self {
        let len = range.len();
        Self {
            range,
            values: vec![f64::INFINITY; len],
            removed: vec![false; len],
            site_links: Vec::new(),
            pair_slot: Vec::new(),
            parallel_next: Vec::new(),
            slot_len: Vec::new(),
            slot_ends: Vec::new(),
            scratch: RepairScratch::default(),
        }
    }

    /// Cached values, indexed by `pool_position - range.start`.
    pub(crate) fn values(&self) -> &[f64] {
        &self.values
    }

    /// The *via part* of one cached prediction's incremental repair: the
    /// signed change contributed by pairs whose via term moved — pairs
    /// incident to a *changed neighbour* (a vertex whose distance to a
    /// candidate endpoint improved) — with the direct term read as-is:
    /// `min(via_new, d) − min(via_old, d)` with `d` the current direct
    /// distance and `via_old` read from the update's pre-round matrix.
    /// Vias only shrink, so only pairs with `via_new < d` can contribute,
    /// and those contribute exactly when `via_new != via_old`.
    ///
    /// On a verified-metric matrix such a pair has one end on each side of
    /// the candidate ([`shortcut_sides`]): a row on neither side is skipped
    /// in O(1), and a row on a side walks only the columns of the opposite
    /// side, its *shortcut cone*, built once per candidate the first time
    /// a row survives. The walk goes row by row in `affected` order and
    /// each row in ascending column order, so the pairs that pass arrive in
    /// the order a scan of every column would add them, and the sum has
    /// that scan's bits.
    ///
    /// Together with the *direct part* ([`ShardState::apply`]'s
    /// candidate-independent base plus pair-major corrections), the repair
    /// telescopes to exactly `min(via_new, d_new) − min(via_old, d_old)`
    /// per pair — a full rescore's change.
    fn via_repair(
        sw: &ScoringWeights,
        matrix: &DistMatrix,
        (i, j, m): (usize, usize, f64),
        update: &RoundUpdate,
        scratch: &mut RepairScratch,
    ) -> f64 {
        let (row_i, row_j) = (matrix.row(i), matrix.row(j));
        let (old_i, old_j) = (update.old.row(i), update.old.row(j));
        let RepairScratch {
            in_affected,
            affected,
            near_i,
            near_j,
        } = scratch;
        let mut dnum = 0.0;

        // The candidate's changed neighbours: vertices whose via-term
        // inputs (distance to an endpoint) moved.
        affected.clear();
        for list in [&update.changed_nbrs[i], &update.changed_nbrs[j]] {
            for &v in list {
                if !in_affected[v as usize] {
                    in_affected[v as usize] = true;
                    affected.push(v);
                }
            }
        }
        // The metric side test, with the slack absorbing float noise in
        // the triangle inequality; unarmed, every finite row and column is
        // on both sides.
        let m_slack = m - update.row_skip_slack.unwrap_or(f64::INFINITY);
        let mut sides_built = false;

        // Via part: every pair incident to a changed neighbour (each
        // unordered pair visited once — a pair inside the affected set is
        // handled by its larger vertex).
        for &s in affected.iter() {
            let s = s as usize;
            let (s_near_i, s_near_j) =
                (row_j[s] - row_i[s] > m_slack, row_i[s] - row_j[s] > m_slack);
            if !(s_near_i || s_near_j) {
                continue;
            }
            if !sides_built {
                shortcut_sides(row_i, row_j, m_slack, near_i, near_j);
                sides_built = true;
            }
            let d_si_m = row_i[s] + m;
            let d_sj_m = row_j[s] + m;
            // The old legs are read down the columns, `old[s][i]` and
            // `old[s][j]`; the matrix is symmetric only up to ulps, and this
            // is the side every cached value was repaired from.
            let d_si_m_old = update.old.get(s, i) + m;
            let d_sj_m_old = update.old.get(s, j) + m;
            let eff_row = matrix.row(s);
            let w_row = sw.weights().row(s);
            let (cone_of_i, cone_of_j) = (
                u64::from(s_near_i).wrapping_neg(),
                u64::from(s_near_j).wrapping_neg(),
            );
            for (word, (&bits_i, &bits_j)) in near_i.iter().zip(near_j.iter()).enumerate() {
                let mut ts = (bits_j & cone_of_i) | (bits_i & cone_of_j);
                while ts != 0 {
                    let t = word * 64 + ts.trailing_zeros() as usize;
                    ts &= ts - 1;
                    let d_st = eff_row[t];
                    let via_new = min_no_nan(d_si_m + row_j[t], d_sj_m + row_i[t]);
                    let via_old = min_no_nan(d_si_m_old + old_j[t], d_sj_m_old + old_i[t]);
                    if !(via_new < d_st && via_new != via_old)
                        || t == s
                        || (in_affected[t] && t < s)
                    {
                        continue;
                    }
                    let w = w_row[t];
                    if w <= 0.0 {
                        continue;
                    }
                    // `via_new < d_st`, so the new term is `via_new`.
                    dnum += w * (via_new - min_no_nan(via_old, d_st));
                }
            }
        }

        for &v in affected.iter() {
            in_affected[v as usize] = false;
        }
        dnum / sw.den()
    }

    /// Score every owned candidate with the exact kernel (round 0), build
    /// the site lookups the pair-major pass walks, and size the repair
    /// scratch.
    pub(crate) fn init_score(&mut self, ctx: &ScoreContext, matrix: &DistMatrix) {
        for (k, pos) in self.range.clone().enumerate() {
            if !self.removed[k] {
                self.values[k] = ctx.exact(matrix, pos);
            }
        }
        let n = matrix.n();
        let words = n.div_ceil(64);
        let len = self.range.len();
        self.site_links = vec![0; n * words];
        self.pair_slot = vec![NO_SLOT; n * n];
        self.parallel_next = vec![NO_SLOT; len];
        self.slot_len = Vec::with_capacity(len);
        self.slot_ends = Vec::with_capacity(len);
        for (k, pos) in self.range.clone().enumerate() {
            let link = &ctx.candidates[ctx.pool[pos]];
            let (i, j) = (link.site_a, link.site_b);
            self.slot_len.push(link.mw_length_km);
            self.slot_ends.push((i as u32, j as u32));
            self.site_links[i * words + j / 64] |= 1 << (j % 64);
            self.site_links[j * words + i / 64] |= 1 << (i % 64);
            self.parallel_next[k] = self.pair_slot[i * n + j];
            self.pair_slot[i * n + j] = k as u32;
            self.pair_slot[j * n + i] = k as u32;
        }
        self.scratch = RepairScratch::new(n);
    }

    /// Apply one accepted-link round: sync the designer's exact overrides,
    /// drop the accepted candidate, then repair every surviving cached
    /// value.
    pub(crate) fn apply(&mut self, ctx: &ScoreContext, matrix: &DistMatrix, update: &RoundUpdate) {
        self.repair_candidate_major(ctx.sw, matrix, update);
        self.correct_direct_pairs(ctx.sw, update);
    }

    /// Pass 1, candidate-major: sync the overrides, drop the accepted
    /// candidate, and add the via part plus the direct base to every
    /// surviving value. A candidate neither of whose endpoints has a
    /// changed neighbour has no via part: it takes `direct_base + 0.0`.
    fn repair_candidate_major(
        &mut self,
        sw: &ScoringWeights,
        matrix: &DistMatrix,
        update: &RoundUpdate,
    ) {
        for &(pos, v) in &update.overrides {
            if self.range.contains(&pos) {
                self.values[pos - self.range.start] = v;
            }
        }
        if self.range.contains(&update.removed_pos) {
            self.removed[update.removed_pos - self.range.start] = true;
        }
        debug_assert_eq!(self.slot_ends.len(), self.range.len(), "init_score not run");
        for k in 0..self.values.len() {
            if self.removed[k] {
                continue;
            }
            let (i, j) = (self.slot_ends[k].0 as usize, self.slot_ends[k].1 as usize);
            let via = if update.changed_nbrs[i].is_empty() && update.changed_nbrs[j].is_empty() {
                0.0
            } else {
                let ends = (i, j, self.slot_len[k]);
                Self::via_repair(sw, matrix, ends, update, &mut self.scratch)
            };
            self.values[k] += update.direct_base + via;
        }
    }

    /// Pass 2, pair-major: the direct part's corrections. A candidate
    /// corrects an improved pair's base only when one of its vias beats
    /// the pair's old distance, and such a candidate passes the pair's site
    /// screen ([`ScoringWeights::arm_geodesic_screen`]); every other
    /// candidate's correction is an exact `+0.0`. So the pass visits only
    /// the owned candidates with one end in `near_a` and the other in
    /// `near_b`, each once per pair, in improved-pair order: each value
    /// sees its additions in the order a visit of every candidate would
    /// add them. A site pair that passes both ways round is visited from
    /// its smaller end only. Nothing masks removed candidates: their values
    /// are never read again.
    fn correct_direct_pairs(&mut self, sw: &ScoringWeights, update: &RoundUpdate) {
        let (n, words) = (update.old.n(), update.site_words);
        for (p, &(a, b, old_d, new_d, w)) in update.direct_pairs.iter().enumerate() {
            let (near_a, near_b) = update.screen(p);
            let (old_a, old_b) = (update.old.row(a as usize), update.old.row(b as usize));
            let dd = new_d - old_d;
            let w_den = w / sw.den();
            for (wx, &x_bits) in near_a.iter().enumerate() {
                let mut xs = x_bits;
                while xs != 0 {
                    let x = wx * 64 + xs.trailing_zeros() as usize;
                    xs &= xs - 1;
                    // With `x` in both sets, a partner `y < x` in `near_a`
                    // passes with the ends swapped too: visit it from `y`.
                    let x_in_b = near_b[wx] >> (x % 64) & 1 == 1;
                    let links = &self.site_links[x * words..(x + 1) * words];
                    for (wy, (&l, (&in_b, &in_a))) in
                        links.iter().zip(near_b.iter().zip(near_a)).enumerate()
                    {
                        let mut ys = l & in_b;
                        if x_in_b {
                            let below_x = match wy.cmp(&wx) {
                                Ordering::Less => u64::MAX,
                                Ordering::Equal => (1u64 << (x % 64)) - 1,
                                Ordering::Greater => 0,
                            };
                            ys &= !(in_a & below_x);
                        }
                        while ys != 0 {
                            let y = wy * 64 + ys.trailing_zeros() as usize;
                            ys &= ys - 1;
                            let mut slot = self.pair_slot[x * n + y];
                            while slot != NO_SLOT {
                                let m = self.slot_len[slot as usize];
                                // Symmetric in `x` and `y`: `min_no_nan` of
                                // two NaN-free operands is order-free.
                                let via_old =
                                    min_no_nan(old_a[x] + m + old_b[y], old_a[y] + m + old_b[x]);
                                self.values[slot as usize] += w_den
                                    * ((min_no_nan(via_old, new_d) - min_no_nan(via_old, old_d))
                                        - dd);
                                slot = self.parallel_next[slot as usize];
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The designer-facing scorer: the pool split into contiguous shards (sizes
/// differing by at most one), each round drained through [`drain_jobs`]
/// with one job per shard; one shard runs inline on the calling thread. The
/// shard math is shared, so the shard count never changes a design.
pub(crate) struct PoolScorer {
    /// One lock per shard, taken only by the job of that shard.
    shards: Vec<Mutex<ShardState>>,
}

impl PoolScorer {
    /// A scorer over a pool of `len` candidates in `shards` shards, clamped
    /// to `1..=len`.
    pub(crate) fn new(len: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, len.max(1));
        let (base, remainder) = (len / shards, len % shards);
        let mut start = 0;
        let shards = (0..shards)
            .map(|k| {
                let size = base + usize::from(k < remainder);
                start += size;
                Mutex::new(ShardState::new(start - size..start))
            })
            .collect();
        Self { shards }
    }

    /// Run `job` on every shard, one [`drain_jobs`] job each, then gather
    /// the shards' cached values into `out` (pool-position-indexed).
    fn round(&mut self, job: impl Fn(&mut ShardState) + Sync, out: &mut [f64]) {
        let shards = &self.shards;
        drain_jobs(
            shards.len(),
            shards.len(),
            || (),
            |_, k| job(&mut shards[k].lock().unwrap()),
        );
        for shard in &mut self.shards {
            let shard = shard.get_mut().unwrap();
            out[shard.range.clone()].copy_from_slice(shard.values());
        }
    }

    /// Score the whole pool against `matrix` with the exact kernel into
    /// `out`.
    pub(crate) fn init(&mut self, ctx: &ScoreContext, matrix: &DistMatrix, out: &mut [f64]) {
        self.round(|shard| shard.init_score(ctx, matrix), out);
    }

    /// Repair every shard from one accepted-link round and collect the
    /// repaired values into `out`.
    pub(crate) fn apply(
        &mut self,
        ctx: &ScoreContext,
        matrix: &DistMatrix,
        update: &RoundUpdate,
        out: &mut [f64],
    ) {
        self.round(|shard| shard.apply(ctx, matrix, update), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisp_graph::pair_count;

    /// A tiny synthetic pool: `n` collinear sites, fiber at 2× geodesic,
    /// uniform traffic, one candidate per pair at 1.05×.
    fn fixture(n: usize) -> (Vec<CandidateLink>, DistMatrix, DistMatrix, DistMatrix) {
        let geodesic = DistMatrix::from_fn(n, |i, j| (i as f64 - j as f64).abs() * 100.0);
        let fiber = DistMatrix::from_fn(n, |i, j| geodesic.get(i, j) * 2.0);
        let traffic = DistMatrix::from_fn(n, |i, j| if i == j { 0.0 } else { 1.0 });
        let mut candidates = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                candidates.push(link(i, j, geodesic.get(i, j) * 1.05));
            }
        }
        (candidates, geodesic, fiber, traffic)
    }

    fn link(site_a: usize, site_b: usize, mw_length_km: f64) -> CandidateLink {
        CandidateLink {
            site_a,
            site_b,
            mw_length_km,
            tower_count: 1,
            tower_path: vec![0],
        }
    }

    /// Arm `sw`'s geodesic site screen over the candidates of `pool`.
    fn arm_screen(
        sw: &mut ScoringWeights,
        geodesic: &DistMatrix,
        fiber: &DistMatrix,
        candidates: &[CandidateLink],
        pool: &[usize],
    ) -> bool {
        sw.arm_geodesic_screen(
            geodesic,
            fiber,
            pool.iter().map(|&c| {
                let l = &candidates[c];
                (l.site_a, l.site_b, l.mw_length_km)
            }),
        )
    }

    /// Accept pool position `pos` into `matrix`, refilling `update`.
    fn accept(
        ctx: &ScoreContext,
        matrix: &mut DistMatrix,
        update: &mut RoundUpdate,
        pos: usize,
        overrides: &[(usize, f64)],
    ) {
        let link = &ctx.candidates[ctx.pool[pos]];
        update.accept(matrix, link, pos, overrides, ctx.sw);
    }

    /// A splitmix64 stream of uniform draws in `[0, 1)`.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as f64 / (u64::MAX as f64 + 1.0)
        }
    }

    /// An uneven design input.
    struct Uneven {
        candidates: Vec<CandidateLink>,
        pool: Vec<usize>,
        geodesic: DistMatrix,
        fiber: DistMatrix,
        traffic: DistMatrix,
    }

    /// `n` random sites in a 2 000 km square; fiber the shortest-path
    /// closure of 1.2–2× geodesic spans (so it is metric); a third of the
    /// pairs carrying no traffic; one candidate per pair closer than 900 km
    /// at 1.01–1.3× geodesic, plus a second, longer one on every seventh;
    /// and a pool that leaves every fifth candidate out.
    fn uneven_fixture(n: usize, seed: u64) -> Uneven {
        let mut draw = Draws(seed);
        let sites: Vec<(f64, f64)> = (0..n)
            .map(|_| (2000.0 * draw.next(), 2000.0 * draw.next()))
            .collect();
        let geodesic = DistMatrix::from_fn(n, |i, j| {
            (sites[i].0 - sites[j].0).hypot(sites[i].1 - sites[j].1)
        });
        let mut fiber = DistMatrix::zeros(n);
        let mut traffic = DistMatrix::zeros(n);
        for i in 0..n {
            for j in (i + 1)..n {
                fiber.set_sym(i, j, geodesic.get(i, j) * (1.2 + 0.8 * draw.next()));
                if draw.next() >= 1.0 / 3.0 {
                    traffic.set_sym(i, j, 0.5 + draw.next());
                }
            }
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    let via = fiber.get(i, k) + fiber.get(k, j);
                    if via < fiber.get(i, j) {
                        fiber.set(i, j, via);
                    }
                }
            }
        }
        let mut candidates = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let g = geodesic.get(i, j);
                if g < 900.0 {
                    candidates.push(link(i, j, g * (1.01 + 0.29 * draw.next())));
                    if candidates.len() % 7 == 0 {
                        candidates.push(link(i, j, g * (1.3 + 0.2 * draw.next())));
                    }
                }
            }
        }
        let pool = (0..candidates.len()).filter(|c| c % 5 != 2).collect();
        Uneven {
            candidates,
            pool,
            geodesic,
            fiber,
            traffic,
        }
    }

    /// Candidate `(i, j)`'s changed neighbours, deduplicated, in the order
    /// [`ShardState::via_repair`] walks them.
    fn affected_rows(update: &RoundUpdate, i: usize, j: usize) -> Vec<usize> {
        let mut affected = Vec::new();
        for list in [&update.changed_nbrs[i], &update.changed_nbrs[j]] {
            for &v in list {
                if !affected.contains(&(v as usize)) {
                    affected.push(v as usize);
                }
            }
        }
        affected
    }

    /// The via part as a full scan: every `t` of every affected row, with
    /// no metric side test and no contribution test in front — what
    /// [`ShardState::via_repair`] must reproduce bit for bit. Also returns
    /// the entries `(s, t)` that add something.
    fn via_repair_reference(
        sw: &ScoringWeights,
        matrix: &DistMatrix,
        link: &CandidateLink,
        update: &RoundUpdate,
    ) -> (f64, Vec<(usize, usize)>) {
        let (i, j, m) = (link.site_a, link.site_b, link.mw_length_km);
        let old = &update.old;
        let affected = affected_rows(update, i, j);
        let mut dnum = 0.0;
        let mut added = Vec::new();
        for &s in &affected {
            for t in 0..matrix.n() {
                let w = sw.weights().get(s, t);
                if t == s || (affected.contains(&t) && t < s) || w <= 0.0 {
                    continue;
                }
                let d_st = matrix.get(s, t);
                let via_new = (matrix.get(i, s) + m + matrix.get(j, t))
                    .min(matrix.get(j, s) + m + matrix.get(i, t));
                let via_old =
                    (old.get(s, i) + m + old.get(j, t)).min(old.get(s, j) + m + old.get(i, t));
                let (new_term, old_term) = (via_new.min(d_st), via_old.min(d_st));
                if new_term != old_term {
                    dnum += w * (new_term - old_term);
                    added.push((s, t));
                }
            }
        }
        (dnum / sw.den(), added)
    }

    /// [`ShardState::via_repair`] on `link`.
    fn via_repair_of(
        sw: &ScoringWeights,
        matrix: &DistMatrix,
        link: &CandidateLink,
        update: &RoundUpdate,
        scratch: &mut RepairScratch,
    ) -> f64 {
        let ends = (link.site_a, link.site_b, link.mw_length_km);
        ShardState::via_repair(sw, matrix, ends, update, scratch)
    }

    #[test]
    fn delta_repair_tracks_exact_rescoring() {
        let n = 7;
        let (candidates, geodesic, fiber, traffic) = fixture(n);
        let pool: Vec<usize> = (0..candidates.len()).collect();
        let mut sw = ScoringWeights::compute(&fiber, &geodesic, &traffic);
        // The fixture's 2×-geodesic fiber is metric, so the repair's O(1)
        // metric row skip and its geodesic site screen are exercised here
        // too — repaired values must still match the exact kernel.
        assert!(sw.arm_row_skip(&fiber));
        assert!(arm_screen(&mut sw, &geodesic, &fiber, &candidates, &pool));
        let mut matrix = fiber.clone();
        let ctx = ScoreContext {
            candidates: &candidates,
            pool: &pool,
            sw: &sw,
        };
        let mut scorer = PoolScorer::new(pool.len(), 1);
        let mut values = vec![0.0; pool.len()];
        scorer.init(&ctx, &matrix, &mut values);

        // Accept candidate 0 and repair the caches incrementally.
        let mut update = RoundUpdate::new(n, &sw);
        accept(&ctx, &mut matrix, &mut update, 0, &[]);
        scorer.apply(&ctx, &matrix, &update, &mut values);

        // Every repaired value matches an exact rescore to ulp noise.
        for (pos, &v) in values.iter().enumerate().skip(1) {
            let exact = ctx.exact(&matrix, pos);
            assert!(
                (v - exact).abs() < 1e-12,
                "pos {pos}: repaired {v} vs exact {exact}"
            );
        }
    }

    /// The repair must stay exact when the metric row skip is *not* armed
    /// as well (non-metric fixtures take this path).
    #[test]
    fn delta_repair_tracks_exact_rescoring_without_metric_skip() {
        let n = 7;
        let (candidates, geodesic, fiber, traffic) = fixture(n);
        let pool: Vec<usize> = (0..candidates.len()).collect();
        let sw = ScoringWeights::compute(&fiber, &geodesic, &traffic);
        let mut matrix = fiber.clone();
        let ctx = ScoreContext {
            candidates: &candidates,
            pool: &pool,
            sw: &sw,
        };
        let mut state = ShardState::new(0..pool.len());
        state.init_score(&ctx, &matrix);
        let mut update = RoundUpdate::new(n, &sw);
        accept(&ctx, &mut matrix, &mut update, 1, &[]);
        assert!(update.row_skip_slack.is_none());
        state.apply(&ctx, &matrix, &update);
        for (pos, &v) in state.values().iter().enumerate() {
            if pos == 1 {
                continue;
            }
            let exact = ctx.exact(&matrix, pos);
            assert!((v - exact).abs() < 1e-12, "pos {pos}: {v} vs {exact}");
        }
    }

    #[test]
    fn repair_stats_accumulate() {
        let n = 6;
        let (candidates, geodesic, fiber, traffic) = fixture(n);
        let pool: Vec<usize> = (0..candidates.len()).collect();
        let mut sw = ScoringWeights::compute(&fiber, &geodesic, &traffic);
        sw.arm_row_skip(&fiber);
        let mut matrix = fiber.clone();
        let ctx = ScoreContext {
            candidates: &candidates,
            pool: &pool,
            sw: &sw,
        };
        let mut state = ShardState::new(0..pool.len());
        state.init_score(&ctx, &matrix);
        let scored = state.values().to_vec();
        let mut update = RoundUpdate::new(n, &sw);
        accept(&ctx, &mut matrix, &mut update, 0, &[]);
        state.apply(&ctx, &matrix, &update);
        // The round drops the accepted candidate and no other, and a built
        // link only shrinks distances: no surviving prediction rises, some
        // fall.
        assert_eq!(state.removed.iter().filter(|&&r| r).count(), 1);
        assert!(state.removed[0]);
        let survivors = || state.values().iter().zip(&scored).skip(1);
        assert!(survivors().all(|(v, s)| *v <= s + 1e-12));
        assert!(survivors().any(|(v, s)| v < s));
    }

    /// Many accepted rounds on the uneven fixture, with and without the
    /// metric row skip and the geodesic site screen, on one shard and on
    /// three uneven ones: after every round each surviving cached value is
    /// within 1e-12 of an exact rescore. Each round accepts the best cached
    /// candidate and overrides the two best with exact values first, as the
    /// designer does. Without the metric skip, ≥ 100 of the checked values
    /// (412 on this fixture) are of *heavy* candidates, whose changed-
    /// neighbour rows times `n` plus the improved pairs reach the pair
    /// count: repaired like every other candidate, they are held to the same
    /// bound.
    #[test]
    fn repaired_values_track_exact_rescoring_over_many_rounds() {
        const ROUNDS: usize = 36;
        let n = 40;
        let f = uneven_fixture(n, 7);
        let len = f.pool.len();
        assert!(len < f.candidates.len() && len > ROUNDS);
        for armed in [false, true] {
            let mut sw = ScoringWeights::compute(&f.fiber, &f.geodesic, &f.traffic);
            if armed {
                assert!(sw.arm_row_skip(&f.fiber));
                assert!(arm_screen(
                    &mut sw,
                    &f.geodesic,
                    &f.fiber,
                    &f.candidates,
                    &f.pool
                ));
            }
            let ctx = ScoreContext {
                candidates: &f.candidates,
                pool: &f.pool,
                sw: &sw,
            };
            let mut heavy = 0;
            for bounds in [vec![0, len], vec![0, len / 5, len / 2, len]] {
                let mut matrix = f.fiber.clone();
                let mut shards: Vec<ShardState> = bounds
                    .windows(2)
                    .map(|w| ShardState::new(w[0]..w[1]))
                    .collect();
                for shard in &mut shards {
                    shard.init_score(&ctx, &matrix);
                }
                let mut update = RoundUpdate::new(n, &sw);
                let mut removed = vec![false; len];
                let mut improving_rounds = 0;
                for round in 0..ROUNDS {
                    let values: Vec<f64> =
                        shards.iter().flat_map(|s| s.values().to_vec()).collect();
                    let mut ranked: Vec<usize> = (0..len).filter(|&p| !removed[p]).collect();
                    ranked.sort_by(|&x, &y| values[x].total_cmp(&values[y]).then(x.cmp(&y)));
                    let overrides: Vec<(usize, f64)> = ranked[..2]
                        .iter()
                        .map(|&p| (p, ctx.exact(&matrix, p)))
                        .collect();
                    let pos = ranked[0];
                    accept(&ctx, &mut matrix, &mut update, pos, &overrides);
                    removed[pos] = true;
                    improving_rounds += usize::from(!update.improved.is_empty());
                    for shard in &mut shards {
                        shard.apply(&ctx, &matrix, &update);
                    }
                    for shard in &shards {
                        for (k, &v) in shard.values().iter().enumerate() {
                            let p = shard.range.start + k;
                            if removed[p] {
                                continue;
                            }
                            let exact = ctx.exact(&matrix, p);
                            assert!(
                                (v - exact).abs() < 1e-12,
                                "armed {armed}, shards {bounds:?}, round {round}, pos {p}: \
                                 repaired {v} vs exact {exact}"
                            );
                            let l = &f.candidates[f.pool[p]];
                            let rows = update.changed_nbrs[l.site_a].len()
                                + update.changed_nbrs[l.site_b].len();
                            heavy += usize::from(
                                !armed && rows * n + update.improved.len() >= pair_count(n),
                            );
                        }
                    }
                }
                assert!(
                    improving_rounds >= 30,
                    "{improving_rounds} improving rounds"
                );
            }
            if !armed {
                assert!(heavy >= 100, "{heavy} heavy values checked");
            }
        }
    }

    /// The via part's metric side test and contribution test skip only
    /// pairs that contribute nothing: on random fixtures and rounds, with
    /// and without the metric side test, every candidate's via part has the
    /// bits of [`via_repair_reference`]'s full scan. A walk written from
    /// the definition checks the shortcut cone ([`shortcut_sides`]): every
    /// entry the reference adds lies in it; armed, it leaves out a positive
    /// share of the columns of the rows that survive the side test;
    /// unarmed, it holds every column of every affected row.
    #[test]
    fn block_filtered_via_repair_matches_a_full_scan() {
        let n = 37;
        let mut nonzero = 0;
        for seed in 1..=5 {
            let f = uneven_fixture(n, seed);
            for armed in [false, true] {
                let mut sw = ScoringWeights::compute(&f.fiber, &f.geodesic, &f.traffic);
                if armed {
                    assert!(sw.arm_row_skip(&f.fiber));
                }
                let mut matrix = f.fiber.clone();
                let mut update = RoundUpdate::new(n, &sw);
                let mut scratch = RepairScratch::new(n);
                let mut draw = Draws(seed);
                let (mut columns, mut in_cone, mut added) = (0, 0, 0);
                for _ in 0..8 {
                    let pos = (draw.next() * f.pool.len() as f64) as usize;
                    update.accept(&mut matrix, &f.candidates[f.pool[pos]], pos, &[], &sw);
                    for &c in &f.pool {
                        let link = &f.candidates[c];
                        let filtered = via_repair_of(&sw, &matrix, link, &update, &mut scratch);
                        let (reference, entries) =
                            via_repair_reference(&sw, &matrix, link, &update);
                        assert_eq!(
                            filtered.to_bits(),
                            reference.to_bits(),
                            "seed {seed}, armed {armed}, candidate {c}: {filtered} vs {reference}"
                        );
                        nonzero += usize::from(reference != 0.0);

                        let (i, j, m) = (link.site_a, link.site_b, link.mw_length_km);
                        let m_slack = m - update.row_skip_slack.unwrap_or(f64::INFINITY);
                        let d = |a: usize, b: usize| matrix.get(a, b);
                        let near_i = |t: usize| d(j, t) - d(i, t) > m_slack;
                        let near_j = |t: usize| d(i, t) - d(j, t) > m_slack;
                        let cone = |s: usize, t: usize| {
                            (near_i(s) && near_j(t)) || (near_j(s) && near_i(t))
                        };
                        for &(s, t) in &entries {
                            assert!(
                                cone(s, t),
                                "seed {seed}, armed {armed}, candidate {c}: ({s}, {t}) adds \
                                 outside the cone"
                            );
                        }
                        added += entries.len();
                        for s in affected_rows(&update, i, j) {
                            if near_i(s) || near_j(s) {
                                columns += n;
                                in_cone += (0..n).filter(|&t| cone(s, t)).count();
                            } else {
                                assert!(armed, "unarmed, row {s} fails the side test");
                            }
                        }
                    }
                }
                let what = format!("seed {seed}, armed {armed}");
                assert!(added > 0 && columns > 0, "{what}: nothing walked");
                if armed {
                    assert!(
                        in_cone < columns,
                        "{what}: the cone holds all {columns} columns"
                    );
                } else {
                    assert_eq!(in_cone, columns, "{what}: unarmed cone leaves columns out");
                }
            }
        }
        assert!(nonzero >= 500, "only {nonzero} non-zero via parts");
    }

    /// Four sites on which a changed neighbour's row passes the metric
    /// side test by the slack alone, while the opposite side is empty: the
    /// via part is exactly `0.0`, as the full scan's. Site 2 is the
    /// changed neighbour of the candidate `(0, 1)`: the accepted link
    /// `(0, 2)` sets `d(1,2)` to `fl(0.1 + 1000)`, which rounds up, so
    /// `d(1,2) − d(0,2)` exceeds `d(0,1)` by an ulp-scale excess. A length
    /// `m` with `m − slack` in `[d(0,1), d(1,2) − d(0,2))` lets row 2
    /// through on the `0` side, while the `1` side, whose best column is
    /// `d(0,1) − d(1,1)`, stays empty.
    #[test]
    fn a_surviving_row_with_an_empty_opposite_side_adds_nothing() {
        let n = 4;
        let fiber = DistMatrix::from_nested(vec![
            vec![0.0, 0.1, 2000.0, 1500.0],
            vec![0.1, 0.0, 2000.0, 1500.0],
            vec![2000.0, 2000.0, 0.0, 1500.0],
            vec![1500.0, 1500.0, 1500.0, 0.0],
        ]);
        let traffic = DistMatrix::from_fn(n, |a, b| if a == b { 0.0 } else { 1.0 });
        let mut sw = ScoringWeights::compute(&fiber, &fiber, &traffic);
        assert!(sw.arm_row_skip(&fiber));
        let slack = sw.row_skip_slack_km().unwrap();
        let mut matrix = fiber.clone();
        let mut update = RoundUpdate::new(n, &sw);
        update.accept(&mut matrix, &link(0, 2, 1000.0), 0, &[], &sw);
        assert_eq!(affected_rows(&update, 0, 1), vec![2]);

        let d01 = matrix.get(0, 1);
        let mut m = d01 + slack;
        while m - slack < d01 {
            m = f64::from_bits(m.to_bits() + 1);
        }
        let m_slack = m - slack;
        let (row_0, row_1) = (matrix.row(0), matrix.row(1));
        assert!(row_1[2] - row_0[2] > m_slack, "row 2 fails the side test");
        let (mut near_0, mut near_1) = (vec![0; 1], vec![0; 1]);
        shortcut_sides(row_0, row_1, m_slack, &mut near_0, &mut near_1);
        assert_eq!((near_0[0] >> 2 & 1, near_1[0]), (1, 0));

        let candidate = link(0, 1, m);
        let mut scratch = RepairScratch::new(n);
        let via = via_repair_of(&sw, &matrix, &candidate, &update, &mut scratch);
        let (reference, entries) = via_repair_reference(&sw, &matrix, &candidate, &update);
        assert_eq!((via.to_bits(), reference.to_bits()), (0, 0));
        assert!(entries.is_empty());
    }

    /// Whether the candidate on sites `i`, `j` passes the `p`-th direct
    /// pair's site screen.
    fn passes_screen(update: &RoundUpdate, p: usize, i: usize, j: usize) -> bool {
        let (near_a, near_b) = update.screen(p);
        let has = |bits: &[u64], s: usize| bits[s / 64] >> (s % 64) & 1 == 1;
        (has(near_a, i) && has(near_b, j)) || (has(near_a, j) && has(near_b, i))
    }

    /// Visit counts of [`correct_direct_pairs_by_length`] over one round.
    #[derive(Default)]
    struct PairMajorVisits {
        /// Candidates the length-prefix scan visits.
        prefix: usize,
        /// Candidates the site screen passes.
        screened: usize,
        /// Visits adding anything other than an exact `+0.0`.
        nonzero: usize,
    }

    /// Pass 2 as the length-prefix scan the site screen replaced: per
    /// improved pair, every owned candidate shorter than the pair's old
    /// distance, in ascending length order (ties by slot), gathered into
    /// length order and copied back once. Asserts that every visit adding
    /// anything other than `+0.0` is to a candidate the screen passes.
    fn correct_direct_pairs_by_length(
        shard: &mut ShardState,
        ctx: &ScoreContext,
        update: &RoundUpdate,
    ) -> PairMajorVisits {
        let link = |slot: u32| &ctx.candidates[ctx.pool[shard.range.start + slot as usize]];
        let mut by_m_slot: Vec<u32> = (0..shard.range.len() as u32).collect();
        by_m_slot.sort_by(|&x, &y| {
            let (mx, my) = (link(x).mw_length_km, link(y).mw_length_km);
            mx.partial_cmp(&my).unwrap().then(x.cmp(&y))
        });
        let by_m_len: Vec<f64> = by_m_slot.iter().map(|&k| link(k).mw_length_km).collect();
        let by_m_sites: Vec<(usize, usize)> = by_m_slot
            .iter()
            .map(|&k| (link(k).site_a, link(k).site_b))
            .collect();
        let mut acc: Vec<f64> = by_m_slot
            .iter()
            .map(|&k| shard.values[k as usize])
            .collect();
        let mut visits = PairMajorVisits::default();
        for (p, &(a, b, old_d, new_d, w)) in update.direct_pairs.iter().enumerate() {
            let len = by_m_len.partition_point(|&m_c| m_c < old_d);
            let (old_a, old_b) = (update.old.row(a as usize), update.old.row(b as usize));
            let dd = new_d - old_d;
            let w_den = w / ctx.sw.den();
            for ((v, &m_c), &(i, j)) in acc[..len]
                .iter_mut()
                .zip(&by_m_len[..len])
                .zip(&by_m_sites[..len])
            {
                let via_old = min_no_nan(old_a[i] + m_c + old_b[j], old_a[j] + m_c + old_b[i]);
                let correction =
                    w_den * ((min_no_nan(via_old, new_d) - min_no_nan(via_old, old_d)) - dd);
                if correction.to_bits() != 0.0f64.to_bits() {
                    assert!(
                        passes_screen(update, p, i, j),
                        "pair ({a}, {b}): candidate ({i}, {j}, {m_c}) corrects by {correction} \
                         but fails the screen"
                    );
                    visits.nonzero += 1;
                }
                *v += correction;
            }
            visits.prefix += len;
            visits.screened += by_m_sites
                .iter()
                .filter(|&&(i, j)| passes_screen(update, p, i, j))
                .count();
        }
        for (&v, &slot) in acc.iter().zip(&by_m_slot) {
            shard.values[slot as usize] = v;
        }
        visits
    }

    /// The screened pair-major pass against the length-prefix reference,
    /// with the geodesic floor armed and disarmed (zero floor), on one
    /// shard and on three uneven ones, over the uneven fixture (parallel
    /// candidates, pool gaps): after every round each shard's values have
    /// the reference's bits. Every candidate with a non-zero correction
    /// passed the screen, and the armed screen skips most of the prefix's
    /// visits.
    #[test]
    fn screened_pair_major_pass_matches_the_length_prefix_reference() {
        const ROUNDS: usize = 32;
        let n = 40;
        let f = uneven_fixture(n, 11);
        let len = f.pool.len();
        let parallel = f.pool.windows(2).any(|w| {
            let (x, y) = (&f.candidates[w[0]], &f.candidates[w[1]]);
            (x.site_a, x.site_b) == (y.site_a, y.site_b)
        });
        assert!(parallel && len < f.candidates.len() && len > ROUNDS);
        for armed in [false, true] {
            let mut sw = ScoringWeights::compute(&f.fiber, &f.geodesic, &f.traffic);
            assert!(sw.arm_row_skip(&f.fiber));
            if armed {
                assert!(arm_screen(
                    &mut sw,
                    &f.geodesic,
                    &f.fiber,
                    &f.candidates,
                    &f.pool
                ));
            }
            let ctx = ScoreContext {
                candidates: &f.candidates,
                pool: &f.pool,
                sw: &sw,
            };
            for bounds in [vec![0, len], vec![0, len / 5, len / 2, len]] {
                let mut matrix = f.fiber.clone();
                let shards = || -> Vec<ShardState> {
                    bounds
                        .windows(2)
                        .map(|w| ShardState::new(w[0]..w[1]))
                        .collect()
                };
                let (mut screened, mut reference) = (shards(), shards());
                for shard in screened.iter_mut().chain(&mut reference) {
                    shard.init_score(&ctx, &matrix);
                }
                let mut update = RoundUpdate::new(n, &sw);
                let mut removed = vec![false; len];
                let mut totals = PairMajorVisits::default();
                for round in 0..ROUNDS {
                    let values: Vec<f64> =
                        screened.iter().flat_map(|s| s.values().to_vec()).collect();
                    let pos = (0..len)
                        .filter(|&p| !removed[p])
                        .min_by(|&x, &y| values[x].total_cmp(&values[y]).then(x.cmp(&y)))
                        .unwrap();
                    let exact = ctx.exact(&matrix, pos);
                    accept(&ctx, &mut matrix, &mut update, pos, &[(pos, exact)]);
                    removed[pos] = true;
                    for (s, r) in screened.iter_mut().zip(&mut reference) {
                        s.apply(&ctx, &matrix, &update);
                        r.repair_candidate_major(&sw, &matrix, &update);
                        let visits = correct_direct_pairs_by_length(r, &ctx, &update);
                        totals.prefix += visits.prefix;
                        totals.screened += visits.screened;
                        totals.nonzero += visits.nonzero;
                        for (k, (x, y)) in s.values().iter().zip(r.values()).enumerate() {
                            assert_eq!(
                                x.to_bits(),
                                y.to_bits(),
                                "armed {armed}, shards {bounds:?}, round {round}, slot {k}: \
                                 screened {x} vs reference {y}"
                            );
                        }
                    }
                }
                let what = format!("armed {armed}, shards {bounds:?}");
                assert!(totals.nonzero >= 500, "{what}: {} non-zero", totals.nonzero);
                if armed {
                    assert!(
                        2 * totals.screened < totals.prefix,
                        "{what}: screen passes {} of the prefix's {} visits",
                        totals.screened,
                        totals.prefix
                    );
                }
            }
        }
    }
}
