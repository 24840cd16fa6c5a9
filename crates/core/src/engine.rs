//! The incremental delta-scoring engine and its persistent worker shards.
//!
//! The greedy designer's cost used to be dominated by full O(n²) rescoring
//! sweeps: after every accepted link, every surviving candidate's predicted
//! mean stretch was recomputed from scratch. This module replaces that with
//! per-candidate *cached* predictions that are repaired incrementally from
//! the accepted link's [`ImprovedPairs`] delta:
//!
//! A candidate's predicted stretch is `Σ w(s,t) · min(D[s][t], via(s,t))`
//! (over the objective's pairs, divided by `Σ w · g`-weights), where
//! `via(s,t)` uses only rows `i` and `j` of the matrix — the candidate's
//! endpoints. After a link is accepted, a pair's term can change only if one
//! of its five inputs changed: `(s,t)` itself improved, or `s`/`t` is a
//! *changed neighbour* of an endpoint (its distance to `i` or `j`
//! improved). [`ShardState::apply`] therefore repairs each cached value by
//! visiting exactly those pairs — the improved list plus the rows of the
//! candidate's changed neighbours — reconstructing each pair's old term from
//! the delta's recorded old distances ([`RoundUpdate::old_dist`]) and
//! subtracting it from the new term. Distances only shrink, so a
//! monotonicity fast path skips most row entries without touching the old
//! values at all. A candidate whose repair would visit at least as many
//! pairs as a full sweep is re-scored with the exact kernel instead
//! (deterministically in the accepted link, so serial and parallel runs stay
//! bit-identical).
//!
//! The repair is mathematically identical to a full rescore — only
//! floating-point summation order differs, which the designer absorbs by
//! re-scoring the winning candidate with the exact kernel before accepting
//! it. The residual caveat: candidates whose exact scores tie to within the
//! repair's ulp-level noise (~1e-14 relative) could in principle be ranked
//! differently than by full rescoring; the parity property tests pin the
//! engine to a naive full-rescoring greedy on every fixture tried.
//!
//! Parallelism comes from **persistent worker shards** ([`ShardPool`]):
//! instead of a fresh `cisp_netsim::jobs::drain_jobs` fan-out per scoring
//! round (what the fallback greedy's stateless batches get), worker
//! threads are spawned once per design run, each *owning a stable contiguous
//! slice of the candidate pool* (and that slice's cached predictions) across
//! all greedy rounds. Rounds are one command broadcast and one reply
//! collection per worker; the matrix being scored against is shared behind a
//! [`RwLock`] that the designer write-locks only to apply an accepted link.
//! The shards serve the greedy only: the swap polish decides most of its
//! trials from a bound and scores the few that are left on the calling
//! thread (see [`crate::design`]), so there is no trial command here.
//!
//! [`exact_score`] is the one place a run's exact kernel is chosen; the
//! shards, the greedy and the polish all score through it.

use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, RwLock};
use std::thread::Scope;

use cisp_graph::{pair_count, pair_index, DistMatrix, ImprovedPairs};

use crate::links::CandidateLink;
use crate::topology::{mean_stretch_with_link, mean_stretch_with_link_compact, ScoringWeights};

/// Everything a scoring shard needs to score its candidates: the candidate
/// pool, the weighting matrices, and the (designer-updated) matrix scored
/// against. Shared immutably with every worker for the lifetime of a design
/// run.
pub struct ScoreContext<'a> {
    /// All candidate links of the design input.
    pub candidates: &'a [CandidateLink],
    /// The candidate pool: indices into `candidates`, in selection-priority
    /// tie-break order. Shards own stable contiguous ranges of this slice.
    pub pool: &'a [usize],
    /// Geodesic distances (stretch denominator weights).
    pub geodesic: &'a DistMatrix,
    /// Traffic weights.
    pub traffic: &'a DistMatrix,
    /// The matrix candidates are scored against — the greedy's effective
    /// matrix. The designer write-locks it between rounds; shards read-lock
    /// it while scoring.
    pub matrix: &'a RwLock<DistMatrix>,
    /// Compacted per-run scoring weights ([`ScoringWeights::compute`]
    /// against the run's starting matrix): every exact score goes through
    /// the vectorised compact kernel, and the repair sweeps read their `h/g`
    /// weights from here. A run whose starting matrix admits none has no
    /// cached predictions to repair and never builds a context.
    pub sw: &'a ScoringWeights,
}

impl ScoreContext<'_> {
    /// [`exact_score`] of pool position `pos` against `matrix`.
    #[inline]
    pub fn exact(&self, matrix: &DistMatrix, pos: usize) -> f64 {
        exact_score(
            matrix,
            self.geodesic,
            self.traffic,
            Some(self.sw),
            &self.candidates[self.pool[pos]],
        )
    }
}

/// Predicted mean stretch of `matrix` with `link` added — the one place a
/// design run picks its exact kernel: the compact vectorised kernel when the
/// run precomputed [`ScoringWeights`], the scalar reference kernel
/// otherwise. The two agree to summation ulp (pinned by the kernel parity
/// tests), not bitwise, so every exact score of a run — the greedy's
/// batches, the shards' re-scores, the winner's refresh, the swap polish's
/// bounds and trials — comes through here with that run's one `sw` and
/// never mixes them.
#[inline]
pub fn exact_score(
    matrix: &DistMatrix,
    geodesic: &DistMatrix,
    traffic: &DistMatrix,
    sw: Option<&ScoringWeights>,
    link: &CandidateLink,
) -> f64 {
    let (i, j, m) = (link.site_a, link.site_b, link.mw_length_km);
    match sw {
        Some(sw) => mean_stretch_with_link_compact(matrix, sw, i, j, m),
        None => mean_stretch_with_link(matrix, geodesic, traffic, i, j, m),
    }
}

/// Width of the repair sweep's blockwise row scan: candidate-beats-pair
/// tests are evaluated `REPAIR_BLOCK` pairs at a time, with a one-compare
/// per-block lower-bound skip in front of the branchless any-hit fold.
const REPAIR_BLOCK: usize = 16;

/// The per-round delta the designer broadcasts to every shard after
/// accepting a link, with the lookup structures the repair sweeps need
/// (built once, shared by every shard).
#[derive(Debug)]
pub struct RoundUpdate {
    /// The accepted link's improved-pair set (old distances included), from
    /// [`cisp_graph::improve_with_link_tracked`].
    improved: ImprovedPairs,
    /// Pool position of the accepted candidate — removed from scoring.
    removed_pos: Option<usize>,
    /// Exact kernel values the designer computed during selection (pool
    /// position, predicted stretch *before* the accepted link). Applied
    /// before the delta so shard caches match what the designer compared.
    overrides: Vec<(usize, f64)>,
    /// Old distance of each improved pair, dense over [`pair_index`]
    /// (meaningful only where the improved-pair bitset is set).
    old_overlay: Vec<f64>,
    /// `changed_nbrs[v]` = vertices whose distance to `v` improved.
    changed_nbrs: Vec<Vec<u32>>,
    /// The direct part's scored pairs `(a, b, old, new, weight)` (positive
    /// objective weight only).
    direct_pairs: Vec<(u32, u32, f64, f64, f64)>,
    /// The direct part's candidate-independent base,
    /// `Σ w·(new − old) / den`, in predicted-stretch units.
    direct_base: f64,
    /// Largest current distance per row — the via part's row-prune bound.
    row_max: Vec<f64>,
    /// Largest current distance per [`REPAIR_BLOCK`]-wide block of each row
    /// (row-major, `n.div_ceil(REPAIR_BLOCK)` entries per row) — the via
    /// part's per-block prune bound.
    row_blockmax: Vec<f64>,
    /// Distance slack of the metric row-skip test
    /// ([`ScoringWeights::row_skip_slack_km`]); `None` when the run's
    /// matrix was not verified metric, disabling the skip.
    row_skip_slack: Option<f64>,
}

impl RoundUpdate {
    /// Package one accepted link's delta for broadcast. `matrix` is the
    /// updated (post-link) matrix the shards will score against; the
    /// candidate-independent per-round constants — the direct part's pair
    /// list and base sum, and the row maxima — are computed here once
    /// rather than by every shard.
    pub fn new(
        improved: ImprovedPairs,
        removed_pos: Option<usize>,
        overrides: Vec<(usize, f64)>,
        matrix: &DistMatrix,
        sw: &ScoringWeights,
    ) -> Self {
        let n = improved.n();
        let den = sw.den();
        let mut old_overlay = vec![0.0; pair_count(n)];
        let mut changed_nbrs: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(a, b, old) in improved.pairs() {
            old_overlay[pair_index(n, a as usize, b as usize)] = old;
            changed_nbrs[a as usize].push(b);
            changed_nbrs[b as usize].push(a);
        }
        let direct_pairs: Vec<(u32, u32, f64, f64, f64)> = improved
            .pairs()
            .iter()
            .filter_map(|&(a, b, old_d)| {
                let w = sw.weights().get(a as usize, b as usize);
                (w > 0.0).then(|| (a, b, old_d, matrix.get(a as usize, b as usize), w))
            })
            .collect();
        let direct_base = direct_pairs
            .iter()
            .map(|&(_, _, old_d, new_d, w)| w * (new_d - old_d) / den)
            .sum();
        let nb = n.div_ceil(REPAIR_BLOCK);
        let mut row_max = vec![0.0_f64; n];
        let mut row_blockmax = vec![0.0_f64; n * nb];
        for s in 0..n {
            for (b, chunk) in matrix.row(s).chunks(REPAIR_BLOCK).enumerate() {
                let m = chunk.iter().copied().fold(0.0_f64, f64::max);
                row_blockmax[s * nb + b] = m;
                row_max[s] = row_max[s].max(m);
            }
        }
        Self {
            improved,
            removed_pos,
            overrides,
            old_overlay,
            changed_nbrs,
            direct_pairs,
            direct_base,
            row_max,
            row_blockmax,
            row_skip_slack: sw.row_skip_slack_km(),
        }
    }

    /// The pre-update distance of `(x, y)`, reconstructed from the delta:
    /// the recorded old value for improved pairs, the (unchanged) current
    /// value otherwise.
    #[inline]
    fn old_dist(&self, matrix: &DistMatrix, x: usize, y: usize) -> f64 {
        if x == y {
            return matrix.get(x, y);
        }
        let (a, b) = if x < y { (x, y) } else { (y, x) };
        let p = pair_index(self.improved.n(), a, b);
        if self.improved.pair_set().contains(p) {
            self.old_overlay[p]
        } else {
            matrix.get(x, y)
        }
    }
}

/// One shard: a stable contiguous range of pool positions and their cached
/// predicted-stretch values. [`ShardPool`] workers each own one; the serial
/// path owns a single shard spanning the whole pool. All scoring math lives
/// here, so serial and sharded runs are identical by construction.
#[derive(Clone)]
pub struct ShardState {
    range: Range<usize>,
    /// Cached predicted mean stretch per owned pool position.
    values: Vec<f64>,
    /// Owned pool positions already accepted into the design.
    removed: Vec<bool>,
    /// Owned candidates as `(mw_length_km, pool_position)`, ascending by
    /// length — the pair-major correction pass iterates the prefix whose
    /// length (a lower bound on any via through the candidate) stays below
    /// an improved pair's old distance. Built by [`Self::init_score`].
    by_m: Vec<(f64, u32)>,
    /// The endpoint sites of each `by_m` entry, same order — a compact
    /// parallel array so the correction pass streams sequentially instead
    /// of chasing `candidates[pool[pos]]` pointers per prefix entry.
    by_m_sites: Vec<(u32, u32)>,
}

impl ShardState {
    /// A shard owning `range` of the pool (values start unscored).
    pub fn new(range: Range<usize>) -> Self {
        let len = range.len();
        Self {
            range,
            values: vec![f64::INFINITY; len],
            removed: vec![false; len],
            by_m: Vec::new(),
            by_m_sites: Vec::new(),
        }
    }

    /// Cached values, indexed by `pool_position - range.start`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The *via part* of one cached prediction's incremental repair: the
    /// signed change contributed by pairs whose via term moved — pairs
    /// incident to a *changed neighbour* (a vertex whose distance to a
    /// candidate endpoint improved) — with the direct term read as-is:
    /// `min(via_new, d) − min(via_old, d)` with `d` the current direct
    /// distance. Vias only shrink, so rows are swept with a single-compare
    /// fast path: a pair the candidate does not beat *now* was not beaten
    /// before either, contributing zero.
    ///
    /// Together with the *direct part* ([`ShardState::apply`]'s
    /// candidate-independent base plus pair-major corrections), the repair
    /// telescopes to exactly `min(via_new, d_new) − min(via_old, d_old)`
    /// per pair — a full rescore's change.
    fn via_repair(
        sw: &ScoringWeights,
        matrix: &DistMatrix,
        link: &CandidateLink,
        update: &RoundUpdate,
        in_affected: &mut [bool],
        affected: &mut Vec<u32>,
        blockmin: &mut Vec<f64>,
    ) -> f64 {
        let n = matrix.n();
        let nb = n.div_ceil(REPAIR_BLOCK);
        let (i, j, m) = (link.site_a, link.site_b, link.mw_length_km);
        let row_i = matrix.row(i);
        let row_j = matrix.row(j);
        let mut dnum = 0.0;
        // Per-block minima of the endpoint rows, for the per-block skip
        // below. Built lazily: candidates whose every affected row is
        // dismissed by the O(1) row tests never pay the 2n-op build.
        let mut blockmin_ready = false;

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
        // Metric row skip: on a verified-metric matrix a via through this
        // candidate can only beat some pair of row `s` if the endpoints'
        // distances to `s` differ by more than the link length
        // (`d_si + m < d_st ≤ d_sj + d_jt` minus the common `d_jt` leg
        // forces `d_si + m < d_sj`, and symmetrically) — an O(1) test that
        // skips the whole row scan, with the slack absorbing float noise
        // in the triangle inequality.
        let m_slack = m - update.row_skip_slack.unwrap_or(f64::INFINITY);

        // Via part: every pair incident to a changed neighbour (each
        // unordered pair visited once — a pair inside the affected set is
        // handled by its larger vertex).
        for &s in affected.iter() {
            let s = s as usize;
            if (row_i[s] - row_j[s]).abs() <= m_slack {
                continue;
            }
            let d_si_m = row_i[s] + m;
            let d_sj_m = row_j[s] + m;
            // Row prune: every via through this row is at least
            // `min(d_si, d_sj) + m`; if that already exceeds the row's
            // largest current distance, no pair of the row can be beaten
            // and the whole row contributes nothing.
            if d_si_m.min(d_sj_m) >= update.row_max[s] {
                continue;
            }
            let d_si_old = update.old_dist(matrix, s, i);
            let d_sj_old = update.old_dist(matrix, s, j);
            let eff_row = matrix.row(s);
            let w_row = sw.weights().row(s);
            if !blockmin_ready {
                blockmin.clear();
                blockmin.extend(
                    row_i
                        .chunks(REPAIR_BLOCK)
                        .map(|c| c.iter().copied().fold(f64::INFINITY, f64::min)),
                );
                blockmin.extend(
                    row_j
                        .chunks(REPAIR_BLOCK)
                        .map(|c| c.iter().copied().fold(f64::INFINITY, f64::min)),
                );
                blockmin_ready = true;
            }
            let (bmin_i, bmin_j) = blockmin.split_at(nb);
            let row_bmax = &update.row_blockmax[s * nb..(s + 1) * nb];
            // Blockwise scan, two tiers per block: a one-compare lower-bound
            // skip (the cheapest via anyone in the block could offer, from
            // the endpoint rows' block minima, against the block's largest
            // current distance), then a branchless vector-friendly pass
            // asking "does the candidate beat any pair in this block?" —
            // only blocks with a hit (rare — the fast-path rate is a few
            // percent) are re-walked scalar. A pair the candidate does not
            // beat now was (vias only shrink) not beaten before either and
            // contributes nothing.
            let mut t0 = 0;
            for b in 0..nb {
                let t1 = (t0 + REPAIR_BLOCK).min(n);
                if (d_si_m + bmin_j[b]).min(d_sj_m + bmin_i[b]) >= row_bmax[b] {
                    t0 = t1;
                    continue;
                }
                let any_hit = row_j[t0..t1]
                    .iter()
                    .zip(&row_i[t0..t1])
                    .zip(&eff_row[t0..t1])
                    .fold(false, |acc, ((&d_jt, &d_it), &d_st)| {
                        acc | ((d_si_m + d_jt).min(d_sj_m + d_it) < d_st)
                    });
                if !any_hit {
                    t0 = t1;
                    continue;
                }
                for t in t0..t1 {
                    let (d_jt, d_it, d_st) = (row_j[t], row_i[t], eff_row[t]);
                    let via_new = (d_si_m + d_jt).min(d_sj_m + d_it);
                    if via_new >= d_st {
                        continue;
                    }
                    if t == s || (in_affected[t] && t < s) {
                        continue;
                    }
                    let w = w_row[t];
                    if w <= 0.0 {
                        continue;
                    }
                    // Old t-side via inputs moved only for changed
                    // neighbours.
                    let (old_jt, old_it) = if in_affected[t] {
                        (update.old_dist(matrix, j, t), update.old_dist(matrix, i, t))
                    } else {
                        (d_jt, d_it)
                    };
                    let via_old = (d_si_old + m + old_jt).min(d_sj_old + m + old_it);
                    let new_term = via_new.min(d_st);
                    let old_term = via_old.min(d_st);
                    if new_term != old_term {
                        dnum += w * (new_term - old_term);
                    }
                }
                t0 = t1;
            }
        }

        for &v in affected.iter() {
            in_affected[v as usize] = false;
        }
        dnum / sw.den()
    }

    /// Score every owned candidate with the exact kernel (round 0), and
    /// build the length-sorted candidate index the correction pass uses.
    pub fn init_score(&mut self, ctx: &ScoreContext) {
        let matrix = ctx.matrix.read().unwrap();
        for (k, pos) in self.range.clone().enumerate() {
            if !self.removed[k] {
                self.values[k] = ctx.exact(&matrix, pos);
            }
        }
        self.by_m = self
            .range
            .clone()
            .map(|pos| (ctx.candidates[ctx.pool[pos]].mw_length_km, pos as u32))
            .collect();
        self.by_m
            .sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap().then(x.1.cmp(&y.1)));
        self.by_m_sites = self
            .by_m
            .iter()
            .map(|&(_, pos)| {
                let l = &ctx.candidates[ctx.pool[pos as usize]];
                (l.site_a as u32, l.site_b as u32)
            })
            .collect();
    }

    /// Apply one accepted-link round: sync the designer's exact overrides,
    /// drop the accepted candidate, then repair every surviving cached
    /// value. A candidate whose repair would visit at least as many pairs as
    /// a full sweep is re-scored with the exact kernel instead.
    pub fn apply(&mut self, ctx: &ScoreContext, update: &RoundUpdate) {
        for &(pos, v) in &update.overrides {
            if self.range.contains(&pos) {
                self.values[pos - self.range.start] = v;
            }
        }
        if let Some(pos) = update.removed_pos {
            if self.range.contains(&pos) {
                self.removed[pos - self.range.start] = true;
            }
        }
        let n = ctx.geodesic.n();
        let pairs = pair_count(n);
        let improved_len = update.improved.len();
        debug_assert_eq!(self.by_m.len(), self.range.len(), "init_score not run");
        let sw = ctx.sw;
        let mut in_affected = vec![false; n];
        let mut affected: Vec<u32> = Vec::with_capacity(n);
        let mut blockmin: Vec<f64> = Vec::with_capacity(2 * n.div_ceil(REPAIR_BLOCK));
        let matrix = ctx.matrix.read().unwrap();

        // Pass 1, candidate-major: the via part plus the direct base. A
        // candidate whose repair would visit more pairs than a full sweep
        // costs is deferred to an exact kernel re-score instead (pass 3).
        // With the metric row skip armed most affected rows are dismissed
        // in O(1), so a repaired row is far cheaper than a swept one and
        // the break-even point moves towards repair accordingly.
        let row_cost_div = if update.row_skip_slack.is_some() {
            4
        } else {
            1
        };
        let mut needs_exact: Vec<u32> = Vec::new();
        for (k, pos) in self.range.clone().enumerate() {
            if self.removed[k] {
                continue;
            }
            let l = &ctx.candidates[ctx.pool[pos]];
            let neighbour_rows =
                update.changed_nbrs[l.site_a].len() + update.changed_nbrs[l.site_b].len();
            if neighbour_rows * n / row_cost_div + improved_len >= pairs {
                needs_exact.push(k as u32);
            } else {
                self.values[k] += update.direct_base
                    + Self::via_repair(
                        sw,
                        &matrix,
                        l,
                        update,
                        &mut in_affected,
                        &mut affected,
                        &mut blockmin,
                    );
            }
        }

        // Pass 2, pair-major: the direct part's corrections. A candidate
        // corrects the base only when one of its vias beats the pair's old
        // distance; every via is at least the candidate's own length, so
        // only the length-sorted prefix below `old_d` can contribute, and
        // the branchless clamp form makes non-contributing candidates add
        // an exact zero. Old distances are expanded into two row buffers
        // per pair, so the inner loop reads hot rows only.
        let shortest_m = self.by_m.first().map_or(f64::INFINITY, |&(m, _)| m);
        let mut old_row_a = vec![0.0; n];
        let mut old_row_b = vec![0.0; n];
        for &(a, b, old_d, new_d, w) in &update.direct_pairs {
            if shortest_m >= old_d {
                continue; // no owned candidate can beat this pair's old distance
            }
            let (a, b) = (a as usize, b as usize);
            for t in 0..n {
                old_row_a[t] = update.old_dist(&matrix, a, t);
                old_row_b[t] = update.old_dist(&matrix, b, t);
            }
            let dd = new_d - old_d;
            let w_den = w / sw.den();
            // Streams the compact parallel arrays only: no per-entry
            // `candidates[pool[pos]]` pointer chase, and no removed/deferred
            // mask test — a removed candidate's value is never read again,
            // and a deferred one's is overwritten by pass 3, so adding their
            // (exact) corrections is harmless.
            for (&(m_c, pos), &(i, j)) in self.by_m.iter().zip(&self.by_m_sites) {
                if m_c >= old_d {
                    break; // ascending: every later via is ≥ old_d
                }
                let (i, j) = (i as usize, j as usize);
                let via_old =
                    (old_row_a[i] + m_c + old_row_b[j]).min(old_row_a[j] + m_c + old_row_b[i]);
                let corr = (via_old.min(new_d) - via_old.min(old_d)) - dd;
                self.values[pos as usize - self.range.start] += w_den * corr;
            }
        }

        // Pass 3: the deferred exact re-scores (overwriting whatever the
        // correction pass added to them).
        for &k in &needs_exact {
            self.values[k as usize] = ctx.exact(&matrix, self.range.start + k as usize);
        }
    }
}

enum Cmd {
    Init,
    Apply(Arc<RoundUpdate>),
}

/// Persistent worker shards: one scoped thread per shard, alive for the
/// whole design run, each owning a stable contiguous slice of the candidate
/// pool. Communication is one command and one reply — the shard's cached
/// values — per worker per round.
pub struct ShardPool {
    txs: Vec<Sender<Cmd>>,
    rxs: Vec<Receiver<Vec<f64>>>,
    ranges: Vec<Range<usize>>,
}

impl ShardPool {
    /// Split `ctx.pool` into `workers` contiguous shards (sizes differing by
    /// at most one) and spawn one persistent scoped worker per shard.
    /// Workers exit when the pool is dropped (their command channels close),
    /// which is before the scope joins.
    pub fn spawn<'scope, 'env>(
        scope: &'scope Scope<'scope, 'env>,
        ctx: &'env ScoreContext<'env>,
        workers: usize,
    ) -> Self {
        let len = ctx.pool.len();
        let workers = workers.clamp(1, len.max(1));
        let base = len / workers;
        let remainder = len % workers;
        let mut txs = Vec::with_capacity(workers);
        let mut rxs = Vec::with_capacity(workers);
        let mut ranges = Vec::with_capacity(workers);
        let mut start = 0;
        for w in 0..workers {
            let size = base + usize::from(w < remainder);
            let range = start..start + size;
            start += size;
            let (cmd_tx, cmd_rx) = channel::<Cmd>();
            let (reply_tx, reply_rx) = channel::<Vec<f64>>();
            let mut state = ShardState::new(range.clone());
            scope.spawn(move || {
                while let Ok(cmd) = cmd_rx.recv() {
                    match cmd {
                        Cmd::Init => state.init_score(ctx),
                        Cmd::Apply(update) => state.apply(ctx, &update),
                    }
                    if reply_tx.send(state.values().to_vec()).is_err() {
                        break;
                    }
                }
            });
            txs.push(cmd_tx);
            rxs.push(reply_rx);
            ranges.push(range);
        }
        Self { txs, rxs, ranges }
    }

    fn collect_values(&self, out: &mut [f64]) {
        for (rx, range) in self.rxs.iter().zip(&self.ranges) {
            out[range.clone()].copy_from_slice(&rx.recv().expect("scoring shard died"));
        }
    }
}

/// The designer-facing scorer: a single inline shard when the run has one
/// shard, a [`ShardPool`] otherwise. Identical numbers either way — the
/// shard math is shared — so the shard count never changes a design.
pub enum PoolScorer {
    /// One shard spanning the whole pool, run on the calling thread.
    Inline(Box<ShardState>),
    /// Persistent worker shards.
    Sharded(ShardPool),
}

impl PoolScorer {
    /// An inline scorer over a pool of `len` candidates.
    pub fn inline(len: usize) -> Self {
        Self::Inline(Box::new(ShardState::new(0..len)))
    }

    /// Score the whole pool with the exact kernel into `out`
    /// (pool-position-indexed).
    pub fn init(&mut self, ctx: &ScoreContext, out: &mut [f64]) {
        match self {
            Self::Inline(state) => {
                state.init_score(ctx);
                out.copy_from_slice(state.values());
            }
            Self::Sharded(pool) => {
                for tx in &pool.txs {
                    tx.send(Cmd::Init).expect("scoring shard died");
                }
                pool.collect_values(out);
            }
        }
    }

    /// Broadcast one accepted-link round and collect the repaired values
    /// into `out`.
    pub fn apply(&mut self, ctx: &ScoreContext, update: RoundUpdate, out: &mut [f64]) {
        match self {
            Self::Inline(state) => {
                state.apply(ctx, &update);
                out.copy_from_slice(state.values());
            }
            Self::Sharded(pool) => {
                let update = Arc::new(update);
                for tx in &pool.txs {
                    tx.send(Cmd::Apply(Arc::clone(&update)))
                        .expect("scoring shard died");
                }
                pool.collect_values(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisp_graph::improve_with_link_tracked;

    /// A tiny synthetic pool: `n` collinear sites, fiber at 2× geodesic,
    /// uniform traffic, one candidate per pair at 1.05×.
    fn fixture(n: usize) -> (Vec<CandidateLink>, DistMatrix, DistMatrix, DistMatrix) {
        let geodesic = DistMatrix::from_fn(n, |i, j| (i as f64 - j as f64).abs() * 100.0);
        let fiber = DistMatrix::from_fn(n, |i, j| geodesic.get(i, j) * 2.0);
        let traffic = DistMatrix::from_fn(n, |i, j| if i == j { 0.0 } else { 1.0 });
        let mut candidates = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                candidates.push(CandidateLink {
                    site_a: i,
                    site_b: j,
                    mw_length_km: geodesic.get(i, j) * 1.05,
                    tower_count: 1,
                    tower_path: vec![0],
                });
            }
        }
        (candidates, geodesic, fiber, traffic)
    }

    #[test]
    fn delta_repair_tracks_exact_rescoring() {
        let n = 7;
        let (candidates, geodesic, fiber, traffic) = fixture(n);
        let pool: Vec<usize> = (0..candidates.len()).collect();
        let mut sw = ScoringWeights::compute(&fiber, &geodesic, &traffic).unwrap();
        // The fixture's 2×-geodesic fiber is metric, so the repair's O(1)
        // metric row skip is exercised here too — repaired values must
        // still match the exact kernel.
        assert!(sw.enable_gain_bounds(&fiber));
        let matrix = RwLock::new(fiber.clone());
        let ctx = ScoreContext {
            candidates: &candidates,
            pool: &pool,
            geodesic: &geodesic,
            traffic: &traffic,
            matrix: &matrix,
            sw: &sw,
        };
        let mut scorer = PoolScorer::inline(pool.len());
        let mut values = vec![0.0; pool.len()];
        scorer.init(&ctx, &mut values);

        // Accept candidate 0 and repair the caches incrementally.
        let accepted = candidates[0].clone();
        let mut improved = ImprovedPairs::new(n);
        {
            let mut m = matrix.write().unwrap();
            improve_with_link_tracked(
                &mut m,
                accepted.site_a,
                accepted.site_b,
                accepted.mw_length_km,
                &mut improved,
            );
        }
        scorer.apply(
            &ctx,
            RoundUpdate::new(improved, Some(0), Vec::new(), &matrix.read().unwrap(), &sw),
            &mut values,
        );

        // Every repaired value matches an exact rescore to ulp noise.
        let m = matrix.read().unwrap();
        for (pos, &v) in values.iter().enumerate().skip(1) {
            let exact = ctx.exact(&m, pos);
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
        let sw = ScoringWeights::compute(&fiber, &geodesic, &traffic).unwrap();
        let matrix = RwLock::new(fiber.clone());
        let ctx = ScoreContext {
            candidates: &candidates,
            pool: &pool,
            geodesic: &geodesic,
            traffic: &traffic,
            matrix: &matrix,
            sw: &sw,
        };
        let mut state = ShardState::new(0..pool.len());
        state.init_score(&ctx);
        let accepted = candidates[1].clone();
        let mut improved = ImprovedPairs::new(n);
        {
            let mut m = matrix.write().unwrap();
            improve_with_link_tracked(
                &mut m,
                accepted.site_a,
                accepted.site_b,
                accepted.mw_length_km,
                &mut improved,
            );
        }
        let update = RoundUpdate::new(improved, Some(1), Vec::new(), &matrix.read().unwrap(), &sw);
        assert!(update.row_skip_slack.is_none());
        state.apply(&ctx, &update);
        let m = matrix.read().unwrap();
        for (pos, &v) in state.values().iter().enumerate() {
            if pos == 1 {
                continue;
            }
            let exact = ctx.exact(&m, pos);
            assert!((v - exact).abs() < 1e-12, "pos {pos}: {v} vs {exact}");
        }
    }

    #[test]
    fn repair_stats_accumulate() {
        let n = 6;
        let (candidates, geodesic, fiber, traffic) = fixture(n);
        let pool: Vec<usize> = (0..candidates.len()).collect();
        let mut sw = ScoringWeights::compute(&fiber, &geodesic, &traffic).unwrap();
        sw.enable_gain_bounds(&fiber);
        let matrix = RwLock::new(fiber.clone());
        let ctx = ScoreContext {
            candidates: &candidates,
            pool: &pool,
            geodesic: &geodesic,
            traffic: &traffic,
            matrix: &matrix,
            sw: &sw,
        };
        let mut state = ShardState::new(0..pool.len());
        state.init_score(&ctx);
        let scored = state.values().to_vec();
        let accepted = candidates[0].clone();
        let mut improved = ImprovedPairs::new(n);
        {
            let mut m = matrix.write().unwrap();
            improve_with_link_tracked(
                &mut m,
                accepted.site_a,
                accepted.site_b,
                accepted.mw_length_km,
                &mut improved,
            );
        }
        let update = RoundUpdate::new(improved, Some(0), Vec::new(), &matrix.read().unwrap(), &sw);
        state.apply(&ctx, &update);
        // The round drops the accepted candidate and no other, and a built
        // link only shrinks distances: no surviving prediction rises, some
        // fall.
        assert_eq!(state.removed.iter().filter(|&&r| r).count(), 1);
        assert!(state.removed[0]);
        let survivors = || state.values().iter().zip(&scored).skip(1);
        assert!(survivors().all(|(v, s)| *v <= s + 1e-12));
        assert!(survivors().any(|(v, s)| v < s));
    }
}
