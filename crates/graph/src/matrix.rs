//! The flat, row-major symmetric distance/weight matrix the design engine
//! runs on.
//!
//! The designer's hot loops — candidate scoring, the exact one-edge
//! distance-matrix update, weather-failure re-evaluation — are all dense
//! all-pairs sweeps. Storing an `n × n` matrix as `Vec<Vec<f64>>` costs one
//! pointer chase and one bounds check per row on every access and scatters
//! rows across the heap; [`DistMatrix`] stores the same data as a single
//! contiguous `Vec<f64>` of length `n²`, so row access is a slice view, the
//! whole matrix prefetches linearly, and a scratch matrix can be refilled
//! with a single `memcpy` ([`DistMatrix::copy_from`]) instead of `n`
//! allocations.
//!
//! `matrix[i][j]` indexing keeps working: `Index<usize>` returns the row as
//! a `&[f64]` slice. Unordered-pair sweeps use [`DistMatrix::upper_triangle`]
//! (or [`pair_indices`]) instead of hand-rolled nested loops.

use crate::bitset::BitSet;
use serde::{Deserialize, Serialize};
use std::ops::{Index, IndexMut};

/// A dense square matrix of `f64` in one contiguous row-major allocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DistMatrix {
    /// An `n × n` matrix filled with `value`.
    pub fn filled(n: usize, value: f64) -> Self {
        Self {
            n,
            data: vec![value; n * n],
        }
    }

    /// An `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        Self::filled(n, 0.0)
    }

    /// Build from a generator function over `(row, col)`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                data.push(f(i, j));
            }
        }
        Self { n, data }
    }

    /// Build from a nested row-of-rows matrix; every row must have length
    /// `n`. This is the bridge from hand-written test fixtures and external
    /// data to the flat engine.
    pub fn from_nested(rows: Vec<Vec<f64>>) -> Self {
        let n = rows.len();
        let mut data = Vec::with_capacity(n * n);
        for row in rows {
            assert_eq!(row.len(), n, "matrix must be square");
            data.extend_from_slice(&row);
        }
        Self { n, data }
    }

    /// Build from a flat row-major buffer of length `n²`.
    pub fn from_flat(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * n, "flat buffer must hold n² entries");
        Self { n, data }
    }

    /// Side length.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Entry at `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Set the entry at `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        self.data[i * self.n + j] = value;
    }

    /// Set both `(i, j)` and `(j, i)`.
    #[inline]
    pub fn set_sym(&mut self, i: usize, j: usize, value: f64) {
        self.set(i, j, value);
        self.set(j, i, value);
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Columns `lo..hi` of row `i` as a contiguous slice. This is the blocked
    /// access pattern of the vectorised scoring kernel: per-row nonzero-weight
    /// spans index straight into the flat buffer with no per-element bounds
    /// arithmetic.
    #[inline]
    pub fn row_segment(&self, i: usize, lo: usize, hi: usize) -> &[f64] {
        debug_assert!(lo <= hi && hi <= self.n);
        &self.data[i * self.n + lo..i * self.n + hi]
    }

    /// The whole matrix as one row-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The whole matrix as one mutable row-major slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Overwrite this matrix with `other`'s contents without reallocating.
    /// This is the copy-on-write primitive the designer's scratch buffers
    /// use: one `memcpy` instead of `n` row clones.
    pub fn copy_from(&mut self, other: &DistMatrix) {
        if self.n == other.n {
            self.data.copy_from_slice(&other.data);
        } else {
            self.n = other.n;
            self.data.clear();
            self.data.extend_from_slice(&other.data);
        }
    }

    /// Iterate the strict upper triangle (`i < j`) in row-major order,
    /// yielding `(i, j, value)`. This is the canonical unordered-pair sweep
    /// for traffic-weighted objectives.
    pub fn upper_triangle(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        pair_indices(self.n).map(move |(i, j)| (i, j, self.get(i, j)))
    }

    /// The top-left `m × m` principal submatrix (used to restrict a design
    /// input to a site-count prefix, e.g. the Fig. 2 scaling sweep).
    pub fn truncated(&self, m: usize) -> DistMatrix {
        assert!(m <= self.n, "cannot truncate {n} to {m}", n = self.n);
        DistMatrix::from_fn(m, |i, j| self.get(i, j))
    }

    /// Convert back to a nested row-of-rows matrix (boundary/debug use).
    pub fn to_nested(&self) -> Vec<Vec<f64>> {
        (0..self.n).map(|i| self.row(i).to_vec()).collect()
    }

    /// Map every entry through `f`, in place.
    pub fn map_in_place(&mut self, mut f: impl FnMut(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Maximum entry (0.0 for an empty matrix; NaN entries are ignored).
    pub fn max_value(&self) -> f64 {
        self.data.iter().copied().fold(0.0_f64, f64::max)
    }

    /// Sum of the strict upper triangle — the total weight of an unordered
    /// pair matrix.
    pub fn upper_triangle_sum(&self) -> f64 {
        self.upper_triangle().map(|(_, _, v)| v).sum()
    }

    /// `true` if every entry equals its transpose partner within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        pair_indices(self.n).all(|(i, j)| (self.get(i, j) - self.get(j, i)).abs() <= tol)
    }

    /// `true` if the matrix satisfies the triangle inequality within a
    /// relative tolerance: for every `(s, t)` and every via-vertex `v` with
    /// finite legs, `d(s,t) <= (d(s,v) + d(v,t)) * (1 + rel_tol)`.
    ///
    /// An infinite `d(s,t)` with both legs finite counts as a violation (a
    /// metric closure would have closed it), so callers that gate pruning
    /// bounds on this check stay conservative on partially-connected inputs.
    /// O(n³), intended to run once per design run, not per round.
    pub fn is_metric_within(&self, rel_tol: f64) -> bool {
        for v in 0..self.n {
            let row_v = self.row(v);
            for s in 0..self.n {
                let d_sv = self.get(s, v);
                if !d_sv.is_finite() {
                    continue;
                }
                let row_s = self.row(s);
                for t in 0..self.n {
                    let d_vt = row_v[t];
                    if d_vt.is_finite() && row_s[t] > (d_sv + d_vt) * (1.0 + rel_tol) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

impl From<Vec<Vec<f64>>> for DistMatrix {
    fn from(rows: Vec<Vec<f64>>) -> Self {
        Self::from_nested(rows)
    }
}

impl Index<usize> for DistMatrix {
    type Output = [f64];
    /// `matrix[i]` is row `i`, so `matrix[i][j]` keeps working on the flat
    /// representation.
    #[inline]
    fn index(&self, i: usize) -> &[f64] {
        self.row(i)
    }
}

impl IndexMut<usize> for DistMatrix {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.n..(i + 1) * self.n]
    }
}

/// Iterate all unordered pair indices `(i, j)` with `i < j` over `0..n`,
/// row-major. Shared by every traffic-pair sweep in the workspace.
pub fn pair_indices(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n).flat_map(move |i| ((i + 1)..n).map(move |j| (i, j)))
}

/// Number of unordered pairs over `0..n`.
#[inline]
pub fn pair_count(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}

/// Canonical index of the unordered pair `(i, j)` (`i < j`) in the strict
/// upper triangle enumerated row-major — i.e. the position [`pair_indices`]
/// would yield the pair at. This is the index space [`ImprovedPairs`] bitsets
/// are defined over.
#[inline]
pub fn pair_index(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < n, "pair ({i}, {j}) out of range for n = {n}");
    i * n - i * (i + 1) / 2 + (j - i - 1)
}

/// The effect of one tracked one-edge improvement: which unordered pairs got
/// a shorter distance, what they measured before, and which vertices are
/// incident to at least one improved pair.
///
/// This is the delta the incremental design engine consumes: a candidate
/// link's cached score can only have been invalidated if the accepted link
/// improved a pair incident to one of the candidate's endpoints (the
/// [`ImprovedPairs::touches`] test); every other cached score is repaired
/// with an O(|improved|) sweep over [`ImprovedPairs::pairs`].
#[derive(Debug, Clone)]
pub struct ImprovedPairs {
    n: usize,
    /// `(i, j, old_distance)` for every improved pair, `i < j`, in the order
    /// the improvements were discovered. The new distance is read from the
    /// updated matrix.
    pairs: Vec<(u32, u32, f64)>,
    /// Membership bitset over [`pair_index`]-indexed unordered pairs.
    pair_set: BitSet,
    /// Vertices incident to at least one improved pair.
    touched: BitSet,
}

impl ImprovedPairs {
    /// An empty delta over an `n`-vertex matrix.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            pairs: Vec::new(),
            pair_set: BitSet::new(pair_count(n)),
            touched: BitSet::new(n),
        }
    }

    /// Reset for reuse over an `n`-vertex matrix (keeps allocations when the
    /// size is unchanged).
    pub fn reset(&mut self, n: usize) {
        if self.n != n {
            *self = Self::new(n);
        } else {
            self.pairs.clear();
            self.pair_set.clear();
            self.touched.clear();
        }
    }

    /// Record an improvement of the unordered pair `(i, j)` whose previous
    /// distance was `old`. Deduplicates: only the first report of a pair is
    /// kept (its `old` is the pre-update distance).
    #[inline]
    pub fn record(&mut self, i: usize, j: usize, old: f64) {
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        let p = pair_index(self.n, a, b);
        if !self.pair_set.contains(p) {
            self.pair_set.insert(p);
            self.touched.insert(a);
            self.touched.insert(b);
            self.pairs.push((a as u32, b as u32, old));
        }
    }

    /// Matrix side length this delta is defined over.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The improved pairs as `(i, j, old_distance)` with `i < j`.
    pub fn pairs(&self) -> &[(u32, u32, f64)] {
        &self.pairs
    }

    /// The improved pairs as a bitset over [`pair_index`] indices.
    pub fn pair_set(&self) -> &BitSet {
        &self.pair_set
    }

    /// Whether the unordered pair `(i, j)` improved.
    pub fn contains_pair(&self, i: usize, j: usize) -> bool {
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        a != b && self.pair_set.contains(pair_index(self.n, a, b))
    }

    /// Whether any improved pair is incident to vertex `v`. Cached candidate
    /// scores for links with an untouched endpoint pair survive exactly.
    #[inline]
    pub fn touches(&self, v: usize) -> bool {
        self.touched.contains(v)
    }

    /// Number of improved (unordered) pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` when nothing improved.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// Apply the exact one-edge improvement to a metric-closed symmetric distance
/// matrix: `D'[s][t] = min(D[s][t], D[s][i] + length + D[j][t],
/// D[s][j] + length + D[i][t])`.
///
/// `matrix` must be symmetric and satisfy the triangle inequality (the fiber
/// matrix and every matrix produced by repeated application of this function
/// do); under that precondition a single sweep is exact — a new edge
/// can only reroute a pair through itself once. Returns the number of
/// (ordered) entries whose distance improved.
pub fn improve_with_link(matrix: &mut DistMatrix, i: usize, j: usize, length: f64) -> usize {
    improve_sweep(matrix, i, j, length, |_, _, _| {})
}

/// [`improve_with_link`] with delta tracking: the same sweep (so the updated
/// matrix is bit-identical to the untracked kernel's), plus a record of every
/// unordered pair that improved into `out`. `out` is reset first, so one
/// buffer can be reused across calls.
pub fn improve_with_link_tracked(
    matrix: &mut DistMatrix,
    i: usize,
    j: usize,
    length: f64,
    out: &mut ImprovedPairs,
) -> usize {
    out.reset(matrix.n());
    improve_sweep(matrix, i, j, length, |s, t, old| {
        if s != t {
            out.record(s, t, old);
        }
    })
}

/// The one-edge sweep behind [`improve_with_link`] and
/// [`improve_with_link_tracked`]: `improved(s, t, old)` sees every ordered
/// entry that shrank, in row-major order, with the distance it replaced.
#[inline]
fn improve_sweep(
    matrix: &mut DistMatrix,
    i: usize,
    j: usize,
    length: f64,
    mut improved: impl FnMut(usize, usize, f64),
) -> usize {
    let n = matrix.n();
    assert!(i < n && j < n && i != j);
    assert!(length >= 0.0);
    let mut count = 0;
    let data = matrix.as_mut_slice();
    let (row_i, row_j) = (i * n, j * n);
    for s in 0..n {
        // Pre-read column entries to avoid aliasing issues.
        let d_si = data[s * n + i];
        let d_sj = data[s * n + j];
        let row_s = s * n;
        for t in 0..n {
            let via_ij = d_si + length + data[row_j + t];
            let via_ji = d_sj + length + data[row_i + t];
            let best = via_ij.min(via_ji);
            let cur = data[row_s + t];
            if best < cur {
                data[row_s + t] = best;
                count += 1;
                improved(s, t, cur);
            }
        }
    }
    count
}

/// Visit the closure every *failure set* leaves behind: for each `k`, in
/// input order, `visit(k, &m_k)` where `m_k` is `base` improved by every link
/// of `links` whose index is not in `sets[k]` (indices `≥ links.len()` name
/// nothing). Returns the number of [`improve_with_link`] sweeps made.
///
/// Divide and conquer over the *sets* instead of one rebuild per set: a node
/// owns a range of sets and a copy of its parent's matrix; the links the
/// parent held back that fail in none of the node's sets are applied to that
/// copy once, shared by everything below, and the range is halved. A leaf
/// has had exactly its surviving links applied. Singleton sets `[0], [1], …`
/// make it leave-one-out — `S·⌈log₂S⌉` sweeps at most where `S` rebuilds
/// cost `S·(S−1)` — which is how the swap polish walks it; the storm year
/// hands it its stormy intervals in chronological order, where neighbours
/// share most of their survivors. `scratch` is the matrix stack, one per tree
/// level (`⌈log₂ sets⌉ + 1`): grown here when too short and refilled with
/// [`DistMatrix::copy_from`], so a caller that keeps the vector across calls
/// allocates no matrix after the first.
///
/// **Arithmetic contract.** A leaf applies the same links as the sequential
/// rebuild (`base`, then every surviving link in input order) in a different
/// order — those shared with more neighbours first. The closure of a link set
/// does not depend on the order, but the float sum along a multi-link path
/// associates by it, so entries agree with the sequential rebuild to
/// summation ulp (a few 1e-16 relative per link on the path), not bit for
/// bit — the same relaxation [`improve_with_links`] makes. `base` must
/// satisfy [`improve_with_link`]'s precondition.
pub fn leave_out_closures<S: AsRef<[usize]>>(
    base: &DistMatrix,
    links: &[(usize, usize, f64)],
    sets: &[S],
    scratch: &mut Vec<DistMatrix>,
    mut visit: impl FnMut(usize, &DistMatrix),
) -> usize {
    if sets.is_empty() {
        return 0;
    }
    let depth = sets.len().next_power_of_two().trailing_zeros() as usize + 1;
    if scratch.len() < depth {
        scratch.resize_with(depth, || DistMatrix::zeros(0));
    }
    let held_back: Vec<usize> = (0..links.len()).collect();
    leave_out_range(
        base,
        scratch,
        links,
        sets,
        &held_back,
        0..sets.len(),
        &mut visit,
    )
}

/// One node of [`leave_out_closures`]: `parent` holds every link but
/// `held_back` (ascending link indices, each failing in some set of the
/// parent's range). Returns the sweeps made at and below this node.
fn leave_out_range<S: AsRef<[usize]>>(
    parent: &DistMatrix,
    scratch: &mut [DistMatrix],
    links: &[(usize, usize, f64)],
    sets: &[S],
    held_back: &[usize],
    range: std::ops::Range<usize>,
    visit: &mut impl FnMut(usize, &DistMatrix),
) -> usize {
    let (current, deeper) = scratch
        .split_first_mut()
        .expect("scratch holds one matrix per tree level");
    current.copy_from(parent);
    let mut fails = vec![false; links.len()];
    for &l in sets[range.clone()].iter().flat_map(|s| s.as_ref()) {
        if let Some(f) = fails.get_mut(l) {
            *f = true;
        }
    }
    let (still_held, survivors): (Vec<usize>, Vec<usize>) =
        held_back.iter().partition(|&&l| fails[l]);
    for &l in &survivors {
        let (i, j, length) = links[l];
        improve_with_link(current, i, j, length);
    }
    if range.len() == 1 {
        visit(range.start, current);
        return survivors.len();
    }
    let mid = range.start + range.len() / 2;
    let mut sweeps = survivors.len();
    for half in [range.start..mid, mid..range.end] {
        sweeps += leave_out_range(current, deeper, links, sets, &still_held, half, visit);
    }
    sweeps
}

/// Apply the exact improvement of a whole *batch* of new edges to a
/// metric-closed symmetric distance matrix in one pass: afterwards
/// `D'[s][t]` is the shortest distance over any mix of old paths and new
/// links — identical (up to float summation order) to applying
/// [`improve_with_link`] once per link sequentially.
///
/// Instead of `k` full matrix sweeps, the batch kernel closes the new links
/// over their endpoint set (the *portals*, `p ≤ 2k` of them) and then makes
/// a single sweep: any path through new links enters the portal set at a
/// first portal and leaves it at a last portal, so
/// `D'[s][t] = min(D[s][t], min_{u,v} D[s][v] + A[v][u] + D[u][t])` with `A`
/// the portal closure — one matrix pass of memory traffic regardless of `k`.
/// The result is written symmetrically (each unordered pair computed once
/// and mirrored). Returns the number of *ordered* entries improved, matching
/// [`improve_with_link`]'s convention.
///
/// This is the multi-link commit primitive behind a rebuild from fiber, which
/// replays every surviving link of a failure set onto the fiber matrix. No
/// production path rebuilds any more ([`leave_out_closures`] shares the
/// sweeps between failure sets); it is reached only through the test oracle
/// `HybridTopology::effective_matrix_without`.
pub fn improve_with_links(matrix: &mut DistMatrix, links: &[(usize, usize, f64)]) -> usize {
    let n = matrix.n();
    for &(i, j, m) in links {
        assert!(i < n && j < n && i != j);
        assert!(m >= 0.0);
    }
    match links.len() {
        0 => return 0,
        1 => return improve_with_link(matrix, links[0].0, links[0].1, links[0].2),
        _ => {}
    }

    // The portals: sorted, deduplicated endpoints of the new links.
    let mut portals: Vec<usize> = links.iter().flat_map(|&(i, j, _)| [i, j]).collect();
    portals.sort_unstable();
    portals.dedup();
    let p = portals.len();
    let mut portal_of = vec![usize::MAX; n];
    for (k, &u) in portals.iter().enumerate() {
        portal_of[u] = k;
    }

    // `a`, `p × p`: portal-to-portal distances — the old closure restricted
    // to portals, improved by the new links, then re-closed with
    // Floyd–Warshall over the (tiny) portal set. The old matrix is
    // metric-closed, so paths through non-portal vertices are already inside
    // its entries and closing over portals alone is exact.
    let mut a = vec![0.0; p * p];
    for (ki, &u) in portals.iter().enumerate() {
        for (kj, &v) in portals.iter().enumerate() {
            a[ki * p + kj] = matrix.get(u, v);
        }
    }
    for &(i, j, m) in links {
        let (ki, kj) = (portal_of[i], portal_of[j]);
        if m < a[ki * p + kj] {
            a[ki * p + kj] = m;
            a[kj * p + ki] = m;
        }
    }
    for k in 0..p {
        for x in 0..p {
            let d_xk = a[x * p + k];
            for y in 0..p {
                let via = d_xk + a[k * p + y];
                if via < a[x * p + y] {
                    a[x * p + y] = via;
                }
            }
        }
    }

    // `snap`, `p × n`: the pre-update portal rows of the matrix.
    let mut snap = Vec::with_capacity(p * n);
    for &u in &portals {
        snap.extend_from_slice(matrix.row(u));
    }

    // The sweep: every unordered pair visited once, improvements written to
    // both orientations.
    let mut e = vec![0.0; p];
    let mut improved = 0;
    for s in 0..n {
        // e[u] = shortest s → portal-u distance over old paths + new links,
        // accumulated row-of-A-major so both arrays stream contiguously.
        e.fill(f64::INFINITY);
        for kv in 0..p {
            let d_sv = snap[kv * n + s];
            for (e_u, &a_vu) in e.iter_mut().zip(&a[kv * p..kv * p + p]) {
                let c = d_sv + a_vu;
                if c < *e_u {
                    *e_u = c;
                }
            }
        }
        for t in (s + 1)..n {
            let mut via = f64::INFINITY;
            for (&e_u, snap_row) in e.iter().zip(snap.chunks_exact(n)) {
                let c = e_u + snap_row[t];
                if c < via {
                    via = c;
                }
            }
            if via < matrix.get(s, t) {
                matrix.set_sym(s, t, via);
                improved += 2;
            }
        }
    }
    improved
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_nested_round_trips() {
        let nested = vec![
            vec![0.0, 1.0, 2.0],
            vec![1.0, 0.0, 3.0],
            vec![2.0, 3.0, 0.0],
        ];
        let m = DistMatrix::from_nested(nested.clone());
        assert_eq!(m.n(), 3);
        assert_eq!(m.to_nested(), nested);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m[1][2], 3.0);
    }

    #[test]
    fn index_mut_writes_through() {
        let mut m = DistMatrix::zeros(3);
        m[0][1] = 5.0;
        m.set_sym(1, 2, 7.0);
        assert_eq!(m.get(0, 1), 5.0);
        assert_eq!(m.get(2, 1), 7.0);
        assert_eq!(m.get(1, 2), 7.0);
    }

    #[test]
    fn upper_triangle_visits_each_unordered_pair_once() {
        let m = DistMatrix::from_fn(4, |i, j| (i * 10 + j) as f64);
        let pairs: Vec<(usize, usize, f64)> = m.upper_triangle().collect();
        assert_eq!(pairs.len(), 6);
        assert_eq!(pairs[0], (0, 1, 1.0));
        assert_eq!(pairs[5], (2, 3, 23.0));
        assert_eq!(pair_indices(4).count(), 6);
    }

    #[test]
    fn row_segment_slices_the_flat_buffer() {
        let m = DistMatrix::from_fn(4, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.row_segment(2, 1, 3), &[21.0, 22.0]);
        assert_eq!(m.row_segment(0, 0, 4), m.row(0));
        assert!(m.row_segment(3, 2, 2).is_empty());
    }

    #[test]
    fn metric_check_accepts_closures_and_rejects_shortcut_violations() {
        // A shortest-path closure over a line graph is metric.
        let line = DistMatrix::from_fn(5, |i, j| (i as f64 - j as f64).abs());
        assert!(line.is_metric_within(1e-9));
        // Scaling preserves metricity.
        let mut scaled = line.clone();
        scaled.map_in_place(|v| v * 2.0);
        assert!(scaled.is_metric_within(1e-9));
        // Direct distance longer than a two-leg detour is a violation.
        let mut broken = line.clone();
        broken.set_sym(0, 4, 100.0);
        assert!(!broken.is_metric_within(1e-9));
        // An infinite pair with finite legs counts as a violation…
        let mut open = line.clone();
        open.set_sym(0, 4, f64::INFINITY);
        assert!(!open.is_metric_within(1e-9));
        // …but a fully disconnected vertex (infinite legs) does not.
        let mut island = DistMatrix::filled(3, f64::INFINITY);
        for i in 0..3 {
            island.set(i, i, 0.0);
        }
        island.set_sym(0, 1, 1.0);
        assert!(island.is_metric_within(1e-9));
        // Tolerance absorbs ulp-level violations.
        let mut ulp = line;
        ulp.set_sym(0, 4, 4.0 + 1e-12);
        assert!(ulp.is_metric_within(1e-9));
        assert!(!ulp.is_metric_within(0.0));
    }

    #[test]
    fn copy_from_reuses_allocation() {
        let src = DistMatrix::from_fn(5, |i, j| (i + j) as f64);
        let mut dst = DistMatrix::zeros(5);
        let ptr_before = dst.as_slice().as_ptr();
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.as_slice().as_ptr(), ptr_before, "no reallocation");
        // Size-changing copy still works.
        let mut small = DistMatrix::zeros(2);
        small.copy_from(&src);
        assert_eq!(small, src);
    }

    #[test]
    fn sums_and_symmetry() {
        let m = DistMatrix::from_nested(vec![vec![0.0, 2.0], vec![2.0, 0.0]]);
        assert!(m.is_symmetric(0.0));
        assert_eq!(m.upper_triangle_sum(), 2.0);
        assert_eq!(m.max_value(), 2.0);
        let asym = DistMatrix::from_nested(vec![vec![0.0, 2.0], vec![1.0, 0.0]]);
        assert!(!asym.is_symmetric(0.5));
    }

    #[test]
    #[should_panic]
    fn ragged_nested_matrix_panics() {
        DistMatrix::from_nested(vec![vec![0.0, 1.0], vec![0.0]]);
    }

    #[test]
    #[should_panic]
    fn bad_flat_length_panics() {
        DistMatrix::from_flat(3, vec![0.0; 8]);
    }

    #[test]
    fn pair_index_matches_enumeration_order() {
        for n in [2usize, 3, 5, 9] {
            assert_eq!(pair_count(n), pair_indices(n).count());
            for (k, (i, j)) in pair_indices(n).enumerate() {
                assert_eq!(pair_index(n, i, j), k, "pair ({i}, {j}) over n = {n}");
            }
        }
        assert_eq!(pair_count(0), 0);
        assert_eq!(pair_count(1), 0);
    }

    /// A small symmetric metric matrix: 4 collinear points at unit spacing
    /// with every distance doubled (so a direct link can improve pairs).
    fn line_metric(n: usize) -> DistMatrix {
        DistMatrix::from_fn(n, |i, j| (i as f64 - j as f64).abs() * 2.0)
    }

    #[test]
    fn tracked_improve_matches_untracked_and_records_pairs() {
        let n = 5;
        let mut plain = line_metric(n);
        let mut tracked = line_metric(n);
        let mut delta = ImprovedPairs::new(n);
        let count = improve_with_link(&mut plain, 0, 4, 1.0);
        let tracked_count = improve_with_link_tracked(&mut tracked, 0, 4, 1.0, &mut delta);
        assert_eq!(count, tracked_count);
        assert_eq!(plain, tracked, "tracked kernel must be bit-identical");
        assert!(!delta.is_empty());
        // Every recorded pair really improved, and old values are pre-update.
        let before = line_metric(n);
        for &(a, b, old) in delta.pairs() {
            let (a, b) = (a as usize, b as usize);
            assert!(delta.contains_pair(a, b));
            assert!(delta.touches(a) && delta.touches(b));
            assert_eq!(old, before.get(a, b));
            assert!(tracked.get(a, b) < old);
        }
        // Every unrecorded pair is unchanged.
        for (a, b) in pair_indices(n) {
            if !delta.contains_pair(a, b) {
                assert_eq!(tracked.get(a, b), before.get(a, b));
            }
        }
        // The endpoints of the new link are touched (its own pair improved).
        assert!(delta.touches(0) && delta.touches(4));
    }

    /// Brute-force closure reference: Floyd–Warshall over the matrix with
    /// the new links inserted as edges.
    fn closure_reference(matrix: &DistMatrix, links: &[(usize, usize, f64)]) -> DistMatrix {
        let n = matrix.n();
        let mut d = matrix.clone();
        for &(i, j, m) in links {
            if m < d.get(i, j) {
                d.set_sym(i, j, m);
            }
        }
        for k in 0..n {
            for s in 0..n {
                for t in 0..n {
                    let via = d.get(s, k) + d.get(k, t);
                    if via < d.get(s, t) {
                        d.set(s, t, via);
                    }
                }
            }
        }
        d
    }

    #[test]
    fn batch_improve_matches_sequential_and_reference() {
        let n = 9;
        let base = DistMatrix::from_fn(n, |i, j| (i as f64 - j as f64).abs() * 3.0);
        let links = [(0usize, 8usize, 5.0), (2, 6, 2.5), (1, 8, 9.0), (0, 4, 3.0)];
        let mut batched = base.clone();
        let improved = improve_with_links(&mut batched, &links);
        assert!(improved > 0);
        let mut sequential = base.clone();
        for &(i, j, m) in &links {
            improve_with_link(&mut sequential, i, j, m);
        }
        let reference = closure_reference(&base, &links);
        for i in 0..n {
            for j in 0..n {
                assert!(
                    (batched.get(i, j) - sequential.get(i, j)).abs() < 1e-9,
                    "batch vs sequential at ({i}, {j})"
                );
                assert!(
                    (batched.get(i, j) - reference.get(i, j)).abs() < 1e-9,
                    "batch vs closure reference at ({i}, {j})"
                );
            }
        }
        assert!(
            batched.is_symmetric(0.0),
            "mirror writes keep exact symmetry"
        );
    }

    #[test]
    fn batch_improve_edge_cases() {
        let n = 5;
        let base = line_metric(n);
        // Empty batch: no-op.
        let mut m = base.clone();
        assert_eq!(improve_with_links(&mut m, &[]), 0);
        assert_eq!(m, base);
        // Single link delegates to the sequential kernel bit-for-bit.
        let mut single_batch = base.clone();
        let mut single_seq = base.clone();
        let got = improve_with_links(&mut single_batch, &[(0, 4, 1.0)]);
        let want = improve_with_link(&mut single_seq, 0, 4, 1.0);
        assert_eq!(got, want);
        assert_eq!(single_batch, single_seq);
        // A useless (too-long) link changes nothing.
        let mut useless = base.clone();
        improve_with_links(&mut useless, &[(0, 1, 100.0), (2, 3, 200.0)]);
        assert_eq!(useless, base);
    }

    #[test]
    fn batch_improve_composes_new_links() {
        // Two new links that only help in *combination*: 0–2 and 2–4 at
        // unit-ish lengths over a stretched metric. The pair (0, 4) must ride
        // both new links through the shared portal 2.
        let n = 5;
        let base = line_metric(n); // d(i, j) = 2 |i − j|
        let mut m = base.clone();
        improve_with_links(&mut m, &[(0, 2, 1.0), (2, 4, 1.0)]);
        assert_eq!(m.get(0, 2), 1.0);
        assert_eq!(m.get(2, 4), 1.0);
        assert_eq!(m.get(0, 4), 2.0, "multi-new-link path through the portals");
        assert_eq!(m.get(1, 3), 4.0, "untouched pair keeps old distance");
    }

    /// The oracle of [`leave_out_closures`]: `base`, then every link whose
    /// index is not in `set`, one sequential sweep each.
    fn rebuild_without(
        base: &DistMatrix,
        links: &[(usize, usize, f64)],
        set: &[usize],
    ) -> DistMatrix {
        let mut m = base.clone();
        for (k, &(i, j, length)) in links.iter().enumerate() {
            if !set.contains(&k) {
                improve_with_link(&mut m, i, j, length);
            }
        }
        m
    }

    /// `count` pseudo-random links over `n` vertices at 0.3–0.9× the base
    /// distance of their endpoints, so most of them reroute some pair.
    fn shortcut_links(base: &DistMatrix, count: usize) -> Vec<(usize, usize, f64)> {
        let n = base.n();
        (0..count)
            .map(|k| {
                let i = (k * 7 + 1) % n;
                let j = (i + 1 + (k * 5) % (n - 1)) % n;
                (
                    i,
                    j,
                    base.get(i, j) * (0.3 + 0.6 * ((k * 37 % 101) as f64 / 101.0)),
                )
            })
            .collect()
    }

    /// Irregular spacing: multi-link paths sum lengths that do not round the
    /// same way in every order.
    fn irregular_metric(n: usize) -> DistMatrix {
        let pos: Vec<f64> = (0..n).map(|i| (i * i) as f64 * 0.37 + i as f64).collect();
        DistMatrix::from_fn(n, |i, j| (pos[i] - pos[j]).abs() * 2.0)
    }

    /// The leave-one-out sets of `count` links: `[0], [1], …`.
    fn singletons(count: usize) -> Vec<[usize; 1]> {
        (0..count).map(|k| [k]).collect()
    }

    fn assert_leaves_match_rebuild<S: AsRef<[usize]>>(
        base: &DistMatrix,
        links: &[(usize, usize, f64)],
        sets: &[S],
    ) -> usize {
        let mut visited = Vec::new();
        let mut scratch = Vec::new();
        let sweeps = leave_out_closures(base, links, sets, &mut scratch, |k, leaf| {
            let want = rebuild_without(base, links, sets[k].as_ref());
            for (got, want) in leaf.as_slice().iter().zip(want.as_slice()) {
                assert!(
                    (got - want).abs() <= 1e-12 * want.abs(),
                    "leaf {k}: {got} vs sequential rebuild {want}"
                );
            }
            visited.push(k);
        });
        assert_eq!(visited, (0..sets.len()).collect::<Vec<_>>(), "visit order");
        sweeps
    }

    #[test]
    fn leave_one_out_matches_sequential_rebuild() {
        let base = irregular_metric(12);
        // The recursion PR 15 pinned: a range of `s` leaves sweeps each half
        // onto the other's copy, `s` sweeps, and halves.
        fn halving_sweeps(s: usize) -> usize {
            match s {
                0 | 1 => 0,
                _ => s + halving_sweeps(s / 2) + halving_sweeps(s - s / 2),
            }
        }
        for count in [1usize, 2, 3, 7, 64] {
            let links = shortcut_links(&base, count);
            let sweeps = assert_leaves_match_rebuild(&base, &links, &singletons(count));
            assert_eq!(sweeps, halving_sweeps(count), "{count} links");
        }
        let links = shortcut_links(&base, 7);
        let no_sets: [&[usize]; 0] = [];
        assert_eq!(
            leave_out_closures(&base, &links, &no_sets, &mut Vec::new(), |_, _| panic!(
                "no leaf"
            )),
            0
        );
    }

    #[test]
    fn leave_one_out_handles_shared_endpoints_and_duplicates() {
        let base = line_metric(8);
        // A star on vertex 0, a link listed twice, and a link no better than
        // the base distance.
        let links = [
            (0usize, 7usize, 3.0),
            (0, 4, 2.0),
            (0, 2, 1.0),
            (4, 7, 1.5),
            (0, 4, 2.0),
            (1, 2, 50.0),
        ];
        let sets = singletons(links.len());
        assert_leaves_match_rebuild(&base, &links, &sets);
        // Leaving out one copy of the duplicate leaves the other in place.
        leave_out_closures(&base, &links, &sets, &mut Vec::new(), |k, leaf| {
            if k == 1 || k == 4 {
                assert_eq!(leaf.get(0, 4), 2.0);
            }
        });
    }

    #[test]
    fn leave_one_out_reuses_its_scratch_stack() {
        let base = line_metric(6);
        let links = shortcut_links(&base, 7);
        let mut scratch = Vec::new();
        leave_out_closures(&base, &links, &singletons(7), &mut scratch, |_, _| {});
        assert_eq!(scratch.len(), 4, "⌈log₂ 7⌉ + 1 levels");
        let ptrs: Vec<_> = scratch.iter().map(|m| m.as_slice().as_ptr()).collect();
        leave_out_closures(&base, &links[..5], &singletons(5), &mut scratch, |_, _| {});
        let again: Vec<_> = scratch.iter().map(|m| m.as_slice().as_ptr()).collect();
        assert_eq!(ptrs, again, "no reallocation on reuse");
    }

    #[test]
    fn leave_out_sets_match_sequential_rebuild() {
        let base = irregular_metric(12);
        let links = shortcut_links(&base, 23);
        let all: Vec<usize> = (0..links.len()).collect();
        let sets: Vec<Vec<usize>> = vec![
            vec![],
            vec![4],
            vec![4, 9, 17],
            vec![9, 17, 20, 4], // overlaps its neighbour, unsorted
            vec![9],            // nested in both
            vec![0, 1, 2, 3],
            vec![0, 1, 2, 3], // identical neighbours
            all.clone(),
            vec![22, 23, 99],  // stale indices name nothing
            vec![5, 5, 5, 11], // a link named more than once
            vec![],
        ];
        let sweeps = assert_leaves_match_rebuild(&base, &links, &sets);
        let rebuilds: usize = sets
            .iter()
            .map(|s| (0..links.len()).filter(|k| !s.contains(k)).count())
            .sum();
        assert!(sweeps < rebuilds, "{sweeps} sweeps, {rebuilds} rebuilding");

        // One set: the plain rebuild, on a copy (the base is not handed out).
        let sweeps = assert_leaves_match_rebuild(&base, &links, &[[4usize, 9]]);
        assert_eq!(sweeps, links.len() - 2);
        // Every link failing in every set, and no links at all: every leaf
        // is the base.
        let no_sweeps = |links: &[(usize, usize, f64)], sets: &[Vec<usize>]| {
            let is_base = |_, leaf: &DistMatrix| assert_eq!(leaf, &base);
            assert_eq!(
                leave_out_closures(&base, links, sets, &mut Vec::new(), is_base),
                0
            );
        };
        no_sweeps(&links, &[all.clone(), all]);
        no_sweeps(&[], &[vec![0]]);
    }

    #[test]
    fn improved_pairs_reset_reuses_and_resizes() {
        let mut delta = ImprovedPairs::new(4);
        delta.record(1, 3, 9.0);
        delta.record(3, 1, 8.0); // duplicate orientation is ignored
        assert_eq!(delta.len(), 1);
        assert_eq!(delta.pairs()[0], (1, 3, 9.0));
        delta.reset(4);
        assert!(delta.is_empty() && !delta.touches(1));
        delta.reset(7);
        assert_eq!(delta.n(), 7);
        delta.record(5, 6, 1.0);
        assert!(delta.contains_pair(6, 5));
    }
}
