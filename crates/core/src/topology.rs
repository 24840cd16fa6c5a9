//! The hybrid microwave + fiber topology and its latency evaluation.
//!
//! A [`HybridTopology`] holds the designed network: the sites, the
//! latency-equivalent fiber distance between every pair (always available, at
//! negligible cost), and the subset of direct microwave links that were
//! built. Its central operation is the all-pairs *effective distance* — the
//! shortest latency-equivalent distance over any mix of fiber and built MW
//! links — from which per-pair stretch and the traffic-weighted mean stretch
//! (the design objective) follow.
//!
//! All matrices live in the flat row-major [`DistMatrix`] engine from
//! `cisp_graph` — one contiguous allocation per matrix, slice-view rows, and
//! a `memcpy`-refillable scratch representation — because these all-pairs
//! sweeps are the design loop's hot path.
//!
//! The same incremental-update primitive the evaluation uses
//! ([`improve_with_link`]) is what makes the greedy designer fast: adding a
//! single edge to a metric-closed distance matrix can only reroute a pair
//! through that edge once, so the update `D'[s][t] = min(D[s][t],
//! D[s][i]+m+D[j][t], D[s][j]+m+D[i][t])` is exact.

use cisp_geo::latency::StretchAccumulator;
use cisp_geo::units::FIBER_LATENCY_FACTOR;
use cisp_geo::{geodesic, latency, GeoPoint};
use cisp_graph::{pair_index, BitSet, DistMatrix, PathStore};

use crate::links::CandidateLink;

// The exact one-edge improvement kernels live in the `cisp_graph` matrix
// engine next to the storage they sweep; re-exported here because the design
// and weather layers reach them through the topology module.
pub use cisp_graph::matrix::{improve_with_link, improve_with_link_tracked, ImprovedPairs};

// Conduit-backed topologies are built from (and hand out) the data layer's
// conduit types; re-exported so consumers of the conduit API need not
// depend on `cisp_data` directly.
pub use cisp_data::fiber::{FiberLink, FiberNetwork};

/// Traffic-weighted mean stretch of `effective` against `geodesic`, weighted
/// by `traffic`, over the strict upper triangle. Pairs with zero traffic,
/// zero geodesic distance or non-finite effective distance are skipped;
/// returns 1.0 when no pair qualifies. The weighted-average convention is
/// [`cisp_geo::latency::StretchAccumulator`]'s — shared with the slice-based
/// `cisp_geo::latency::weighted_mean_stretch`.
pub fn weighted_mean_stretch(
    effective: &DistMatrix,
    geodesic: &DistMatrix,
    traffic: &DistMatrix,
) -> f64 {
    let n = effective.n();
    let mut acc = StretchAccumulator::new();
    for s in 0..n {
        let eff_row = effective.row(s);
        let geo_row = geodesic.row(s);
        let h_row = traffic.row(s);
        for t in (s + 1)..n {
            let geo = geo_row[t];
            if geo > 0.0 && eff_row[t].is_finite() {
                acc.add(h_row[t], eff_row[t] / geo);
            }
        }
    }
    acc.mean().unwrap_or(1.0)
}

/// Traffic-weighted mean stretch that would result from adding one link of
/// latency-equivalent length `m` between `i` and `j` to the metric-closed
/// matrix `effective`, without mutating anything. This is the designer's
/// candidate-scoring kernel: O(n²), allocation-free, and safe to run from
/// many threads against the same matrices.
pub fn mean_stretch_with_link(
    effective: &DistMatrix,
    geodesic: &DistMatrix,
    traffic: &DistMatrix,
    i: usize,
    j: usize,
    m: f64,
) -> f64 {
    let n = effective.n();
    let mut num = 0.0;
    let mut den = 0.0;
    let row_i = effective.row(i);
    let row_j = effective.row(j);
    for s in 0..n {
        let d_si = effective.get(s, i);
        let d_sj = effective.get(s, j);
        let eff_row = effective.row(s);
        let geo_row = geodesic.row(s);
        let h_row = traffic.row(s);
        for t in (s + 1)..n {
            let h = h_row[t];
            let geo = geo_row[t];
            if h <= 0.0 || geo <= 0.0 {
                continue;
            }
            let candidate = (d_si + m + row_j[t])
                .min(d_sj + m + row_i[t])
                .min(eff_row[t]);
            if candidate.is_finite() {
                num += h * candidate / geo;
                den += h;
            }
        }
    }
    if den > 0.0 {
        num / den
    } else {
        1.0
    }
}

/// Accumulator lanes of the compact scoring kernel. Eight f64 lanes span two
/// AVX2 registers (or four SSE2 ones); the fixed width keeps the horizontal
/// reduction order — and therefore the result — identical on every machine
/// and across serial vs sharded runs.
const LANES: usize = 8;

/// Precomputed, compacted scoring weights for one design run.
///
/// [`mean_stretch_with_link`] re-derives `h/geo` and re-tests the
/// `h <= 0 || geo <= 0` skip and the finiteness of every effective distance
/// on each of its O(n²) iterations. Over a design run none of that changes:
/// traffic and geodesic distances are fixed, and once every scored pair has a
/// finite effective distance it stays finite (link additions only shrink
/// distances). `ScoringWeights` hoists all of it out — a dense symmetric
/// `h/geo` weight matrix (zero where a pair is skipped), per-row nonzero
/// column spans over the strict upper triangle, and the constant denominator
/// `Σh` — so the per-candidate kernel
/// ([`mean_stretch_with_link_compact`]) becomes a branchless fused
/// multiply-add sweep.
///
/// [`ScoringWeights::compute`] enforces the invariant: it panics when a
/// traffic-carrying pair is unreachable or a traffic weight is negative or
/// not finite. With no traffic at all the denominator is zero and the
/// kernel reads 1.0, as [`mean_stretch_with_link`] does.
#[derive(Debug, Clone)]
pub struct ScoringWeights {
    /// Dense symmetric `h/geo` weight matrix; zero where the pair is skipped.
    weights: DistMatrix,
    /// Per-row `[lo, hi)` column span containing every nonzero weight in the
    /// strict upper triangle (`lo >= hi` for rows with none).
    span: Vec<(u32, u32)>,
    /// `Σ h` over scored pairs — the kernel's constant denominator.
    den: f64,
    /// Absolute distance slack absorbing float noise in triangle-inequality
    /// arguments (a few ulps of the largest finite distance), set by
    /// [`Self::arm_row_skip`] once the effective matrix is verified metric.
    row_skip_slack_km: Option<f64>,
    /// Floor of the pair-major repair's site screen: a lower bound, up to
    /// [`Self::screen_slack_km`], on every matrix a design run scores. The
    /// geodesic matrix once [`Self::arm_geodesic_screen`] has verified it;
    /// zeros otherwise.
    screen_floor_km: DistMatrix,
    /// Distance slack of the site screen: `(⌈log₂(n − 1)⌉ + 2) ·
    /// METRIC_REL_TOL` of the largest finite distance of the matrix the
    /// screen was armed against, 0 before [`Self::arm_geodesic_screen`].
    screen_slack_km: f64,
}

/// Relative tolerance of the one-time metricity check gating the row
/// skip. Great-circle distances of near-collinear triples computed
/// independently violate the triangle inequality by ~1e-10 relative; 1e-8
/// leaves two orders of margin while staying far below any real detour.
const METRIC_REL_TOL: f64 = 1e-8;

/// The largest finite entry of `matrix` (0 when there is none): the scale
/// of the repair's distance slacks.
fn max_finite_km(matrix: &DistMatrix) -> f64 {
    matrix
        .as_slice()
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .fold(0.0, f64::max)
}

impl ScoringWeights {
    /// Precompute the compact weights for scoring against matrices that
    /// start from `effective`.
    ///
    /// # Panics
    ///
    /// When a traffic weight `traffic[s][t]` (`s < t`) is negative or not
    /// finite, or when a pair with positive traffic has a non-finite
    /// `effective` distance; the message names the pair.
    pub fn compute(effective: &DistMatrix, geodesic: &DistMatrix, traffic: &DistMatrix) -> Self {
        let n = effective.n();
        let mut weights = DistMatrix::zeros(n);
        let mut span = vec![(0u32, 0u32); n];
        let mut den = 0.0;
        for (s, sp) in span.iter_mut().enumerate() {
            let eff_row = effective.row(s);
            let geo_row = geodesic.row(s);
            let h_row = traffic.row(s);
            let mut lo = n;
            let mut hi = 0;
            for t in (s + 1)..n {
                let h = h_row[t];
                assert!(
                    h.is_finite() && h >= 0.0,
                    "traffic weight of sites {s} and {t} is {h}: it must be finite and non-negative"
                );
                if h == 0.0 {
                    continue;
                }
                assert!(
                    eff_row[t].is_finite(),
                    "sites {s} and {t} carry traffic {h} but fiber does not connect them"
                );
                let geo = geo_row[t];
                if geo <= 0.0 {
                    continue;
                }
                let w = h / geo;
                weights.set_sym(s, t, w);
                den += h;
                lo = lo.min(t);
                hi = t + 1;
            }
            if lo < hi {
                *sp = (lo as u32, hi as u32);
            }
        }
        Self {
            weights,
            span,
            den,
            row_skip_slack_km: None,
            screen_floor_km: DistMatrix::zeros(n),
            screen_slack_km: 0.0,
        }
    }

    /// The dense symmetric `h/geo` weight matrix (zero where skipped).
    pub fn weights(&self) -> &DistMatrix {
        &self.weights
    }

    /// The constant scoring denominator `Σ h`.
    pub fn den(&self) -> f64 {
        self.den
    }

    /// Verify that `effective` satisfies the triangle inequality (within
    /// float tolerance) and, if so, arm the via repair's metric side test
    /// on rows and columns ([`Self::row_skip_slack_km`]). Returns whether
    /// it was armed.
    ///
    /// The test's soundness rests on metricity, which
    /// [`improve_with_link`] preserves — so one check against the run's
    /// starting matrix covers every later round. Non-metric inputs (e.g.
    /// arbitrary test fixtures) simply leave it disabled and every column
    /// of every affected row is scanned.
    pub(crate) fn arm_row_skip(&mut self, effective: &DistMatrix) -> bool {
        if effective.is_metric_within(METRIC_REL_TOL) {
            self.row_skip_slack_km = Some(4.0 * METRIC_REL_TOL * max_finite_km(effective));
            true
        } else {
            false
        }
    }

    /// Distance slack for the repair's metric side test, when it is armed:
    /// a candidate `(i, j, m)` can only improve pair `(s, t)` of a metric
    /// matrix through its via `d(s,i) + m + d(j,t)` if `d(s,j) - d(s,i) >
    /// m - slack` (row `s` on the `i` side) and `d(i,t) - d(j,t) > m -
    /// slack` (column `t` on the `j` side), and mirror-wise for the other
    /// via orientation. So a row on neither side is skipped, and a row on
    /// a side walks only the columns of the opposite side.
    ///
    /// Proof sketch: `d(s,i) + m + d(j,t) < d(s,t) <= d(s,j) + d(j,t)`
    /// forces `d(s,i) + m < d(s,j)`, and the same inequality read at the
    /// pair's other end, `d(s,i) + m + d(j,t) < d(s,t) <= d(s,i) +
    /// d(i,t)`, forces `m + d(j,t) < d(i,t)`; the one slack absorbs the
    /// metricity check's tolerance in both.
    pub(crate) fn row_skip_slack_km(&self) -> Option<f64> {
        self.row_skip_slack_km
    }

    /// Arm the pair-major repair's site screen with `geodesic` as its floor
    /// when three conditions hold within `METRIC_REL_TOL` (τ, relative): the
    /// geodesic matrix is metric, no entry of `effective` (the matrix these
    /// weights were computed against) is below it, and no link of `links`
    /// (`(i, j, length)`) is shorter than it. Otherwise the floor stays
    /// zero. Either way the slack is set from `effective`. Returns whether
    /// it was armed.
    ///
    /// The screen keeps a link `(i, j, m)` for an improved pair `(a, b)` of
    /// pre-round matrix `D` only if `D[a][i] + floor[i][b]` and
    /// `floor[a][j] + D[j][b]` are both below `D[a][b] + slack` (or the
    /// same with `i` and `j` swapped). A via `D[a][i] + m + D[j][b]` below
    /// `D[a][b]` passes it:
    ///
    /// * **Zero floor.** Sums of non-negative terms are at least each term,
    ///   in `f64` too, so `D[a][i] < D[a][b]` and `D[j][b] < D[a][b]`.
    /// * **Geodesic floor.** Let `ĝ` be the shortest-path closure of `g`,
    ///   an exact metric. A shortest `ĝ`-path has at most `n − 1` edges;
    ///   splitting it in halves applies the verified triangle inequality
    ///   `⌈log₂(n − 1)⌉` times, so `g ≤ (1 + τ)^⌈log₂(n−1)⌉ · ĝ`. Every
    ///   entry of `D` is the length of a chain of `effective` entries and
    ///   links, each at least `ĝ / (1 + τ)` of its ends, so `D ≥ ĝ / (1 +
    ///   τ)` by the triangle inequality of `ĝ`, with no compounding over
    ///   rounds. Hence `g(i,b) ≤ (1 + τ)^(⌈log₂(n−1)⌉+1) · (m + D[j][b])`,
    ///   and `m + D[j][b] ≤ D[a][b]` is at most the largest finite distance
    ///   `M`: `D[a][i] + g(i,b)` exceeds the via by at most
    ///   `(⌈log₂(n−1)⌉ + 1) · τ · M` to first order. The slack adds one more
    ///   `τ · M`, which dwarfs the rounding of the sums (ulps of `M`, and
    ///   under `1e-12` relative for `D`'s own chains). The second test is
    ///   the mirror image: `g(a,j) ≤ g(a,i) + g(i,j) ≤ D[a][i] + m`.
    pub(crate) fn arm_geodesic_screen(
        &mut self,
        geodesic: &DistMatrix,
        effective: &DistMatrix,
        mut links: impl Iterator<Item = (usize, usize, f64)>,
    ) -> bool {
        let tol = 1.0 + METRIC_REL_TOL;
        let below_effective = geodesic
            .as_slice()
            .iter()
            .zip(effective.as_slice())
            .all(|(&g, &d)| g <= d * tol);
        let armed = below_effective
            && links.all(|(i, j, m)| geodesic.get(i, j) <= m * tol)
            && geodesic.is_metric_within(METRIC_REL_TOL);
        let n = geodesic.n();
        let depth = (n.max(2) - 1).next_power_of_two().trailing_zeros();
        self.screen_slack_km = f64::from(depth + 2) * METRIC_REL_TOL * max_finite_km(effective);
        self.screen_floor_km = if armed {
            geodesic.clone()
        } else {
            DistMatrix::zeros(n)
        };
        armed
    }

    /// The site screen's floor matrix ([`Self::arm_geodesic_screen`]).
    pub(crate) fn screen_floor_km(&self) -> &DistMatrix {
        &self.screen_floor_km
    }

    /// The site screen's distance slack ([`Self::arm_geodesic_screen`]).
    pub(crate) fn screen_slack_km(&self) -> f64 {
        self.screen_slack_km
    }
}

/// Compact-weights variant of [`mean_stretch_with_link`]: the designer's
/// vectorisable exact scoring kernel.
///
/// Requires a [`ScoringWeights`] computed against a matrix this `effective`
/// descends from by link additions (distances only shrink, so every scored
/// pair stays finite and the denominator stays constant). The inner loop is
/// branchless — the skip branch lives in the precomputed weights (zero
/// weight) and per-row spans, the finiteness test in a `min(f64::MAX)`
/// clamp (exact for scored pairs, which are finite; it only guards the
/// `0 · ∞ = NaN` hazard on zero-weight lanes) — and accumulates in
/// `LANES` fixed lanes with a deterministic pairwise horizontal
/// reduction, so results are reproducible run-to-run and identical serial
/// vs sharded. Returns 1.0 when no pair carries traffic.
pub fn mean_stretch_with_link_compact(
    effective: &DistMatrix,
    sw: &ScoringWeights,
    i: usize,
    j: usize,
    m: f64,
) -> f64 {
    if sw.den <= 0.0 {
        return 1.0;
    }
    let row_i = effective.row(i);
    let row_j = effective.row(j);
    let mut acc = [0.0f64; LANES];
    let mut tail = 0.0;
    for (s, &(lo, hi)) in sw.span.iter().enumerate() {
        let (lo, hi) = (lo as usize, hi as usize);
        if lo >= hi {
            continue;
        }
        let d_si_m = row_i[s] + m;
        let d_sj_m = row_j[s] + m;
        let eff = effective.row_segment(s, lo, hi);
        let w = sw.weights.row_segment(s, lo, hi);
        let bi = &row_i[lo..hi];
        let bj = &row_j[lo..hi];
        let chunks = eff
            .chunks_exact(LANES)
            .zip(w.chunks_exact(LANES))
            .zip(bi.chunks_exact(LANES))
            .zip(bj.chunks_exact(LANES));
        for (((e, wv), vi), vj) in chunks {
            for l in 0..LANES {
                let cand = (d_si_m + vj[l]).min(d_sj_m + vi[l]).min(e[l]).min(f64::MAX);
                acc[l] += wv[l] * cand;
            }
        }
        let full = eff.len() - eff.len() % LANES;
        for l in full..eff.len() {
            let cand = (d_si_m + bj[l])
                .min(d_sj_m + bi[l])
                .min(eff[l])
                .min(f64::MAX);
            tail += w[l] * cand;
        }
    }
    let num = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    (num + tail) / sw.den
}

/// One directed hop of a conduit route: which physical segment the route
/// traverses and in which direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConduitHop {
    /// Index into [`ConduitLayer::segments`].
    pub segment: u32,
    /// `true` when the segment is traversed `a → b`, `false` for `b → a`.
    pub forward: bool,
}

/// The physical fiber conduit layer of a conduit-backed topology: the
/// long-haul conduit segments plus the shortest conduit route realising
/// every site pair's fiber distance.
///
/// This is what makes conduit sharing expressible downstream: the
/// evaluation lowering emits one simulator link per *segment* (not per
/// pair), and each demand's fiber fallback rides its pair's stored hops —
/// so concurrent demands queue against each other on shared conduits, and
/// cutting a segment severs every route that traverses it.
#[derive(Debug, Clone)]
pub struct ConduitLayer {
    /// The physical conduit segments, in the fiber network's order.
    segments: Vec<FiberLink>,
    /// Directed conduit-edge path per unordered site pair
    /// ([`pair_index`] order, stored `i → j` for `i < j`), in the
    /// `2·segment + direction` id convention of
    /// [`FiberNetwork::route_csr`]. Empty where unconnected.
    paths: PathStore,
    /// Number of sites the pair indexing is over.
    num_sites: usize,
}

impl ConduitLayer {
    /// The physical conduit segments.
    pub fn segments(&self) -> &[FiberLink] {
        &self.segments
    }

    /// Number of conduit segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// The raw per-pair directed-conduit-edge path arena.
    pub fn paths(&self) -> &PathStore {
        &self.paths
    }

    /// The directed conduit hops of the shortest fiber route `src → dst`
    /// (empty when `src == dst` or the pair is not conduit-connected).
    pub fn hops(&self, src: usize, dst: usize) -> Vec<ConduitHop> {
        if src == dst {
            return Vec::new();
        }
        let stored = self
            .paths
            .path(pair_index(self.num_sites, src.min(dst), src.max(dst)));
        let decode = |e: u32, flip: bool| ConduitHop {
            segment: e / 2,
            forward: e.is_multiple_of(2) != flip,
        };
        if src < dst {
            stored.iter().map(|&e| decode(e, false)).collect()
        } else {
            // Stored low → high: reverse the hop order and flip each
            // traversal direction.
            stored.iter().rev().map(|&e| decode(e, true)).collect()
        }
    }
}

/// The designed hybrid network.
#[derive(Debug, Clone)]
pub struct HybridTopology {
    /// Site locations.
    sites: Vec<GeoPoint>,
    /// Traffic weight `h_ij ∈ [0, 1]` for each unordered pair, stored as a
    /// full symmetric matrix with zero diagonal.
    traffic: DistMatrix,
    /// Geodesic distance between every pair of sites (km).
    geodesic_km: DistMatrix,
    /// Latency-equivalent fiber distance between every pair (km, already
    /// including the 1.5× propagation factor). `INFINITY` if no fiber.
    fiber_km: DistMatrix,
    /// Built microwave links.
    mw_links: Vec<CandidateLink>,
    /// Cached effective distance matrix (fiber ∪ built MW links).
    effective_km: DistMatrix,
    /// The physical conduit layer, when the topology was built from a
    /// conduit graph ([`HybridTopology::with_conduits`]); `None` for
    /// matrix-backed topologies, whose fiber layer is purely abstract.
    conduits: Option<ConduitLayer>,
}

impl HybridTopology {
    /// Create a topology with no microwave links built yet.
    ///
    /// `traffic` and `fiber_km` must be `n × n` (anything convertible into a
    /// [`DistMatrix`], e.g. a nested `Vec<Vec<f64>>`); the traffic matrix is
    /// used as weights and is not required to be normalised.
    pub fn new(
        sites: Vec<GeoPoint>,
        traffic: impl Into<DistMatrix>,
        fiber_km: impl Into<DistMatrix>,
    ) -> Self {
        let traffic = traffic.into();
        let fiber_km = fiber_km.into();
        let n = sites.len();
        assert!(n >= 2, "need at least two sites");
        assert_eq!(traffic.n(), n, "traffic matrix must be n × n");
        assert_eq!(fiber_km.n(), n, "fiber matrix must be n × n");
        let geodesic_km = DistMatrix::from_fn(n, |i, j| geodesic::distance_km(sites[i], sites[j]));
        let effective_km = fiber_km.clone();
        Self {
            sites,
            traffic,
            geodesic_km,
            fiber_km,
            mw_links: Vec::new(),
            effective_km,
            conduits: None,
        }
    }

    /// Create a topology whose fiber layer is grounded in a physical
    /// conduit graph instead of a pre-flattened distance matrix.
    ///
    /// The dense latency-equivalent fiber matrix becomes a *derived cache*:
    /// it is computed here from the conduit graph's per-source shortest-path
    /// searches (times the 1.5× fiber propagation factor), exactly the way
    /// [`FiberNetwork::latency_equivalent_matrix`] computes it — so a
    /// conduit-backed topology is bit-identical to a matrix-backed one fed
    /// that matrix, and the design engine runs on it unchanged. What the
    /// conduit layer adds is the physical realisation: the segment list and
    /// each pair's conduit route, which the evaluation lowering and the
    /// conduit-cut scenarios consume.
    ///
    /// `fiber` must be over the same sites (same order, same coordinates).
    pub fn with_conduits(
        sites: Vec<GeoPoint>,
        traffic: impl Into<DistMatrix>,
        fiber: &FiberNetwork,
    ) -> Self {
        assert_eq!(
            fiber.sites().len(),
            sites.len(),
            "conduit graph must cover the sites"
        );
        for (s, f) in sites.iter().zip(fiber.sites()) {
            assert!(
                s.lat_deg == f.lat_deg && s.lon_deg == f.lon_deg,
                "conduit graph sites must match the topology sites exactly"
            );
        }
        let routes = fiber.shortest_routes();
        let mut fiber_km = routes.route_km;
        fiber_km.map_in_place(|d| d * FIBER_LATENCY_FACTOR);
        let mut topo = Self::new(sites, traffic, fiber_km);
        topo.conduits = Some(ConduitLayer {
            segments: fiber.links().to_vec(),
            paths: routes.paths,
            num_sites: topo.num_sites(),
        });
        topo
    }

    /// The physical conduit layer, when this topology is conduit-backed.
    pub fn conduits(&self) -> Option<&ConduitLayer> {
        self.conduits.as_ref()
    }

    /// Number of sites.
    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }

    /// Site locations.
    pub fn sites(&self) -> &[GeoPoint] {
        &self.sites
    }

    /// The built microwave links.
    pub fn mw_links(&self) -> &[CandidateLink] {
        &self.mw_links
    }

    /// The traffic weight matrix.
    pub fn traffic(&self) -> &DistMatrix {
        &self.traffic
    }

    /// The geodesic distance matrix (km).
    pub fn geodesic_matrix(&self) -> &DistMatrix {
        &self.geodesic_km
    }

    /// The fiber distance matrix (km, latency-equivalent).
    pub fn fiber_matrix(&self) -> &DistMatrix {
        &self.fiber_km
    }

    /// Geodesic distance between two sites in km.
    pub fn geodesic_km(&self, a: usize, b: usize) -> f64 {
        self.geodesic_km.get(a, b)
    }

    /// Latency-equivalent fiber distance between two sites in km.
    pub fn fiber_km(&self, a: usize, b: usize) -> f64 {
        self.fiber_km.get(a, b)
    }

    /// Effective latency-equivalent distance between two sites in km over the
    /// built network.
    pub(crate) fn effective_km(&self, a: usize, b: usize) -> f64 {
        self.effective_km.get(a, b)
    }

    /// The full effective distance matrix.
    pub fn effective_matrix(&self) -> &DistMatrix {
        &self.effective_km
    }

    /// One-way latency between two sites in milliseconds over the built
    /// network.
    pub fn latency_ms(&self, a: usize, b: usize) -> f64 {
        latency::c_latency_ms(self.effective_km.get(a, b))
    }

    /// Add a microwave link to the topology, updating the effective distance
    /// matrix incrementally (exact).
    pub fn add_mw_link(&mut self, link: CandidateLink) {
        assert!(link.site_a < self.num_sites() && link.site_b < self.num_sites());
        improve_with_link(
            &mut self.effective_km,
            link.site_a,
            link.site_b,
            link.mw_length_km,
        );
        self.mw_links.push(link);
    }

    /// Stretch of a pair over the built network (effective latency relative
    /// to c-latency of the geodesic).
    pub fn stretch(&self, a: usize, b: usize) -> f64 {
        latency::distance_stretch(self.effective_km.get(a, b), self.geodesic_km.get(a, b))
    }

    /// Traffic-weighted mean stretch over all pairs — the design objective.
    /// Pairs with zero traffic or zero geodesic distance are skipped.
    pub fn mean_stretch(&self) -> f64 {
        weighted_mean_stretch(&self.effective_km, &self.geodesic_km, &self.traffic)
    }

    /// Mean stretch that would result from additionally building `link`,
    /// without mutating the topology. Used by the greedy designer to score
    /// candidates.
    pub fn mean_stretch_with(&self, link: &CandidateLink) -> f64 {
        mean_stretch_with_link(
            &self.effective_km,
            &self.geodesic_km,
            &self.traffic,
            link.site_a,
            link.site_b,
            link.mw_length_km,
        )
    }

    /// Effective distance matrix that would result from disabling the given
    /// subset of built MW links (by index into [`Self::mw_links`]): fiber,
    /// then [`improve_with_link`] for every surviving link in build order —
    /// the arithmetic [`Self::add_mw_link`] did; `self` is not modified.
    /// Indices beyond the link count (a stale failure list) disable nothing.
    /// A test oracle: the storm year gets every failure set's matrix from
    /// [`cisp_graph::leave_out_closures`], which `tests/storm_failures.rs`
    /// and `tests/matrix_engine_parity.rs` hold to this rebuild per set.
    pub fn effective_matrix_without(&self, disabled: &[usize]) -> DistMatrix {
        let mut off = BitSet::new(self.mw_links.len());
        for &idx in disabled {
            if idx < self.mw_links.len() {
                off.insert(idx);
            }
        }
        let mut matrix = self.fiber_km.clone();
        for (idx, l) in self.mw_links.iter().enumerate() {
            if !off.contains(idx) {
                improve_with_link(&mut matrix, l.site_a, l.site_b, l.mw_length_km);
            }
        }
        matrix
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three sites in a line: A (west), B (middle), C (east), ~400 km apart.
    fn line_sites() -> Vec<GeoPoint> {
        vec![
            GeoPoint::new(40.0, -100.0),
            GeoPoint::new(40.0, -95.3),
            GeoPoint::new(40.0, -90.6),
        ]
    }

    fn uniform_traffic(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| (0..n).map(|j| if i == j { 0.0 } else { 1.0 }).collect())
            .collect()
    }

    /// Fiber at 2× geodesic-equivalent (circuitous + slow).
    fn fiber_matrix(sites: &[GeoPoint]) -> Vec<Vec<f64>> {
        (0..sites.len())
            .map(|i| {
                (0..sites.len())
                    .map(|j| geodesic::distance_km(sites[i], sites[j]) * 2.0)
                    .collect()
            })
            .collect()
    }

    fn mw_link(a: usize, b: usize, length: f64, towers: usize) -> CandidateLink {
        CandidateLink {
            site_a: a.min(b),
            site_b: a.max(b),
            mw_length_km: length,
            tower_count: towers,
            tower_path: (0..towers).collect(),
        }
    }

    #[test]
    fn fiber_only_topology_has_fiber_stretch() {
        let sites = line_sites();
        let fiber = fiber_matrix(&sites);
        let topo = HybridTopology::new(sites.clone(), uniform_traffic(3), fiber);
        // Stretch = 2.0 everywhere by construction.
        assert!((topo.mean_stretch() - 2.0).abs() < 1e-9);
        assert!((topo.stretch(0, 2) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn adding_a_direct_mw_link_reduces_stretch_for_that_pair() {
        let sites = line_sites();
        let geo02 = geodesic::distance_km(sites[0], sites[2]);
        let fiber = fiber_matrix(&sites);
        let mut topo = HybridTopology::new(sites, uniform_traffic(3), fiber);
        topo.add_mw_link(mw_link(0, 2, geo02 * 1.02, 8));
        assert!((topo.stretch(0, 2) - 1.02).abs() < 1e-9);
        // Other pairs may also improve (via the new link), never get worse.
        assert!(topo.stretch(0, 1) <= 2.0 + 1e-9);
        assert!(topo.mean_stretch() < 2.0);
    }

    #[test]
    fn mw_links_compose_across_hops() {
        let sites = line_sites();
        let geo01 = geodesic::distance_km(sites[0], sites[1]);
        let geo12 = geodesic::distance_km(sites[1], sites[2]);
        let geo02 = geodesic::distance_km(sites[0], sites[2]);
        let fiber = fiber_matrix(&sites);
        let mut topo = HybridTopology::new(sites, uniform_traffic(3), fiber);
        topo.add_mw_link(mw_link(0, 1, geo01 * 1.01, 5));
        topo.add_mw_link(mw_link(1, 2, geo12 * 1.01, 5));
        // A–C should now route over the two MW links (sites are collinear, so
        // the concatenation is ≈1.01× the A–C geodesic).
        let stretch = topo.stretch(0, 2);
        assert!(stretch < 1.05, "stretch = {stretch}");
        assert!((topo.effective_km(0, 2) - (geo01 + geo12) * 1.01).abs() < 1e-6);
        assert!(topo.effective_km(0, 2) < geo02 * 2.0);
    }

    #[test]
    fn mean_stretch_with_matches_actual_addition() {
        let sites = line_sites();
        let geo02 = geodesic::distance_km(sites[0], sites[2]);
        let fiber = fiber_matrix(&sites);
        let topo = HybridTopology::new(sites.clone(), uniform_traffic(3), fiber.clone());
        let link = mw_link(0, 2, geo02 * 1.03, 8);
        let predicted = topo.mean_stretch_with(&link);
        let mut topo2 = HybridTopology::new(sites, uniform_traffic(3), fiber);
        topo2.add_mw_link(link);
        assert!((predicted - topo2.mean_stretch()).abs() < 1e-9);
    }

    #[test]
    fn compact_kernel_matches_scalar_reference() {
        let sites = line_sites();
        let geo02 = geodesic::distance_km(sites[0], sites[2]);
        let fiber = fiber_matrix(&sites);
        // Mixed traffic (one zero pair) exercises the weight compaction.
        let mut traffic = uniform_traffic(3);
        traffic[0][1] = 0.0;
        traffic[1][0] = 0.0;
        traffic[1][2] = 3.5;
        traffic[2][1] = 3.5;
        let mut topo = HybridTopology::new(sites, traffic, fiber);
        let sw = ScoringWeights::compute(
            topo.effective_matrix(),
            topo.geodesic_matrix(),
            topo.traffic(),
        );
        for (i, j, len) in [(0, 2, geo02 * 1.02), (0, 1, 350.0), (1, 2, 410.0)] {
            let scalar = mean_stretch_with_link(
                topo.effective_matrix(),
                topo.geodesic_matrix(),
                topo.traffic(),
                i,
                j,
                len,
            );
            let compact = mean_stretch_with_link_compact(topo.effective_matrix(), &sw, i, j, len);
            assert!(
                (scalar - compact).abs() < 1e-12,
                "({i}, {j}, {len}): scalar {scalar} vs compact {compact}"
            );
        }
        // The weights stay valid after link additions (distances only
        // shrink), which is exactly how the design engine reuses them.
        topo.add_mw_link(mw_link(0, 2, geo02 * 1.02, 8));
        let scalar = mean_stretch_with_link(
            topo.effective_matrix(),
            topo.geodesic_matrix(),
            topo.traffic(),
            0,
            1,
            300.0,
        );
        let compact = mean_stretch_with_link_compact(topo.effective_matrix(), &sw, 0, 1, 300.0);
        assert!((scalar - compact).abs() < 1e-12);
    }

    #[test]
    fn scoring_weights_reject_unreachable_and_empty_inputs() {
        let sites = line_sites();
        let geo = DistMatrix::from_fn(3, |i, j| geodesic::distance_km(sites[i], sites[j]));
        let mut fiber = DistMatrix::from_nested(fiber_matrix(&sites));
        let traffic = DistMatrix::from_nested(uniform_traffic(3));
        // A traffic-carrying pair with no fiber breaks the constant-
        // denominator invariant: rejected, naming the pair.
        fiber.set_sym(0, 2, f64::INFINITY);
        let rejected = std::panic::catch_unwind(|| ScoringWeights::compute(&fiber, &geo, &traffic))
            .expect_err("an unreachable traffic pair must be rejected");
        let message = rejected
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(message.contains("sites 0 and 2"), "{message}");
        // …unless that pair carries no traffic.
        let mut sparse = traffic.clone();
        sparse.set_sym(0, 2, 0.0);
        let sw = ScoringWeights::compute(&fiber, &geo, &sparse);
        assert_eq!(sw.weights().get(0, 2), 0.0);
        assert!(sw.den() > 0.0);
        // No traffic at all: no denominator, and every score reads 1.0.
        let zero = DistMatrix::zeros(3);
        let full = DistMatrix::from_nested(fiber_matrix(&sites));
        let sw = ScoringWeights::compute(&full, &geo, &zero);
        assert_eq!(sw.den(), 0.0);
        assert_eq!(mean_stretch_with_link_compact(&full, &sw, 0, 2, 1.0), 1.0);
    }

    #[test]
    fn gain_bounds_are_sound_on_metric_matrices() {
        let sites = line_sites();
        let fiber = fiber_matrix(&sites);
        let topo = HybridTopology::new(sites, uniform_traffic(3), fiber);
        let mut sw = ScoringWeights::compute(
            topo.effective_matrix(),
            topo.geodesic_matrix(),
            topo.traffic(),
        );
        // Unarmed: no row is ever skipped.
        assert!(sw.row_skip_slack_km().is_none());
        assert!(
            sw.arm_row_skip(topo.effective_matrix()),
            "2× geodesic is metric"
        );
        // A candidate improves some pair of row `s` only if the endpoints'
        // distances to `s` differ by more than its length less the slack.
        let slack = sw.row_skip_slack_km().unwrap();
        let eff = topo.effective_matrix();
        for (i, j) in [(0, 1), (0, 2), (1, 2)] {
            for factor in [1.0, 1.02, 1.3] {
                let m = topo.geodesic_km(i, j) * factor;
                for s in 0..3 {
                    let improves = (0..3).any(|t| {
                        let via = (eff.get(s, i) + m + eff.get(j, t))
                            .min(eff.get(s, j) + m + eff.get(i, t));
                        via < eff.get(s, t)
                    });
                    let skipped = (eff.get(s, i) - eff.get(s, j)).abs() <= m - slack;
                    assert!(!(improves && skipped), "({i}, {j}) × {factor}, row {s}");
                }
            }
        }
        // Non-metric matrices leave the skip unarmed.
        let mut broken = topo.effective_matrix().clone();
        broken.set_sym(0, 2, 1e7);
        let mut sw2 = ScoringWeights::compute(&broken, topo.geodesic_matrix(), topo.traffic());
        assert!(!sw2.arm_row_skip(&broken));
        assert!(sw2.row_skip_slack_km().is_none());
    }

    /// The geodesic screen arms only when all three conditions hold, and a
    /// failed arming leaves a zero floor; the slack is the same either way.
    #[test]
    fn the_geodesic_screen_arms_only_on_a_verified_floor() {
        let sites = line_sites();
        let fiber = DistMatrix::from_nested(fiber_matrix(&sites));
        let geo = DistMatrix::from_fn(3, |i, j| geodesic::distance_km(sites[i], sites[j]));
        let arm = |geodesic: &DistMatrix, fiber: &DistMatrix, factor: f64| {
            let links = (0..3).map(|i| (i, (i + 1) % 3, geo.get(i, (i + 1) % 3) * factor));
            let traffic = DistMatrix::from_nested(uniform_traffic(3));
            let mut sw = ScoringWeights::compute(fiber, geodesic, &traffic);
            assert_eq!(sw.screen_slack_km(), 0.0);
            let armed = sw.arm_geodesic_screen(geodesic, fiber, links);
            // ⌈log₂ 2⌉ + 2 = 3 tolerances of the largest fiber distance.
            let largest = fiber.as_slice().iter().copied().fold(0.0, f64::max);
            assert_eq!(sw.screen_slack_km(), 3.0 * METRIC_REL_TOL * largest);
            let want = if armed {
                geodesic.clone()
            } else {
                DistMatrix::zeros(3)
            };
            assert_eq!(sw.screen_floor_km(), &want);
            armed
        };
        assert!(arm(&geo, &fiber, 1.0));
        // A link shorter than its geodesic.
        assert!(!arm(&geo, &fiber, 0.9));
        // A fiber entry below the geodesic.
        let mut short_fiber = fiber.clone();
        short_fiber.set_sym(0, 1, geo.get(0, 1) * 0.9);
        assert!(!arm(&geo, &short_fiber, 1.0));
        // A floor that breaks the triangle inequality.
        let mut bent = geo.clone();
        bent.set_sym(0, 2, (geo.get(0, 1) + geo.get(1, 2)) * 1.01);
        assert!(!arm(&bent, &DistMatrix::filled(3, 1e6), 1.02));
    }

    #[test]
    fn improve_with_link_is_exact_vs_recompute() {
        let sites = line_sites();
        let fiber = fiber_matrix(&sites);
        let mut topo = HybridTopology::new(sites.clone(), uniform_traffic(3), fiber);
        let geo01 = geodesic::distance_km(sites[0], sites[1]);
        let geo12 = geodesic::distance_km(sites[1], sites[2]);
        topo.add_mw_link(mw_link(0, 1, geo01 * 1.02, 4));
        topo.add_mw_link(mw_link(1, 2, geo12 * 1.04, 4));
        let recomputed = topo.effective_matrix_without(&[]);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(
                    topo.effective_km(i, j).to_bits(),
                    recomputed.get(i, j).to_bits()
                );
            }
        }
    }

    #[test]
    fn effective_matrix_without_disables_links() {
        let sites = line_sites();
        let geo02 = geodesic::distance_km(sites[0], sites[2]);
        let fiber = fiber_matrix(&sites);
        let mut topo = HybridTopology::new(sites, uniform_traffic(3), fiber);
        topo.add_mw_link(mw_link(0, 2, geo02 * 1.02, 8));
        let without = topo.effective_matrix_without(&[0]);
        assert!((without[0][2] - geo02 * 2.0).abs() < 1e-9, "back to fiber");
        // Disabling nothing reproduces the current matrix.
        let with = topo.effective_matrix_without(&[]);
        assert!((with[0][2] - geo02 * 1.02).abs() < 1e-9);
    }

    #[test]
    fn effective_matrix_without_tolerates_stale_indices() {
        let sites = line_sites();
        let geo01 = geodesic::distance_km(sites[0], sites[1]);
        let fiber = fiber_matrix(&sites);
        let mut topo = HybridTopology::new(sites, uniform_traffic(3), fiber);
        topo.add_mw_link(mw_link(0, 1, geo01 * 1.02, 4));
        // Indices beyond the link count (e.g. a stale failure list) disable
        // nothing rather than panicking.
        let matrix = topo.effective_matrix_without(&[7, 99]);
        assert_eq!(&matrix, topo.effective_matrix());
    }

    #[test]
    fn stretch_never_below_one_with_sane_links() {
        let sites = line_sites();
        let geo01 = geodesic::distance_km(sites[0], sites[1]);
        let fiber = fiber_matrix(&sites);
        let mut topo = HybridTopology::new(sites, uniform_traffic(3), fiber);
        topo.add_mw_link(mw_link(0, 1, geo01 * 1.0, 3));
        for (i, j) in [(0, 1), (0, 2), (1, 2)] {
            let s = topo.stretch(i, j);
            assert!(
                s >= 1.0 - 1e-9,
                "stretch {s} of ({i}, {j}) below physical bound"
            );
        }
    }

    #[test]
    fn traffic_weights_bias_mean_stretch() {
        let sites = line_sites();
        let geo01 = geodesic::distance_km(sites[0], sites[1]);
        let fiber = fiber_matrix(&sites);
        // Heavy traffic on the 0–1 pair only.
        let mut traffic = uniform_traffic(3);
        traffic[0][1] = 100.0;
        traffic[1][0] = 100.0;
        let mut topo = HybridTopology::new(sites, traffic, fiber);
        topo.add_mw_link(mw_link(0, 1, geo01 * 1.01, 3));
        // Mean stretch is dominated by the improved pair.
        assert!(topo.mean_stretch() < 1.1);
    }

    #[test]
    #[should_panic]
    fn mismatched_matrix_sizes_panic() {
        let sites = line_sites();
        HybridTopology::new(sites, uniform_traffic(2), vec![vec![0.0; 3]; 3]);
    }

    /// A conduit network over the line sites: direct segments 0–1 and 1–2
    /// plus a long detour segment 0–2.
    fn line_conduits(sites: &[GeoPoint]) -> FiberNetwork {
        let geo01 = geodesic::distance_km(sites[0], sites[1]);
        let geo12 = geodesic::distance_km(sites[1], sites[2]);
        let geo02 = geodesic::distance_km(sites[0], sites[2]);
        FiberNetwork::from_parts(
            sites.to_vec(),
            vec![
                FiberLink {
                    a: 0,
                    b: 1,
                    route_km: geo01 * 1.2,
                },
                FiberLink {
                    a: 1,
                    b: 2,
                    route_km: geo12 * 1.2,
                },
                FiberLink {
                    a: 0,
                    b: 2,
                    route_km: geo02 * 1.45,
                },
            ],
        )
    }

    #[test]
    fn conduit_backed_topology_matches_matrix_backed_constructor() {
        let sites = line_sites();
        let fiber = line_conduits(&sites);
        let conduit = HybridTopology::with_conduits(sites.clone(), uniform_traffic(3), &fiber);
        let matrix = HybridTopology::new(
            sites.clone(),
            uniform_traffic(3),
            fiber.latency_equivalent_matrix(),
        );
        // The derived fiber cache and the effective matrix are bit-identical
        // to the matrix-backed constructor fed the flattened matrix.
        assert_eq!(conduit.fiber_matrix(), matrix.fiber_matrix());
        assert_eq!(conduit.effective_matrix(), matrix.effective_matrix());
        assert!(conduit.conduits().is_some());
        assert!(matrix.conduits().is_none());
        // MW links behave identically on both.
        let geo02 = geodesic::distance_km(sites[0], sites[2]);
        let mut a = conduit.clone();
        let mut b = matrix.clone();
        a.add_mw_link(mw_link(0, 2, geo02 * 1.02, 8));
        b.add_mw_link(mw_link(0, 2, geo02 * 1.02, 8));
        assert_eq!(a.effective_matrix(), b.effective_matrix());
        assert!(a.conduits().is_some(), "conduit layer survives MW builds");
    }

    #[test]
    fn conduit_hops_realise_shortest_routes_in_both_directions() {
        let sites = line_sites();
        let fiber = line_conduits(&sites);
        let topo = HybridTopology::with_conduits(sites.clone(), uniform_traffic(3), &fiber);
        let layer = topo.conduits().unwrap();
        assert_eq!(layer.num_segments(), 3);
        // 0 → 2: the two-segment route (1.2× each) beats the 1.45× direct
        // conduit on this collinear layout.
        let hops = layer.hops(0, 2);
        assert_eq!(
            hops,
            vec![
                ConduitHop {
                    segment: 0,
                    forward: true
                },
                ConduitHop {
                    segment: 1,
                    forward: true
                },
            ]
        );
        // The reverse direction is the same segments, reversed and flipped.
        let back = layer.hops(2, 0);
        assert_eq!(
            back,
            vec![
                ConduitHop {
                    segment: 1,
                    forward: false
                },
                ConduitHop {
                    segment: 0,
                    forward: false
                },
            ]
        );
        // Hop route lengths sum to the fiber distance (modulo the 1.5×).
        let total: f64 = hops
            .iter()
            .map(|h| layer.segments()[h.segment as usize].route_km)
            .sum();
        assert!((total * 1.5 - topo.fiber_km(0, 2)).abs() < 1e-9);
        // Self pairs have no hops.
        assert!(layer.hops(1, 1).is_empty());
    }

    #[test]
    #[should_panic]
    fn conduit_constructor_rejects_mismatched_sites() {
        let sites = line_sites();
        let fiber = line_conduits(&sites);
        let mut other = sites.clone();
        other[1] = GeoPoint::new(41.0, -95.3);
        HybridTopology::with_conduits(other, uniform_traffic(3), &fiber);
    }
}
