//! The exact flow-based ILP formulation of the design problem (§3.2).
//!
//! For every unordered site pair `(s, t)` with traffic `h_st`, one unit of
//! flow must travel from `s` to `t` over a mix of
//!
//! * *candidate microwave arcs* `i→j` (usable only if the corresponding link
//!   is built, `x_ij = 1`), with latency-equivalent length `m_ij`, and
//! * *fiber arcs* `i→j` (always available), with latency-equivalent length
//!   `o_ij`.
//!
//! The objective weights each unit of carried distance by `h_st / d_st`, so
//! minimising it minimises the traffic-weighted mean stretch. The budget
//! constraint `Σ c_ij · x_ij ≤ B` caps the number of towers.
//!
//! Two paper tricks are applied before the solver sees the model:
//!
//! * **fiber-oracle elimination** (exact): candidate links no shorter than
//!   the fiber distance between their endpoints are dropped, and per-commodity
//!   MW arc variables are only created when the arc could possibly lie on a
//!   path shorter than the commodity's direct fiber distance;
//! * **flow relaxation** (exact for this problem): flow variables are left
//!   continuous. With link capacities absent, for any fixed integral `x` the
//!   flow polytope's optimum is attained by routing each commodity on a
//!   shortest path, so the optimal objective value (and the optimal `x`) are
//!   unchanged — only the branch-and-bound tree gets much smaller.
//!
//! The formulation is built and solved only in this module's tests, where
//! it cross-validates [`exact_subset_search`]: a combinatorial
//! branch-and-bound over link subsets that is the "exact solver" curve of
//! the Fig. 2 reproduction, at sizes the dense simplex cannot reach.

use cisp_graph::DistMatrix;

use crate::design::{DesignInput, DesignOutcome};
use crate::topology::{improve_with_link, weighted_mean_stretch};

/// Errors from the exact solvers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExactSolveError {
    /// The search hit its node or time limit before proving optimality.
    LimitReached,
}

impl std::fmt::Display for ExactSolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExactSolveError::LimitReached => write!(f, "exact solver hit its search limit"),
        }
    }
}

impl std::error::Error for ExactSolveError {}

/// Build a [`DesignOutcome`] from an explicit selection of candidate indices.
pub(crate) fn outcome_from_selection(input: &DesignInput, selected: &[usize]) -> DesignOutcome {
    let mut topology = input.empty_topology();
    let mut total_towers = 0;
    for &idx in selected {
        total_towers += input.candidates[idx].tower_count;
        topology.add_mw_link(input.candidates[idx].clone());
    }
    DesignOutcome {
        selected: selected.to_vec(),
        mean_stretch: topology.mean_stretch(),
        total_towers,
        topology,
        history: Vec::new(),
    }
}

/// Exact combinatorial branch-and-bound over link subsets.
///
/// Explores include/exclude decisions over the (oracle-filtered) candidates,
/// pruning with an optimistic bound: the mean stretch obtained by building
/// *every* remaining candidate for free. The bound is admissible because
/// adding links can only reduce stretch, so the search returns the true
/// optimum. `max_nodes` caps the search; exceeding it returns
/// [`ExactSolveError::LimitReached`].
///
/// The search runs entirely on flat scratch matrices from the
/// `cisp_graph::DistMatrix` engine: each include-branch extends the parent's
/// effective matrix with one incremental `improve_with_link`, node
/// evaluation is one `weighted_mean_stretch` sweep, and the optimistic bound
/// reuses a single copy-on-write scratch buffer — no per-node topology
/// rebuilds (which recomputed all O(n²) geodesics per node) remain. A full
/// [`DesignOutcome`] is materialised only for the final incumbent.
pub fn exact_subset_search(
    input: &DesignInput,
    budget_towers: f64,
    max_nodes: usize,
) -> Result<(DesignOutcome, usize), ExactSolveError> {
    let pool = input.useful_candidates();
    let budget = budget_towers.floor() as usize;

    // Order candidates by decreasing single-link gain so good solutions are
    // found early (better pruning).
    let base = input.empty_topology();
    let base_stretch = base.mean_stretch();
    let mut ordered: Vec<usize> = pool.clone();
    ordered.sort_by(|&a, &b| {
        let ga = base_stretch - base.mean_stretch_with(&input.candidates[a]);
        let gb = base_stretch - base.mean_stretch_with(&input.candidates[b]);
        gb.partial_cmp(&ga).unwrap().then(a.cmp(&b))
    });

    let mut search = SubsetSearch {
        input,
        ordered: &ordered,
        geodesic: base.geodesic_matrix(),
        budget,
        max_nodes,
        best_selection: Vec::new(),
        best_stretch: base_stretch,
        nodes: 0,
        limit_hit: false,
        scratch: input.fiber_km.clone(),
    };
    let mut selection = Vec::new();
    search.recurse(0, &mut selection, &input.fiber_km, 0);

    if search.limit_hit {
        return Err(ExactSolveError::LimitReached);
    }
    Ok((
        outcome_from_selection(input, &search.best_selection),
        search.nodes,
    ))
}

/// State of one [`exact_subset_search`] run.
struct SubsetSearch<'a> {
    input: &'a DesignInput,
    ordered: &'a [usize],
    geodesic: &'a DistMatrix,
    budget: usize,
    max_nodes: usize,
    best_selection: Vec<usize>,
    best_stretch: f64,
    nodes: usize,
    limit_hit: bool,
    /// Reusable buffer for the optimistic bound's free completion.
    scratch: DistMatrix,
}

impl SubsetSearch<'_> {
    /// Depth-first include/exclude search. `effective` is the metric-closed
    /// distance matrix of the current `selection` (fiber plus the selected
    /// links, applied in selection order).
    fn recurse(
        &mut self,
        depth: usize,
        selection: &mut Vec<usize>,
        effective: &DistMatrix,
        cost: usize,
    ) {
        if self.limit_hit {
            return;
        }
        self.nodes += 1;
        if self.nodes > self.max_nodes {
            self.limit_hit = true;
            return;
        }

        // Evaluate the current selection.
        let stretch = weighted_mean_stretch(effective, self.geodesic, &self.input.traffic);
        if stretch < self.best_stretch - 1e-12 {
            self.best_stretch = stretch;
            self.best_selection = selection.clone();
        }

        if depth >= self.ordered.len() {
            return;
        }

        // Optimistic bound: add all remaining candidates for free, into the
        // reusable scratch buffer.
        self.scratch.copy_from(effective);
        for &idx in &self.ordered[depth..] {
            let l = &self.input.candidates[idx];
            improve_with_link(&mut self.scratch, l.site_a, l.site_b, l.mw_length_km);
        }
        let optimistic = weighted_mean_stretch(&self.scratch, self.geodesic, &self.input.traffic);
        if optimistic >= self.best_stretch - 1e-12 {
            return; // even the free completion cannot beat the incumbent
        }

        // Branch: include ordered[depth] if affordable, then exclude it.
        let idx = self.ordered[depth];
        let link_cost = self.input.candidates[idx].tower_count;
        if cost + link_cost <= self.budget {
            let l = &self.input.candidates[idx];
            let mut included = effective.clone();
            improve_with_link(&mut included, l.site_a, l.site_b, l.mw_length_km);
            selection.push(idx);
            self.recurse(depth + 1, selection, &included, cost + link_cost);
            selection.pop();
        }
        self.recurse(depth + 1, selection, effective, cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Designer;
    use crate::links::CandidateLink;
    use cisp_geo::{geodesic, GeoPoint};
    use cisp_graph::DistMatrix;
    use cisp_lp::{
        branch_bound::{solve_milp, MilpError, MilpOptions},
        model::{Problem, VarId, VarKind},
    };

    /// Statistics about a built ILP model.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct IlpModelStats {
        /// Number of decision variables.
        pub num_vars: usize,
        /// Number of constraints.
        pub num_constraints: usize,
        /// Number of candidate links offered to the solver.
        pub num_candidates: usize,
        /// Number of commodities (site pairs with positive traffic).
        pub num_commodities: usize,
    }

    /// The assembled ILP model, ready to solve.
    struct IlpFormulation {
        problem: Problem,
        /// `x` variable of each offered candidate (indexed like `candidate_pool`).
        x_vars: Vec<VarId>,
        /// Candidate indices (into `DesignInput::candidates`) offered to the ILP.
        candidate_pool: Vec<usize>,
        stats: IlpModelStats,
    }

    impl IlpFormulation {
        /// Build the flow ILP for the given candidate pool and tower budget.
        ///
        /// `pool` holds indices into `input.candidates`; pass
        /// `input.useful_candidates()` for the full (oracle-filtered) problem.
        fn build(input: &DesignInput, pool: &[usize], budget_towers: f64) -> Self {
            let n = input.sites.len();
            let mut problem = Problem::minimize();

            // Candidate build variables.
            let x_vars: Vec<VarId> = pool
                .iter()
                .map(|&idx| {
                    let l = &input.candidates[idx];
                    problem.add_var(
                        &format!("x_{}_{}", l.site_a, l.site_b),
                        VarKind::Binary,
                        0.0,
                    )
                })
                .collect();

            // Budget constraint.
            problem.add_le(
                pool.iter()
                    .zip(&x_vars)
                    .map(|(&idx, &x)| (x, input.candidates[idx].tower_count as f64))
                    .collect(),
                budget_towers,
            );

            // Commodities: unordered pairs with positive traffic.
            let commodities: Vec<(usize, usize)> = input
                .traffic
                .upper_triangle()
                .filter(|&(_, _, h)| h > 0.0)
                .map(|(s, t, _)| (s, t))
                .collect();

            let geodesic = |s: usize, t: usize| -> f64 {
                cisp_geo::geodesic::distance_km(input.sites[s], input.sites[t]).max(1e-6)
            };

            // Per-commodity flow variables and constraints.
            for &(s, t) in &commodities {
                let h = input.traffic.get(s, t);
                let weight = h / geodesic(s, t);
                let direct_fiber = input.fiber_km.get(s, t);

                // Arc variable registry for this commodity:
                // (from, to, length, optional pool position for MW arcs).
                let mut arcs: Vec<(usize, usize, f64, Option<usize>)> = Vec::new();
                // Fiber arcs between every ordered pair (always available).
                for i in 0..n {
                    for j in 0..n {
                        if i != j && input.fiber_km[i][j].is_finite() {
                            arcs.push((i, j, input.fiber_km[i][j], None));
                        }
                    }
                }
                // MW arcs for pool candidates, oracle-filtered per commodity:
                // an arc can only help if entering and leaving it could beat the
                // commodity's direct fiber distance.
                for (pos, &idx) in pool.iter().enumerate() {
                    let l = &input.candidates[idx];
                    let (i, j, m) = (l.site_a, l.site_b, l.mw_length_km);
                    let via_ij = input.fiber_km[s][i] + m + input.fiber_km[j][t];
                    let via_ji = input.fiber_km[s][j] + m + input.fiber_km[i][t];
                    if via_ij.min(via_ji) < direct_fiber + 1e-9 {
                        arcs.push((i, j, m, Some(pos)));
                        arcs.push((j, i, m, Some(pos)));
                    }
                }

                // Flow variables.
                let flow_vars: Vec<VarId> = arcs
                    .iter()
                    .map(|&(i, j, len, mw)| {
                        let name = match mw {
                            Some(_) => format!("f_{s}_{t}_mw_{i}_{j}"),
                            None => format!("f_{s}_{t}_fi_{i}_{j}"),
                        };
                        problem.add_var(&name, VarKind::Continuous, weight * len)
                    })
                    .collect();

                // Flow conservation at every node.
                for node in 0..n {
                    let mut terms = Vec::new();
                    for (arc_idx, &(i, j, _, _)) in arcs.iter().enumerate() {
                        if i == node {
                            terms.push((flow_vars[arc_idx], 1.0));
                        } else if j == node {
                            terms.push((flow_vars[arc_idx], -1.0));
                        }
                    }
                    let rhs = if node == s {
                        1.0
                    } else if node == t {
                        -1.0
                    } else {
                        0.0
                    };
                    if !terms.is_empty() || rhs != 0.0 {
                        problem.add_eq(terms, rhs);
                    }
                }

                // Coupling: MW arcs only usable if the link is built.
                for (arc_idx, &(_, _, _, mw)) in arcs.iter().enumerate() {
                    if let Some(pos) = mw {
                        problem.add_le(vec![(flow_vars[arc_idx], 1.0), (x_vars[pos], -1.0)], 0.0);
                    }
                }
            }

            let stats = IlpModelStats {
                num_vars: problem.num_vars(),
                num_constraints: problem.num_constraints(),
                num_candidates: pool.len(),
                num_commodities: commodities.len(),
            };

            Self {
                problem,
                x_vars,
                candidate_pool: pool.to_vec(),
                stats,
            }
        }

        /// Model-size statistics.
        fn stats(&self) -> IlpModelStats {
            self.stats
        }

        /// Solve the ILP and convert the result into a [`DesignOutcome`]. The
        /// model is never infeasible: fiber only satisfies every constraint.
        fn solve(
            &self,
            input: &DesignInput,
            options: &MilpOptions,
        ) -> Result<DesignOutcome, ExactSolveError> {
            let solution = solve_milp(&self.problem, options).map_err(|e| match e {
                MilpError::Infeasible => panic!("design ILP unexpectedly infeasible"),
                _ => ExactSolveError::LimitReached,
            })?;
            if !solution.proven_optimal {
                return Err(ExactSolveError::LimitReached);
            }
            let selected: Vec<usize> = self
                .candidate_pool
                .iter()
                .zip(&self.x_vars)
                .filter(|(_, x)| solution.values[x.index()] > 0.5)
                .map(|(&idx, _)| idx)
                .collect();
            Ok(outcome_from_selection(input, &selected))
        }
    }

    fn synthetic_input(n: usize) -> DesignInput {
        let sites: Vec<GeoPoint> = (0..n)
            .map(|i| GeoPoint::new(37.0 + (i % 2) as f64 * 3.0, -105.0 + i as f64 * 3.0))
            .collect();
        let traffic = DistMatrix::from_fn(n, |i, j| if i == j { 0.0 } else { 1.0 });
        let fiber_km =
            DistMatrix::from_fn(n, |i, j| geodesic::distance_km(sites[i], sites[j]) * 1.9);
        let mut candidates = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let geo = geodesic::distance_km(sites[i], sites[j]);
                let towers = ((geo / 60.0).ceil() as usize).max(1);
                candidates.push(CandidateLink {
                    site_a: i,
                    site_b: j,
                    mw_length_km: geo * 1.04,
                    tower_count: towers,
                    tower_path: (0..towers).collect(),
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
    fn model_stats_reflect_problem_size() {
        let input = synthetic_input(4);
        let pool = input.useful_candidates();
        let ilp = IlpFormulation::build(&input, &pool, 10.0);
        let stats = ilp.stats();
        assert_eq!(stats.num_candidates, 6);
        assert_eq!(stats.num_commodities, 6);
        assert!(stats.num_vars > 6);
        assert!(stats.num_constraints > 6);
    }

    #[test]
    fn exact_search_matches_brute_force_on_tiny_instance() {
        let input = synthetic_input(4);
        let budget = 12.0;
        let (exact, _) = exact_subset_search(&input, budget, 1_000_000).unwrap();

        // Brute force over all subsets of useful candidates.
        let pool = input.useful_candidates();
        let mut best = f64::INFINITY;
        for mask in 0u32..(1 << pool.len()) {
            let selection: Vec<usize> = pool
                .iter()
                .enumerate()
                .filter(|(k, _)| mask & (1 << k) != 0)
                .map(|(_, &idx)| idx)
                .collect();
            let cost: usize = selection
                .iter()
                .map(|&i| input.candidates[i].tower_count)
                .sum();
            if cost as f64 <= budget {
                let o = outcome_from_selection(&input, &selection);
                best = best.min(o.mean_stretch);
            }
        }
        assert!((exact.mean_stretch - best).abs() < 1e-9);
    }

    #[test]
    fn ilp_matches_exact_search_on_tiny_instance() {
        let input = synthetic_input(4);
        let budget = 12.0;
        let pool = input.useful_candidates();
        let ilp = IlpFormulation::build(&input, &pool, budget);
        let ilp_outcome = ilp.solve(&input, &MilpOptions::default()).unwrap();
        let (exact, _) = exact_subset_search(&input, budget, 1_000_000).unwrap();
        assert!(
            (ilp_outcome.mean_stretch - exact.mean_stretch).abs() < 1e-6,
            "ILP {} vs exact {}",
            ilp_outcome.mean_stretch,
            exact.mean_stretch
        );
        assert!(ilp_outcome.total_towers as f64 <= budget);
    }

    #[test]
    fn heuristic_matches_exact_on_small_instances() {
        // Fig. 2(b): the cISP heuristic matches the exact optimum to two
        // decimal places at small scale.
        for n in [4, 5, 6] {
            let input = synthetic_input(n);
            let budget = (3 * n) as f64;
            let (exact, _) = exact_subset_search(&input, budget, 5_000_000).unwrap();
            let heuristic = Designer::new(&input).cisp(budget);
            assert!(
                heuristic.mean_stretch - exact.mean_stretch < 0.01,
                "n={n}: heuristic {} vs exact {}",
                heuristic.mean_stretch,
                exact.mean_stretch
            );
        }
    }

    #[test]
    fn exact_search_respects_budget() {
        let input = synthetic_input(5);
        let (outcome, _) = exact_subset_search(&input, 6.0, 1_000_000).unwrap();
        assert!(outcome.total_towers <= 6);
    }

    #[test]
    fn exact_search_node_limit_reported() {
        let input = synthetic_input(6);
        match exact_subset_search(&input, 30.0, 3) {
            Err(ExactSolveError::LimitReached) => {}
            other => panic!("expected limit, got {other:?}"),
        }
    }

    #[test]
    fn zero_budget_exact_is_fiber_only() {
        let input = synthetic_input(4);
        let (outcome, _) = exact_subset_search(&input, 0.0, 100_000).unwrap();
        assert!(outcome.selected.is_empty());
        assert!((outcome.mean_stretch - 1.9).abs() < 1e-9);
    }
}
