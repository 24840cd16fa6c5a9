//! The exact optimum of the design problem (§3.2).
//!
//! The paper states link selection as a flow ILP over candidate microwave
//! arcs and always-available fiber arcs, solved with Gurobi; its Fig. 2
//! compares that optimum with the cISP heuristic. Here the optimum comes
//! from [`exact_subset_search`], a combinatorial branch-and-bound over link
//! subsets. With no link capacities every commodity rides a shortest path
//! over the built links, so scoring each subset by its shortest paths
//! reaches the ILP's optimum. The search is the "exact solver" curve of the
//! Fig. 2 reproduction, and the tests hold it to brute force over every
//! affordable subset.

use cisp_graph::DistMatrix;

use crate::design::{DesignInput, DesignOutcome};
use crate::topology::{improve_with_link, weighted_mean_stretch};

/// Errors from the exact search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExactSolveError {
    /// The search hit its node limit before proving optimality.
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
fn outcome_from_selection(input: &DesignInput, selected: &[usize]) -> DesignOutcome {
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
/// [`ExactSolveError::LimitReached`]. Panics if `budget_towers` is negative
/// or NaN.
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
    assert!(budget_towers >= 0.0);
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
    use crate::scenario::{Scenario, ScenarioConfig};
    use cisp_geo::{geodesic, GeoPoint};
    use cisp_graph::DistMatrix;

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

    /// The best mean stretch over every subset of useful candidates that
    /// fits `budget`, each subset built from scratch.
    fn brute_force_optimum(input: &DesignInput, budget: f64) -> f64 {
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
                best = best.min(outcome_from_selection(input, &selection).mean_stretch);
            }
        }
        best
    }

    /// The miniature scenario's first `n` sites, with their own traffic,
    /// fiber and candidates.
    fn tiny_test_input(n: usize) -> DesignInput {
        let scenario = Scenario::build(&ScenarioConfig::tiny_test());
        let mut input = scenario.design_input().clone();
        input.sites.truncate(n);
        input.traffic = input.traffic.truncated(n);
        input.fiber_km = input.fiber_km.truncated(n);
        input.candidates.retain(|l| l.site_a < n && l.site_b < n);
        input
    }

    #[test]
    fn exact_search_matches_brute_force_on_tiny_instance() {
        let mut instances = Vec::new();
        for n in [4, 5, 6] {
            for budget in [0, 3 * n, 6 * n] {
                let label = format!("synthetic n={n}");
                instances.push((label, synthetic_input(n), budget as f64));
            }
        }
        instances.push(("tiny_test n=6".into(), tiny_test_input(6), 150.0));
        for (label, input, budget) in &instances {
            let (exact, _) = exact_subset_search(input, *budget, 1_000_000).unwrap();
            let best = brute_force_optimum(input, *budget);
            assert!(
                (exact.mean_stretch - best).abs() < 1e-12,
                "{label}, budget {budget}: exact {} vs brute force {best}",
                exact.mean_stretch
            );
            assert!(exact.total_towers as f64 <= *budget);
        }
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

    #[test]
    #[should_panic]
    fn negative_budget_panics() {
        let _ = exact_subset_search(&synthetic_input(4), -1.0, 100_000);
    }

    #[test]
    #[should_panic]
    fn nan_budget_panics() {
        let _ = exact_subset_search(&synthetic_input(4), f64::NAN, 100_000);
    }
}
