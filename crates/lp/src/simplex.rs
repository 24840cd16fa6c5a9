//! Dense two-phase primal simplex.
//!
//! Solves the continuous relaxation of a [`Problem`]: minimise `cᵀx` subject
//! to the problem's linear constraints, `x ≥ 0`, and finite upper bounds
//! (which are materialised as extra `≤` rows). The implementation is the
//! classic dense tableau method:
//!
//! 1. normalise every row to a non-negative right-hand side,
//! 2. add slack, surplus and artificial columns as required,
//! 3. phase 1 minimises the sum of artificials (infeasible if positive),
//! 4. phase 2 minimises the true objective with artificials barred.
//!
//! Pivot selection uses Bland's rule (smallest eligible index), which makes
//! the solver immune to cycling and fully deterministic at the cost of some
//! extra pivots — an acceptable trade for the problem sizes in this
//! workspace.

use crate::model::{Problem, Sense};

/// Numerical tolerance used throughout the solver.
const EPS: f64 = 1e-9;

/// Outcome of an LP solve that did not produce an optimal solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpError {
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded below over the feasible region.
    Unbounded,
    /// The pivot limit was exceeded (should not happen with Bland's rule;
    /// kept as a defensive backstop).
    IterationLimit,
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl std::error::Error for LpError {}

/// An optimal solution to the LP relaxation.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Optimal objective value (minimisation).
    pub objective: f64,
    /// Value of every original problem variable, indexed by `VarId::index()`.
    pub values: Vec<f64>,
}

/// Internal dense tableau.
struct Tableau {
    /// Constraint rows: `rows[i]` has `n_total + 1` entries, the last being
    /// the right-hand side.
    rows: Vec<Vec<f64>>,
    /// Objective row (reduced costs), `n_total + 1` entries; the last entry
    /// is the negated objective value.
    obj: Vec<f64>,
    /// Basis: for each row, the column index of its basic variable.
    basis: Vec<usize>,
    /// Total number of columns excluding the RHS.
    n_total: usize,
    /// Number of original (problem) variables.
    n_orig: usize,
    /// Column indices of artificial variables.
    artificials: Vec<usize>,
}

impl Tableau {
    /// Rebuild the objective row for cost vector `costs` (length `n_total`)
    /// so that it is consistent with the current basis (reduced costs of
    /// basic columns are zero).
    fn set_objective(&mut self, costs: &[f64]) {
        let m = self.rows.len();
        let mut obj = vec![0.0; self.n_total + 1];
        obj[..self.n_total].copy_from_slice(costs);
        // Price out the basic variables: obj -= cost[basis[i]] * row[i].
        for i in 0..m {
            let cb = costs[self.basis[i]];
            if cb.abs() > 0.0 {
                for (o, r) in obj.iter_mut().zip(&self.rows[i]) {
                    *o -= cb * r;
                }
            }
        }
        self.obj = obj;
    }

    /// Perform one pivot on (row `r`, column `c`).
    fn pivot(&mut self, r: usize, c: usize) {
        let pivot_val = self.rows[r][c];
        debug_assert!(pivot_val.abs() > EPS, "pivot on ~zero element");
        let inv = 1.0 / pivot_val;
        for v in self.rows[r].iter_mut() {
            *v *= inv;
        }
        let pivot_row = self.rows[r].clone();
        for (i, row) in self.rows.iter_mut().enumerate() {
            if i != r {
                let factor = row[c];
                if factor.abs() > 0.0 {
                    for (v, pv) in row.iter_mut().zip(pivot_row.iter()) {
                        *v -= factor * pv;
                    }
                }
            }
        }
        let factor = self.obj[c];
        if factor.abs() > 0.0 {
            for (v, pv) in self.obj.iter_mut().zip(pivot_row.iter()) {
                *v -= factor * pv;
            }
        }
        self.basis[r] = c;
    }

    /// Run simplex iterations until optimal, with columns in `barred` never
    /// allowed to enter the basis. Returns `Err(Unbounded)` if a column with
    /// negative reduced cost has no positive entry.
    fn optimize(&mut self, barred: &[bool], max_iters: usize) -> Result<(), LpError> {
        for _ in 0..max_iters {
            // Bland's rule: smallest-index column with negative reduced cost.
            let entering = (0..self.n_total).find(|&j| !barred[j] && self.obj[j] < -EPS);
            let c = match entering {
                Some(c) => c,
                None => return Ok(()),
            };
            // Ratio test; Bland tie-break on smallest basis variable index.
            let mut best: Option<(f64, usize, usize)> = None; // (ratio, basis var, row)
            for (i, row) in self.rows.iter().enumerate() {
                if row[c] > EPS {
                    let ratio = row[self.n_total] / row[c];
                    let key = (ratio, self.basis[i]);
                    match best {
                        None => best = Some((key.0, key.1, i)),
                        Some((r0, b0, _)) => {
                            if ratio < r0 - EPS || ((ratio - r0).abs() <= EPS && key.1 < b0) {
                                best = Some((key.0, key.1, i));
                            }
                        }
                    }
                }
            }
            match best {
                Some((_, _, r)) => self.pivot(r, c),
                None => return Err(LpError::Unbounded),
            }
        }
        Err(LpError::IterationLimit)
    }

    /// Extract the value of every column from the current basis.
    fn column_values(&self) -> Vec<f64> {
        let mut values = vec![0.0; self.n_total];
        for (i, &b) in self.basis.iter().enumerate() {
            values[b] = self.rows[i][self.n_total];
        }
        values
    }
}

/// Build the initial tableau for a problem.
fn build_tableau(problem: &Problem) -> Tableau {
    let n_orig = problem.num_vars();

    // Materialise finite upper bounds as extra `≤` rows.
    #[derive(Clone, Copy)]
    struct Row<'a> {
        terms: &'a [(crate::model::VarId, f64)],
        single: Option<(usize, f64)>,
        sense: Sense,
        rhs: f64,
    }
    let mut rows: Vec<Row> = Vec::new();
    for c in problem.constraints() {
        rows.push(Row {
            terms: &c.terms,
            single: None,
            sense: c.sense,
            rhs: c.rhs,
        });
    }
    let bound_rows: Vec<(usize, f64)> = problem
        .variables()
        .iter()
        .enumerate()
        .filter(|(_, v)| v.upper_bound.is_finite())
        .map(|(i, v)| (i, v.upper_bound))
        .collect();
    for &(i, ub) in &bound_rows {
        rows.push(Row {
            terms: &[],
            single: Some((i, 1.0)),
            sense: Sense::Le,
            rhs: ub,
        });
    }

    let m = rows.len();
    // Count auxiliary columns.
    let mut n_slack = 0usize;
    let mut n_art = 0usize;
    for row in &rows {
        // After normalising to rhs >= 0:
        let rhs_neg = row.rhs < 0.0;
        let sense = match (row.sense, rhs_neg) {
            (Sense::Le, false) | (Sense::Ge, true) => Sense::Le,
            (Sense::Ge, false) | (Sense::Le, true) => Sense::Ge,
            (Sense::Eq, _) => Sense::Eq,
        };
        match sense {
            Sense::Le => n_slack += 1,
            Sense::Ge => {
                n_slack += 1;
                n_art += 1;
            }
            Sense::Eq => n_art += 1,
        }
    }
    let n_total = n_orig + n_slack + n_art;

    let mut tableau_rows = vec![vec![0.0; n_total + 1]; m];
    let mut basis = vec![0usize; m];
    let mut artificials = Vec::with_capacity(n_art);
    let mut next_slack = n_orig;
    let mut next_art = n_orig + n_slack;

    for (i, row) in rows.iter().enumerate() {
        let sign = if row.rhs < 0.0 { -1.0 } else { 1.0 };
        let tr = &mut tableau_rows[i];
        if let Some((j, coef)) = row.single {
            tr[j] += sign * coef;
        }
        for &(v, coef) in row.terms {
            tr[v.index()] += sign * coef;
        }
        tr[n_total] = sign * row.rhs;

        let sense = match (row.sense, sign < 0.0) {
            (Sense::Le, false) | (Sense::Ge, true) => Sense::Le,
            (Sense::Ge, false) | (Sense::Le, true) => Sense::Ge,
            (Sense::Eq, _) => Sense::Eq,
        };
        match sense {
            Sense::Le => {
                tr[next_slack] = 1.0;
                basis[i] = next_slack;
                next_slack += 1;
            }
            Sense::Ge => {
                tr[next_slack] = -1.0;
                next_slack += 1;
                tr[next_art] = 1.0;
                basis[i] = next_art;
                artificials.push(next_art);
                next_art += 1;
            }
            Sense::Eq => {
                tr[next_art] = 1.0;
                basis[i] = next_art;
                artificials.push(next_art);
                next_art += 1;
            }
        }
    }

    Tableau {
        rows: tableau_rows,
        obj: vec![0.0; n_total + 1],
        basis,
        n_total,
        n_orig,
        artificials,
    }
}

/// Solve the LP relaxation of `problem` (integrality is ignored; bounds and
/// constraints are honoured). Returns the optimal solution or an
/// [`LpError`].
pub fn solve_lp(problem: &Problem) -> Result<LpSolution, LpError> {
    // A problem with no constraints at all: each variable independently sits
    // at 0 or at its upper bound depending on its cost sign.
    if problem.num_constraints() == 0
        && problem
            .variables()
            .iter()
            .all(|v| !v.upper_bound.is_finite())
    {
        if problem.variables().iter().any(|v| v.objective < -EPS) {
            return Err(LpError::Unbounded);
        }
        return Ok(LpSolution {
            objective: 0.0,
            values: vec![0.0; problem.num_vars()],
        });
    }

    let mut t = build_tableau(problem);
    let m = t.rows.len();
    let max_iters = 50 * (t.n_total + m) + 1000;

    // Phase 1: minimise the sum of artificials.
    if !t.artificials.is_empty() {
        let mut phase1_costs = vec![0.0; t.n_total];
        for &a in &t.artificials {
            phase1_costs[a] = 1.0;
        }
        t.set_objective(&phase1_costs);
        let barred = vec![false; t.n_total];
        t.optimize(&barred, max_iters)?;
        let phase1_value = -t.obj[t.n_total];
        if phase1_value > 1e-6 {
            return Err(LpError::Infeasible);
        }
        // Drive any artificial still in the basis (at value ~0) out if we can.
        let art_set: Vec<bool> = {
            let mut v = vec![false; t.n_total];
            for &a in &t.artificials {
                v[a] = true;
            }
            v
        };
        for r in 0..m {
            if art_set[t.basis[r]] {
                if let Some(c) = (0..t.n_total).find(|&j| !art_set[j] && t.rows[r][j].abs() > EPS) {
                    t.pivot(r, c);
                }
            }
        }
    }

    // Phase 2: minimise the real objective with artificials barred.
    let mut costs = vec![0.0; t.n_total];
    for (i, v) in problem.variables().iter().enumerate() {
        costs[i] = v.objective;
    }
    t.set_objective(&costs);
    let mut barred = vec![false; t.n_total];
    for &a in &t.artificials {
        barred[a] = true;
    }
    t.optimize(&barred, max_iters)?;

    let col_values = t.column_values();
    let values = col_values[..t.n_orig].to_vec();
    let objective = problem.objective_value(&values);
    Ok(LpSolution { objective, values })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Problem, Sense, VarKind};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn simple_two_var_lp() {
        // maximise 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
        // classic optimum x = 2, y = 6, value 36.
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, -3.0);
        let y = p.add_var("y", VarKind::Continuous, -5.0);
        p.add_le(vec![(x, 1.0)], 4.0);
        p.add_le(vec![(y, 2.0)], 12.0);
        p.add_le(vec![(x, 3.0), (y, 2.0)], 18.0);
        let sol = solve_lp(&p).unwrap();
        assert_close(sol.objective, -36.0);
        assert_close(sol.values[x.index()], 2.0);
        assert_close(sol.values[y.index()], 6.0);
    }

    #[test]
    fn lp_with_ge_and_eq_constraints() {
        // minimise 2x + 3y  s.t. x + y = 10, x >= 3, y >= 2  → x = 8, y = 2.
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 2.0);
        let y = p.add_var("y", VarKind::Continuous, 3.0);
        p.add_eq(vec![(x, 1.0), (y, 1.0)], 10.0);
        p.add_constraint(vec![(x, 1.0)], Sense::Ge, 3.0);
        p.add_constraint(vec![(y, 1.0)], Sense::Ge, 2.0);
        let sol = solve_lp(&p).unwrap();
        assert_close(sol.objective, 22.0);
        assert_close(sol.values[x.index()], 8.0);
        assert_close(sol.values[y.index()], 2.0);
    }

    #[test]
    fn infeasible_lp_detected() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 1.0);
        p.add_constraint(vec![(x, 1.0)], Sense::Ge, 5.0);
        p.add_le(vec![(x, 1.0)], 3.0);
        assert!(matches!(solve_lp(&p), Err(LpError::Infeasible)));
    }

    #[test]
    fn unbounded_lp_detected() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, -1.0);
        let y = p.add_var("y", VarKind::Continuous, 0.0);
        p.add_constraint(vec![(x, 1.0), (y, -1.0)], Sense::Ge, 0.0);
        match solve_lp(&p) {
            Err(LpError::Unbounded) => {}
            other => panic!("expected unbounded, got {other:?}"),
        }
    }

    #[test]
    fn upper_bounds_are_respected() {
        // minimise -x with x <= 2.5 → x = 2.5.
        let mut p = Problem::minimize();
        let x = p.add_bounded_var("x", VarKind::Continuous, -1.0, 2.5);
        let sol = solve_lp(&p).unwrap();
        assert_close(sol.values[x.index()], 2.5);
        assert_close(sol.objective, -2.5);
    }

    #[test]
    fn binary_relaxation_stays_in_unit_box() {
        // minimise -(x + y) with x + y <= 1.3, x, y binary → LP relaxation
        // should land on x + y = 1.3 with both within [0, 1].
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Binary, -1.0);
        let y = p.add_var("y", VarKind::Binary, -1.0);
        p.add_le(vec![(x, 1.0), (y, 1.0)], 1.3);
        let sol = solve_lp(&p.relaxed()).unwrap();
        assert_close(sol.objective, -1.3);
        assert!(sol.values.iter().all(|&v| v <= 1.0 + 1e-9));
    }

    #[test]
    fn negative_rhs_rows_are_normalised() {
        // x - y <= -2  (i.e. y >= x + 2), minimise y  with x >= 1 → x=1, y=3.
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 0.0);
        let y = p.add_var("y", VarKind::Continuous, 1.0);
        p.add_le(vec![(x, 1.0), (y, -1.0)], -2.0);
        p.add_constraint(vec![(x, 1.0)], Sense::Ge, 1.0);
        let sol = solve_lp(&p).unwrap();
        assert_close(sol.objective, 3.0);
        assert_close(sol.values[y.index()], 3.0);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // A classically degenerate LP (Beale's example structure) must still
        // terminate thanks to Bland's rule.
        let mut p = Problem::minimize();
        let x1 = p.add_var("x1", VarKind::Continuous, -0.75);
        let x2 = p.add_var("x2", VarKind::Continuous, 150.0);
        let x3 = p.add_var("x3", VarKind::Continuous, -0.02);
        let x4 = p.add_var("x4", VarKind::Continuous, 6.0);
        p.add_le(vec![(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)], 0.0);
        p.add_le(vec![(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)], 0.0);
        p.add_le(vec![(x3, 1.0)], 1.0);
        let sol = solve_lp(&p).unwrap();
        assert_close(sol.objective, -0.05);
    }

    #[test]
    fn equality_only_system_with_unique_point() {
        // x = 2, y = 5 forced by equalities; objective arbitrary.
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 7.0);
        let y = p.add_var("y", VarKind::Continuous, -2.0);
        p.add_eq(vec![(x, 1.0)], 2.0);
        p.add_eq(vec![(x, 1.0), (y, 1.0)], 7.0);
        let sol = solve_lp(&p).unwrap();
        assert_close(sol.values[x.index()], 2.0);
        assert_close(sol.values[y.index()], 5.0);
        assert_close(sol.objective, 4.0);
    }

    #[test]
    fn transportation_like_lp() {
        // Two supplies (10, 15), two demands (12, 13); costs:
        //   c11=2 c12=4 / c21=3 c22=1. Optimal cost = 12*2 + 0*4 + 0*3... let
        // us compute: ship s1→d1 =10, s2→d1=2, s2→d2=13 → 20 + 6 + 13 = 39.
        let mut p = Problem::minimize();
        let x11 = p.add_var("x11", VarKind::Continuous, 2.0);
        let x12 = p.add_var("x12", VarKind::Continuous, 4.0);
        let x21 = p.add_var("x21", VarKind::Continuous, 3.0);
        let x22 = p.add_var("x22", VarKind::Continuous, 1.0);
        p.add_le(vec![(x11, 1.0), (x12, 1.0)], 10.0);
        p.add_le(vec![(x21, 1.0), (x22, 1.0)], 15.0);
        p.add_eq(vec![(x11, 1.0), (x21, 1.0)], 12.0);
        p.add_eq(vec![(x12, 1.0), (x22, 1.0)], 13.0);
        let sol = solve_lp(&p).unwrap();
        assert_close(sol.objective, 39.0);
    }

    #[test]
    fn no_constraint_problem() {
        let mut p = Problem::minimize();
        p.add_var("x", VarKind::Continuous, 1.0);
        let sol = solve_lp(&p).unwrap();
        assert_close(sol.objective, 0.0);

        let mut p2 = Problem::minimize();
        p2.add_var("x", VarKind::Continuous, -1.0);
        assert!(matches!(solve_lp(&p2), Err(LpError::Unbounded)));
    }
}
