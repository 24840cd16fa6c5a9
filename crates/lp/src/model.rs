//! Modelling layer: variables, constraints and objectives.
//!
//! The model is deliberately minimal: every problem is a *minimisation* over
//! non-negative variables with optional finite upper bounds, linear
//! constraints of the three usual senses, and per-variable integrality. That
//! is exactly the shape of the cISP design ILP and of the LP relaxations the
//! branch-and-bound explores.

/// Identifier of a decision variable within a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// The dense index of this variable (column in the constraint matrix and
    /// position in solution vectors).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Kind of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Continuous variable in `[0, upper]`.
    Continuous,
    /// Integer variable in `{0, 1, …, upper}`.
    Integer,
    /// Binary variable in `{0, 1}`.
    Binary,
}

/// Sense of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// `Σ aᵢ xᵢ ≤ b`
    Le,
    /// `Σ aᵢ xᵢ ≥ b`
    Ge,
    /// `Σ aᵢ xᵢ = b`
    Eq,
}

/// A decision variable.
#[derive(Debug, Clone)]
pub struct Variable {
    /// Name, used only for diagnostics.
    pub name: String,
    /// Kind (continuous/integer/binary).
    pub kind: VarKind,
    /// Objective coefficient (minimisation).
    pub objective: f64,
    /// Upper bound; binaries always have 1.0. `f64::INFINITY` means none.
    pub upper_bound: f64,
}

/// A linear constraint `Σ aᵢ xᵢ  (≤ | ≥ | =)  b`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Sparse coefficient list (variable, coefficient).
    pub terms: Vec<(VarId, f64)>,
    /// Constraint sense.
    pub sense: Sense,
    /// Right-hand side.
    pub rhs: f64,
}

/// A minimisation problem over non-negative variables.
#[derive(Debug, Clone, Default)]
pub struct Problem {
    variables: Vec<Variable>,
    constraints: Vec<Constraint>,
}

impl Problem {
    /// Create an empty minimisation problem.
    pub fn minimize() -> Self {
        Self::default()
    }

    /// Add a variable with the given kind and objective coefficient.
    /// Continuous and integer variables default to an infinite upper bound;
    /// binaries are bounded by 1.
    pub fn add_var(&mut self, name: &str, kind: VarKind, objective: f64) -> VarId {
        assert!(
            objective.is_finite(),
            "objective coefficient must be finite"
        );
        let upper_bound = match kind {
            VarKind::Binary => 1.0,
            _ => f64::INFINITY,
        };
        self.variables.push(Variable {
            name: name.to_string(),
            kind,
            objective,
            upper_bound,
        });
        VarId(self.variables.len() - 1)
    }

    /// Add a variable with an explicit upper bound.
    pub fn add_bounded_var(
        &mut self,
        name: &str,
        kind: VarKind,
        objective: f64,
        upper_bound: f64,
    ) -> VarId {
        assert!(upper_bound >= 0.0, "upper bound must be non-negative");
        let id = self.add_var(name, kind, objective);
        self.variables[id.0].upper_bound = match kind {
            VarKind::Binary => upper_bound.min(1.0),
            _ => upper_bound,
        };
        id
    }

    /// Add a `≤` constraint.
    pub fn add_le(&mut self, terms: Vec<(VarId, f64)>, rhs: f64) {
        self.add_constraint(terms, Sense::Le, rhs);
    }

    /// Add an `=` constraint.
    pub fn add_eq(&mut self, terms: Vec<(VarId, f64)>, rhs: f64) {
        self.add_constraint(terms, Sense::Eq, rhs);
    }

    /// Add a constraint of arbitrary sense.
    pub(crate) fn add_constraint(&mut self, terms: Vec<(VarId, f64)>, sense: Sense, rhs: f64) {
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        for &(v, c) in &terms {
            assert!(
                v.0 < self.variables.len(),
                "constraint references unknown variable"
            );
            assert!(c.is_finite(), "constraint coefficient must be finite");
        }
        self.constraints.push(Constraint { terms, sense, rhs });
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.variables.len()
    }

    /// Number of constraints (not counting variable bounds).
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The variables, indexed by [`VarId::index`].
    pub fn variables(&self) -> &[Variable] {
        &self.variables
    }

    /// The constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Objective value of a candidate assignment.
    pub(crate) fn objective_value(&self, values: &[f64]) -> f64 {
        assert_eq!(values.len(), self.num_vars());
        self.variables
            .iter()
            .zip(values)
            .map(|(v, &x)| v.objective * x)
            .sum()
    }

    /// Check whether an assignment satisfies every constraint, variable bound
    /// and integrality requirement, within tolerance `tol`.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.num_vars() {
            return false;
        }
        for (var, &x) in self.variables.iter().zip(values) {
            if x < -tol || x > var.upper_bound + tol {
                return false;
            }
            match var.kind {
                VarKind::Integer | VarKind::Binary => {
                    if (x - x.round()).abs() > tol {
                        return false;
                    }
                }
                VarKind::Continuous => {}
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(v, a)| a * values[v.0]).sum();
            let ok = match c.sense {
                Sense::Le => lhs <= c.rhs + tol,
                Sense::Ge => lhs >= c.rhs - tol,
                Sense::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Return a copy of the problem with every integer/binary variable
    /// relaxed to a continuous variable with the same bounds.
    pub(crate) fn relaxed(&self) -> Problem {
        let mut p = self.clone();
        for v in &mut p.variables {
            v.kind = VarKind::Continuous;
        }
        p
    }

    /// Indices of the variables that must be integral.
    pub(crate) fn integer_vars(&self) -> Vec<usize> {
        self.variables
            .iter()
            .enumerate()
            .filter(|(_, v)| matches!(v.kind, VarKind::Integer | VarKind::Binary))
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variable_creation_and_bounds() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 1.0);
        let y = p.add_var("y", VarKind::Binary, -2.0);
        let z = p.add_bounded_var("z", VarKind::Integer, 0.0, 7.0);
        assert_eq!(p.num_vars(), 3);
        assert_eq!(x.index(), 0);
        assert_eq!(p.variables()[y.index()].upper_bound, 1.0);
        assert_eq!(p.variables()[z.index()].upper_bound, 7.0);
    }

    #[test]
    fn binary_bound_clamped_to_one() {
        let mut p = Problem::minimize();
        let b = p.add_bounded_var("b", VarKind::Binary, 0.0, 100.0);
        assert_eq!(p.variables()[b.index()].upper_bound, 1.0);
    }

    #[test]
    fn objective_and_feasibility() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 2.0);
        let y = p.add_var("y", VarKind::Continuous, 3.0);
        p.add_le(vec![(x, 1.0), (y, 1.0)], 10.0);
        p.add_constraint(vec![(x, 1.0)], Sense::Ge, 2.0);
        p.add_eq(vec![(y, 1.0)], 4.0);

        assert_eq!(p.objective_value(&[2.0, 4.0]), 16.0);
        assert!(p.is_feasible(&[2.0, 4.0], 1e-9));
        assert!(!p.is_feasible(&[1.0, 4.0], 1e-9), "violates x >= 2");
        assert!(!p.is_feasible(&[2.0, 5.0], 1e-9), "violates y == 4");
        assert!(!p.is_feasible(&[8.0, 4.0], 1e-9), "violates x + y <= 10");
        assert!(!p.is_feasible(&[-1.0, 4.0], 1e-9), "violates x >= 0");
    }

    #[test]
    fn integrality_checked_in_feasibility() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Integer, 1.0);
        let _ = x;
        assert!(p.is_feasible(&[3.0], 1e-9));
        assert!(!p.is_feasible(&[2.5], 1e-9));
    }

    #[test]
    fn relaxation_drops_integrality() {
        let mut p = Problem::minimize();
        p.add_var("x", VarKind::Binary, 1.0);
        p.add_var("y", VarKind::Continuous, 1.0);
        assert_eq!(p.integer_vars(), vec![0]);
        let r = p.relaxed();
        assert!(r.integer_vars().is_empty());
        // Bounds survive relaxation.
        assert_eq!(r.variables()[0].upper_bound, 1.0);
    }

    #[test]
    #[should_panic]
    fn constraint_with_unknown_variable_panics() {
        let mut p = Problem::minimize();
        p.add_le(vec![(VarId(3), 1.0)], 1.0);
    }
}
