//! A from-scratch linear-programming and mixed-integer-programming solver.
//!
//! The paper solves its network-design ILP with Gurobi (§3.2, §4). No
//! comparable solver is available as a pure-Rust offline dependency, so this
//! crate provides the minimal solver stack the reproduction needs:
//!
//! * [`model`] — a small modelling layer: variables with bounds and
//!   integrality, linear expressions, constraints, minimisation objective.
//! * [`simplex`] — a dense two-phase primal simplex solver with Bland's
//!   anti-cycling rule for the LP relaxations.
//! * [`branch_bound`] — best-first branch-and-bound on fractional integer
//!   variables, with incumbent tracking and optional node limits, producing
//!   proven-optimal MILP solutions on the small instances the evaluation
//!   needs (the paper's own point in Fig. 2 is that exact ILP does not
//!   scale; ours hits its wall sooner than Gurobi's, which only shifts the
//!   curve of Fig. 2(a), not its shape).
//!
//! The solver is dense and entirely deterministic. It is *not* a
//! general-purpose replacement for a commercial solver — it is sized for the
//! validation experiments of the cISP reproduction (a few hundred variables
//! and constraints) and for the unit-scale problems in its own test-suite.
//!
//! # Example
//!
//! ```
//! use cisp_lp::model::{Problem, VarKind};
//! use cisp_lp::branch_bound::solve_milp;
//!
//! // A tiny knapsack: maximise 8x0 + 11x1 + 6x2 subject to
//! // 5x0 + 7x1 + 4x2 <= 14, x binary  (optimum: x0 = x1 = 1, value 19).
//! let mut p = Problem::minimize();
//! let x0 = p.add_var("x0", VarKind::Binary, -8.0);
//! let x1 = p.add_var("x1", VarKind::Binary, -11.0);
//! let x2 = p.add_var("x2", VarKind::Binary, -6.0);
//! p.add_le(vec![(x0, 5.0), (x1, 7.0), (x2, 4.0)], 14.0);
//!
//! let sol = solve_milp(&p, &Default::default()).expect("solvable");
//! assert!((sol.objective + 19.0).abs() < 1e-6);
//! assert!(sol.values[x0.index()] > 0.5 && sol.values[x1.index()] > 0.5);
//! ```

pub mod branch_bound;
pub mod model;
pub mod simplex;

pub use branch_bound::{solve_milp, MilpOptions};
pub use model::{Problem, VarId, VarKind};
pub use simplex::solve_lp;
