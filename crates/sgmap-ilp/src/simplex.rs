//! Shared LP types and the public LP entry points.
//!
//! The LP engine is the crate's bounded-variable revised simplex workspace
//! (sparse column storage, sparse LU basis factorisation, primal two-phase
//! for cold solves and devex-priced dual reoptimisation for warm starts).
//! [`LpSolver`] keeps one across solves, [`solve_lp`] runs one once; the
//! branch-and-bound [`Solver`](crate::Solver) drives the workspace directly.

use crate::workspace::LpWorkspace;
use crate::Result;

/// Numerical tolerance used throughout the solver.
pub const TOL: f64 = 1e-7;

/// Result of an LP solve: an optimal basic solution of the relaxation.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Value of each structural (model) variable.
    pub values: Vec<f64>,
    /// Objective value in the *model's* sense (i.e. already negated back for
    /// maximisation problems).
    pub objective: f64,
}

/// Additional bounds imposed on single variables by branch-and-bound.
///
/// These intersect with the model's native bounds: the effective range is
/// `[max(native_lo, lo), min(native_hi, hi)]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VarBound {
    /// Index of the variable being bounded.
    pub var: usize,
    /// Lower bound (`x >= lo`).
    pub lo: f64,
    /// Upper bound (`x <= hi`).
    pub hi: f64,
}

/// An LP solver over one model that keeps its basis between calls.
///
/// The first [`solve`](LpSolver::solve) runs the primal two-phase simplex
/// cold; later calls with different `bounds` warm-start from the previous
/// optimal basis and reoptimise with the dual simplex — a branch-and-bound
/// node that only tightens a bound typically needs a handful of pivots
/// instead of a full solve. [`Solver`](crate::Solver) drives the same
/// warm-started workspace directly across its node stack.
#[derive(Debug, Clone)]
pub struct LpSolver {
    ws: LpWorkspace,
}

impl LpSolver {
    /// Builds the solver's sparse workspace from a model.
    ///
    /// # Errors
    ///
    /// Returns a validation error if the model is malformed.
    pub fn new(model: &crate::Model) -> Result<Self> {
        model.validate()?;
        Ok(LpSolver {
            ws: LpWorkspace::new(model),
        })
    }

    /// Solves the LP relaxation under the given extra variable bounds.
    ///
    /// # Errors
    ///
    /// Returns [`IlpError::Infeasible`](crate::IlpError::Infeasible) or
    /// [`IlpError::Unbounded`](crate::IlpError::Unbounded) when the
    /// relaxation has no optimum, and
    /// [`IlpError::Numerical`](crate::IlpError::Numerical) if pivoting fails
    /// to make progress even after a cold restart.
    pub fn solve(&mut self, bounds: &[VarBound]) -> Result<LpSolution> {
        self.ws.solve(bounds).into_result()
    }

    /// Number of simplex iterations (pivots and bound flips) so far.
    pub fn iterations(&self) -> u64 {
        self.ws.stats.iterations
    }

    /// Number of solves answered by warm-started dual reoptimisation.
    pub fn warm_starts(&self) -> u64 {
        self.ws.stats.warm_starts
    }

    /// Number of solves that ran the primal simplex from a cold basis.
    pub fn cold_solves(&self) -> u64 {
        self.ws.stats.cold_solves
    }

    /// Number of basis refactorisations (periodic and stability-triggered).
    pub fn refactorizations(&self) -> u64 {
        self.ws.stats.refactorizations
    }

    /// Number of bound flips (primal flip steps and dual BFRT flips).
    pub fn bound_flips(&self) -> u64 {
        self.ws.stats.bound_flips
    }
}

/// Solves the LP relaxation of `model` once, treating binary variables as
/// continuous within their bounds and applying the extra `bounds` on top.
///
/// This is the one-shot convenience wrapper around [`LpSolver`]; callers that
/// re-solve under changing bounds should hold an `LpSolver` to benefit from
/// warm starts.
///
/// # Errors
///
/// Returns [`IlpError::Infeasible`](crate::IlpError::Infeasible) or
/// [`IlpError::Unbounded`](crate::IlpError::Unbounded) when the relaxation
/// has no optimum, and [`IlpError::Numerical`](crate::IlpError::Numerical)
/// if the pivoting loop fails to make progress.
pub fn solve_lp(model: &crate::Model, bounds: &[VarBound]) -> Result<LpSolution> {
    LpSolver::new(model)?.solve(bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::IlpError;
    use crate::model::{Model, ObjectiveSense};

    #[test]
    fn maximisation_with_slack_only() {
        // max 3x + 2y s.t. x + y <= 4, x <= 2, y <= 3  =>  x=2, y=2, obj=10.
        let mut m = Model::new(ObjectiveSense::Maximize);
        let x = m.add_continuous("x", 3.0);
        let y = m.add_continuous("y", 2.0);
        m.add_constraint_le(vec![(x, 1.0), (y, 1.0)], 4.0);
        m.add_constraint_le(vec![(x, 1.0)], 2.0);
        m.add_constraint_le(vec![(y, 1.0)], 3.0);
        let s = solve_lp(&m, &[]).unwrap();
        assert!((s.objective - 10.0).abs() < 1e-6);
        assert!((s.values[x.index()] - 2.0).abs() < 1e-6);
        assert!((s.values[y.index()] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn minimisation_with_ge_rows_needs_phase1() {
        // min 2x + 3y s.t. x + y >= 4, x >= 1  =>  x=4, y=0.
        let mut m = Model::new(ObjectiveSense::Minimize);
        let x = m.add_continuous("x", 2.0);
        let y = m.add_continuous("y", 3.0);
        m.add_constraint_ge(vec![(x, 1.0), (y, 1.0)], 4.0);
        m.add_constraint_ge(vec![(x, 1.0)], 1.0);
        let s = solve_lp(&m, &[]).unwrap();
        assert!((s.objective - 8.0).abs() < 1e-6);
        assert!((s.values[x.index()] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints_are_honoured() {
        // min x + y s.t. x + 2y == 6, x - y == 0  => x = y = 2, obj 4.
        let mut m = Model::new(ObjectiveSense::Minimize);
        let x = m.add_continuous("x", 1.0);
        let y = m.add_continuous("y", 1.0);
        m.add_constraint_eq(vec![(x, 1.0), (y, 2.0)], 6.0);
        m.add_constraint_eq(vec![(x, 1.0), (y, -1.0)], 0.0);
        let s = solve_lp(&m, &[]).unwrap();
        assert!((s.objective - 4.0).abs() < 1e-6);
        assert!((s.values[x.index()] - 2.0).abs() < 1e-6);
        assert!((s.values[y.index()] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_model_is_detected() {
        let mut m = Model::new(ObjectiveSense::Minimize);
        let x = m.add_continuous("x", 1.0);
        m.add_constraint_le(vec![(x, 1.0)], 1.0);
        m.add_constraint_ge(vec![(x, 1.0)], 2.0);
        assert_eq!(solve_lp(&m, &[]).unwrap_err(), IlpError::Infeasible);
    }

    #[test]
    fn unbounded_model_is_detected() {
        let mut m = Model::new(ObjectiveSense::Maximize);
        let x = m.add_continuous("x", 1.0);
        let y = m.add_continuous("y", 1.0);
        m.add_constraint_ge(vec![(x, 1.0), (y, -1.0)], 0.0);
        assert_eq!(solve_lp(&m, &[]).unwrap_err(), IlpError::Unbounded);
    }

    #[test]
    fn negative_rhs_rows_are_handled() {
        // x - y <= -1  (i.e. y >= x + 1), minimise y with x >= 0.
        let mut m = Model::new(ObjectiveSense::Minimize);
        let x = m.add_continuous("x", 0.0);
        let y = m.add_continuous("y", 1.0);
        m.add_constraint_le(vec![(x, 1.0), (y, -1.0)], -1.0);
        let s = solve_lp(&m, &[]).unwrap();
        assert!((s.objective - 1.0).abs() < 1e-6);
        assert!((s.values[y.index()] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn branch_bounds_restrict_variables() {
        // max x + y s.t. x + y <= 3, both binary-relaxed; force x = 0.
        let mut m = Model::new(ObjectiveSense::Maximize);
        let x = m.add_binary("x", 2.0);
        let y = m.add_binary("y", 1.0);
        m.add_constraint_le(vec![(x, 1.0), (y, 1.0)], 3.0);
        let free = solve_lp(&m, &[]).unwrap();
        assert!((free.objective - 3.0).abs() < 1e-6);
        let forced = solve_lp(
            &m,
            &[VarBound {
                var: x.index(),
                lo: 0.0,
                hi: 0.0,
            }],
        )
        .unwrap();
        assert!((forced.objective - 1.0).abs() < 1e-6);
        assert!(forced.values[x.index()].abs() < 1e-6);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // A classic degenerate LP; mostly checks that pivoting terminates.
        let mut m = Model::new(ObjectiveSense::Maximize);
        let x1 = m.add_continuous("x1", 10.0);
        let x2 = m.add_continuous("x2", -57.0);
        let x3 = m.add_continuous("x3", -9.0);
        let x4 = m.add_continuous("x4", -24.0);
        m.add_constraint_le(vec![(x1, 0.5), (x2, -5.5), (x3, -2.5), (x4, 9.0)], 0.0);
        m.add_constraint_le(vec![(x1, 0.5), (x2, -1.5), (x3, -0.5), (x4, 1.0)], 0.0);
        m.add_constraint_le(vec![(x1, 1.0)], 1.0);
        let s = solve_lp(&m, &[]).unwrap();
        assert!((s.objective - 1.0).abs() < 1e-5);
    }

    #[test]
    fn native_bounds_need_no_rows() {
        // min x with x in [2.5, 10]: optimum sits on the native lower bound.
        let mut m = Model::new(ObjectiveSense::Minimize);
        let x = m.add_continuous("x", 1.0);
        let y = m.add_continuous("y", -1.0);
        m.set_bounds(x, 2.5, 10.0);
        m.set_bounds(y, 0.0, 4.0);
        // No constraint rows at all: everything is decided by the bounds.
        m.add_constraint_le(vec![(x, 1.0), (y, 1.0)], 100.0);
        let s = solve_lp(&m, &[]).unwrap();
        assert!((s.values[x.index()] - 2.5).abs() < 1e-6, "{:?}", s.values);
        assert!((s.values[y.index()] - 4.0).abs() < 1e-6, "{:?}", s.values);
        assert!((s.objective - (2.5 - 4.0)).abs() < 1e-6);
    }

    #[test]
    fn warm_started_resolves_match_cold_solves() {
        // max 2a + b + c s.t. a + b + c <= 2, binaries; then fix vars one at
        // a time and compare the warm-started reoptimisation against a cold
        // solver at every step.
        let mut m = Model::new(ObjectiveSense::Maximize);
        let a = m.add_binary("a", 2.0);
        let b = m.add_binary("b", 1.0);
        let c = m.add_binary("c", 1.5);
        m.add_constraint_le(vec![(a, 1.0), (b, 1.0), (c, 1.0)], 2.0);
        let mut warm = LpSolver::new(&m).unwrap();
        let paths: &[&[VarBound]] = &[
            &[],
            &[VarBound {
                var: a.index(),
                lo: 0.0,
                hi: 0.0,
            }],
            &[VarBound {
                var: a.index(),
                lo: 1.0,
                hi: 1.0,
            }],
            &[
                VarBound {
                    var: a.index(),
                    lo: 1.0,
                    hi: 1.0,
                },
                VarBound {
                    var: c.index(),
                    lo: 0.0,
                    hi: 0.0,
                },
            ],
        ];
        for bounds in paths {
            let w = warm.solve(bounds).unwrap();
            let cold = solve_lp(&m, bounds).unwrap();
            assert!(
                (w.objective - cold.objective).abs() < 1e-6,
                "bounds {bounds:?}: warm {} vs cold {}",
                w.objective,
                cold.objective
            );
        }
        assert!(warm.warm_starts() > 0, "reoptimisations should warm-start");
    }
}
