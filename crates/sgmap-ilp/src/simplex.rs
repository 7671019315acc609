//! The LP types shared by the simplex workspace and the branch-and-bound
//! search.
//!
//! The LP engine is the crate's bounded-variable revised simplex workspace
//! (sparse column storage, sparse LU basis factorisation, primal two-phase
//! for cold solves and devex-priced dual reoptimisation for warm starts).
//! The branch-and-bound [`Solver`](crate::Solver), the crate's one entry
//! point, drives it directly.

/// Numerical tolerance used throughout the solver.
pub(crate) const TOL: f64 = 1e-7;

/// Result of an LP solve: an optimal basic solution of the relaxation.
#[derive(Debug, Clone)]
pub(crate) struct LpSolution {
    /// Value of each structural (model) variable.
    pub(crate) values: Vec<f64>,
    /// Objective value in the *model's* sense (i.e. already negated back for
    /// maximisation problems).
    pub(crate) objective: f64,
}

/// Additional bounds imposed on single variables by branch-and-bound.
///
/// These intersect with the model's native bounds: the effective range is
/// `[max(native_lo, lo), min(native_hi, hi)]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct VarBound {
    /// Index of the variable being bounded.
    pub(crate) var: usize,
    /// Lower bound (`x >= lo`).
    pub(crate) lo: f64,
    /// Upper bound (`x <= hi`).
    pub(crate) hi: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::IlpError;
    use crate::model::{Model, ObjectiveSense};
    use crate::workspace::LpWorkspace;
    use crate::Result;

    /// One cold solve of the relaxation of `model` under `bounds`.
    fn solve_cold(model: &Model, bounds: &[VarBound]) -> Result<LpSolution> {
        model.validate()?;
        LpWorkspace::new(model).solve(bounds).into_result()
    }

    #[test]
    fn maximisation_with_slack_only() {
        // max 3x + 2y s.t. x + y <= 4, x <= 2, y <= 3  =>  x=2, y=2, obj=10.
        let mut m = Model::new(ObjectiveSense::Maximize);
        let x = m.add_continuous(3.0);
        let y = m.add_continuous(2.0);
        m.add_constraint_le(vec![(x, 1.0), (y, 1.0)], 4.0);
        m.add_constraint_le(vec![(x, 1.0)], 2.0);
        m.add_constraint_le(vec![(y, 1.0)], 3.0);
        let s = solve_cold(&m, &[]).unwrap();
        assert!((s.objective - 10.0).abs() < 1e-6);
        assert!((s.values[x.index()] - 2.0).abs() < 1e-6);
        assert!((s.values[y.index()] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn minimisation_with_ge_rows_needs_phase1() {
        // min 2x + 3y s.t. x + y >= 4, x >= 1  =>  x=4, y=0.
        let mut m = Model::new(ObjectiveSense::Minimize);
        let x = m.add_continuous(2.0);
        let y = m.add_continuous(3.0);
        m.add_constraint_ge(vec![(x, 1.0), (y, 1.0)], 4.0);
        m.add_constraint_ge(vec![(x, 1.0)], 1.0);
        let s = solve_cold(&m, &[]).unwrap();
        assert!((s.objective - 8.0).abs() < 1e-6);
        assert!((s.values[x.index()] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints_are_honoured() {
        // min x + y s.t. x + 2y == 6, x - y == 0  => x = y = 2, obj 4.
        let mut m = Model::new(ObjectiveSense::Minimize);
        let x = m.add_continuous(1.0);
        let y = m.add_continuous(1.0);
        m.add_constraint_eq(vec![(x, 1.0), (y, 2.0)], 6.0);
        m.add_constraint_eq(vec![(x, 1.0), (y, -1.0)], 0.0);
        let s = solve_cold(&m, &[]).unwrap();
        assert!((s.objective - 4.0).abs() < 1e-6);
        assert!((s.values[x.index()] - 2.0).abs() < 1e-6);
        assert!((s.values[y.index()] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_model_is_detected() {
        let mut m = Model::new(ObjectiveSense::Minimize);
        let x = m.add_continuous(1.0);
        m.add_constraint_le(vec![(x, 1.0)], 1.0);
        m.add_constraint_ge(vec![(x, 1.0)], 2.0);
        assert_eq!(solve_cold(&m, &[]).unwrap_err(), IlpError::Infeasible);
    }

    #[test]
    fn unbounded_model_is_detected() {
        let mut m = Model::new(ObjectiveSense::Maximize);
        let x = m.add_continuous(1.0);
        let y = m.add_continuous(1.0);
        m.add_constraint_ge(vec![(x, 1.0), (y, -1.0)], 0.0);
        assert_eq!(solve_cold(&m, &[]).unwrap_err(), IlpError::Unbounded);
    }

    #[test]
    fn negative_rhs_rows_are_handled() {
        // x - y <= -1  (i.e. y >= x + 1), minimise y with x >= 0.
        let mut m = Model::new(ObjectiveSense::Minimize);
        let x = m.add_continuous(0.0);
        let y = m.add_continuous(1.0);
        m.add_constraint_le(vec![(x, 1.0), (y, -1.0)], -1.0);
        let s = solve_cold(&m, &[]).unwrap();
        assert!((s.objective - 1.0).abs() < 1e-6);
        assert!((s.values[y.index()] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn branch_bounds_restrict_variables() {
        // max x + y s.t. x + y <= 3, both binary-relaxed; force x = 0.
        let mut m = Model::new(ObjectiveSense::Maximize);
        let x = m.add_binary(2.0);
        let y = m.add_binary(1.0);
        m.add_constraint_le(vec![(x, 1.0), (y, 1.0)], 3.0);
        let free = solve_cold(&m, &[]).unwrap();
        assert!((free.objective - 3.0).abs() < 1e-6);
        let forced = solve_cold(
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
        let x1 = m.add_continuous(10.0);
        let x2 = m.add_continuous(-57.0);
        let x3 = m.add_continuous(-9.0);
        let x4 = m.add_continuous(-24.0);
        m.add_constraint_le(vec![(x1, 0.5), (x2, -5.5), (x3, -2.5), (x4, 9.0)], 0.0);
        m.add_constraint_le(vec![(x1, 0.5), (x2, -1.5), (x3, -0.5), (x4, 1.0)], 0.0);
        m.add_constraint_le(vec![(x1, 1.0)], 1.0);
        let s = solve_cold(&m, &[]).unwrap();
        assert!((s.objective - 1.0).abs() < 1e-5);
    }

    #[test]
    fn native_bounds_need_no_rows() {
        // min x with x in [2.5, 10]: optimum sits on the native lower bound.
        let mut m = Model::new(ObjectiveSense::Minimize);
        let x = m.add_continuous(1.0);
        let y = m.add_continuous(-1.0);
        m.set_bounds(x, 2.5, 10.0);
        m.set_bounds(y, 0.0, 4.0);
        // No constraint rows at all: everything is decided by the bounds.
        m.add_constraint_le(vec![(x, 1.0), (y, 1.0)], 100.0);
        let s = solve_cold(&m, &[]).unwrap();
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
        let a = m.add_binary(2.0);
        let b = m.add_binary(1.0);
        let c = m.add_binary(1.5);
        m.add_constraint_le(vec![(a, 1.0), (b, 1.0), (c, 1.0)], 2.0);
        let mut warm = LpWorkspace::new(&m);
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
            let w = warm.solve(bounds).into_result().unwrap();
            let cold = solve_cold(&m, bounds).unwrap();
            assert!(
                (w.objective - cold.objective).abs() < 1e-6,
                "bounds {bounds:?}: warm {} vs cold {}",
                w.objective,
                cold.objective
            );
        }
        assert!(
            warm.stats.warm_starts > 0,
            "reoptimisations should warm-start"
        );
    }
}
