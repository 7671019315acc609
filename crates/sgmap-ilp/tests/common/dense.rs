//! Dense two-phase primal simplex — the original LP core, kept as the test
//! oracle for the revised bounded-variable simplex the crate ships.
//!
//! The equivalence property tests solve random models with both cores and
//! require identical feasibility verdicts and matching objectives. It reads
//! the model only through its public accessors and owns its bound and
//! solution types, so it compiles wherever the crate's public API is
//! visible: in the integration tests, in the crate's own unit tests (see
//! `src/lib.rs`, which runs the tests below) and in the mapper's tests,
//! which compare two formulations of the mapping LP through it.
//!
//! The solver works on the standard form
//!
//! ```text
//! minimise  c'x   subject to   Ax {<=, >=, ==} b,   x >= 0
//! ```
//!
//! Native variable bounds (and the extra branch bounds) are lowered to
//! single-variable constraint rows. Rows are normalised to non-negative
//! right-hand sides; `<=` rows receive a slack variable, `>=` rows a surplus
//! plus an artificial variable, and `==` rows an artificial variable. Phase 1
//! minimises the sum of artificials to find a basic feasible solution, phase
//! 2 minimises the true objective. Dantzig pricing is used with a switch to
//! Bland's rule after a while to guarantee termination.

use sgmap_ilp::{ConstraintSense, IlpError, Model, ObjectiveSense, Result, VarId};

/// Numerical tolerance of the tableau.
const TOL: f64 = 1e-7;

/// An optimal basic solution of a relaxation.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Value of each structural (model) variable.
    pub values: Vec<f64>,
    /// Objective value in the model's sense.
    pub objective: f64,
}

/// An extra bound on one variable, intersected with its native bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VarBound {
    /// Index of the variable being bounded.
    pub var: usize,
    /// Lower bound (`x >= lo`).
    pub lo: f64,
    /// Upper bound (`x <= hi`).
    pub hi: f64,
}

/// One row `sum(coef * x[var]) (<=|>=|==) rhs` of the standard form.
struct Row {
    terms: Vec<(usize, f64)>,
    sense: ConstraintSense,
    rhs: f64,
}

/// Solves the LP relaxation of `model` with the dense two-phase tableau,
/// treating binary variables as continuous in `[0, 1]`, lowering native
/// bounds to rows and applying the extra `bounds` on top.
///
/// # Errors
///
/// Returns [`IlpError::Infeasible`] or [`IlpError::Unbounded`] when the
/// relaxation has no optimum, and [`IlpError::Numerical`] if the pivoting
/// loop fails to make progress.
pub fn solve_lp(model: &Model, bounds: &[VarBound]) -> Result<LpSolution> {
    model.validate()?;
    let n = model.num_vars();

    let mut rows: Vec<Row> = (0..model.num_constraints())
        .map(|r| {
            let (terms, sense, rhs) = model.constraint(r);
            Row {
                terms: terms.iter().map(|&(v, c)| (v.index(), c)).collect(),
                sense,
                rhs,
            }
        })
        .collect();
    // Single-variable rows after the model's own constraints: native bounds,
    // then branch bounds.
    let native = (0..n).map(|i| {
        let (lo, hi) = model.var_bounds(VarId::from(i));
        (i, lo, hi)
    });
    let branch = bounds.iter().map(|b| (b.var, b.lo, b.hi));
    for (i, lo, hi) in native.chain(branch) {
        if lo > TOL {
            rows.push(Row {
                terms: vec![(i, 1.0)],
                sense: ConstraintSense::Ge,
                rhs: lo,
            });
        }
        if hi.is_finite() {
            rows.push(Row {
                terms: vec![(i, 1.0)],
                sense: ConstraintSense::Le,
                rhs: hi,
            });
        }
    }

    // Objective in minimisation form.
    let maximize = model.objective_sense() == ObjectiveSense::Maximize;
    let cost: Vec<f64> = (0..n)
        .map(|i| {
            let c = model.objective_coefficient(VarId::from(i));
            if maximize {
                -c
            } else {
                c
            }
        })
        .collect();

    let mut tableau = Tableau::build(n, &rows);
    tableau.phase1()?;
    let objective = tableau.phase2(&cost)?;
    let values = tableau.extract(n);
    Ok(LpSolution {
        values,
        objective: if maximize { -objective } else { objective },
    })
}

/// Dense simplex tableau in canonical form with respect to the current basis.
struct Tableau {
    /// Number of structural variables.
    n_struct: usize,
    /// Total number of columns excluding the RHS.
    n_total: usize,
    /// Index of the first artificial column.
    first_artificial: usize,
    /// Row-major matrix, `m` rows of `n_total + 1` entries (last = RHS).
    a: Vec<f64>,
    /// Number of rows.
    m: usize,
    /// Basic column of each row.
    basis: Vec<usize>,
    /// Scratch: the non-zero entries of the current pivot row, reused across
    /// pivots to keep the row updates O(nnz) without re-allocating.
    pivot_nz: Vec<(u32, f64)>,
}

impl Tableau {
    fn build(n_struct: usize, rows: &[Row]) -> Tableau {
        let m = rows.len();
        // Count slack/surplus and artificial columns.
        let mut n_slack = 0usize;
        let mut n_art = 0usize;
        for r in rows {
            // Determine the effective sense after RHS normalisation.
            let flip = r.rhs < 0.0;
            let sense = effective_sense(r.sense, flip);
            match sense {
                ConstraintSense::Le => n_slack += 1,
                ConstraintSense::Ge => {
                    n_slack += 1;
                    n_art += 1;
                }
                ConstraintSense::Eq => n_art += 1,
            }
        }
        let n_total = n_struct + n_slack + n_art;
        let first_artificial = n_struct + n_slack;
        let width = n_total + 1;
        let mut a = vec![0.0; m * width];
        let mut basis = vec![0usize; m];

        let mut slack_col = n_struct;
        let mut art_col = first_artificial;
        for (i, r) in rows.iter().enumerate() {
            let flip = r.rhs < 0.0;
            let sgn = if flip { -1.0 } else { 1.0 };
            for &(v, coef) in &r.terms {
                a[i * width + v] += sgn * coef;
            }
            a[i * width + n_total] = sgn * r.rhs;
            let sense = effective_sense(r.sense, flip);
            match sense {
                ConstraintSense::Le => {
                    a[i * width + slack_col] = 1.0;
                    basis[i] = slack_col;
                    slack_col += 1;
                }
                ConstraintSense::Ge => {
                    a[i * width + slack_col] = -1.0;
                    slack_col += 1;
                    a[i * width + art_col] = 1.0;
                    basis[i] = art_col;
                    art_col += 1;
                }
                ConstraintSense::Eq => {
                    a[i * width + art_col] = 1.0;
                    basis[i] = art_col;
                    art_col += 1;
                }
            }
        }

        Tableau {
            n_struct,
            n_total,
            first_artificial,
            a,
            m,
            basis,
            pivot_nz: Vec::new(),
        }
    }

    #[inline]
    fn width(&self) -> usize {
        self.n_total + 1
    }

    /// Runs phase 1: minimises the sum of the artificial variables.
    fn phase1(&mut self) -> Result<()> {
        if self.first_artificial == self.n_total {
            return Ok(()); // no artificials, initial basis is feasible
        }
        let mut cost = vec![0.0; self.n_total];
        for c in cost.iter_mut().skip(self.first_artificial) {
            *c = 1.0;
        }
        // Artificial columns start in the basis and only ever need to leave;
        // excluding them from the entering scan avoids pointless churn.
        let obj = self.optimize(&cost, self.first_artificial, false)?;
        if obj > 1e-6 {
            return Err(IlpError::Infeasible);
        }
        // Drive any artificial variable still in the basis (at zero level)
        // out of it, or drop its row if it is redundant.
        for row in 0..self.m {
            if self.basis[row] >= self.first_artificial {
                let width = self.width();
                let mut pivot_col = None;
                for col in 0..self.first_artificial {
                    if self.a[row * width + col].abs() > TOL {
                        pivot_col = Some(col);
                        break;
                    }
                }
                if let Some(col) = pivot_col {
                    self.pivot(row, col);
                } else {
                    // Redundant row: zero it so it can never constrain.
                    for col in 0..width {
                        self.a[row * width + col] = 0.0;
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs phase 2 with the given structural costs and returns the optimal
    /// objective value (minimisation form).
    fn phase2(&mut self, struct_cost: &[f64]) -> Result<f64> {
        let mut cost = vec![0.0; self.n_total];
        cost[..self.n_struct].copy_from_slice(struct_cost);
        // Artificials are excluded from the entering-candidate scan (see the
        // `entering_limit` argument), so their cost stays zero and the huge
        // synthetic penalties that would destroy numerical precision are not
        // needed.
        self.optimize(&cost, self.first_artificial, true)
    }

    /// Primal simplex main loop for the given cost vector. Only columns below
    /// `entering_limit` may enter the basis (phase 2 uses this to lock out
    /// the artificial columns). Returns the final objective value.
    /// `detect_unbounded` controls whether an unbounded ray is an error
    /// (phase 2) or impossible (phase 1, objective bounded below by zero).
    fn optimize(
        &mut self,
        cost: &[f64],
        entering_limit: usize,
        detect_unbounded: bool,
    ) -> Result<f64> {
        let width = self.width();
        // Reduced-cost row, canonicalised against the current basis.
        let mut red = vec![0.0; width];
        red[..self.n_total].copy_from_slice(cost);
        // objective value stored as negative in red[n_total]
        red[self.n_total] = 0.0;
        for row in 0..self.m {
            let b = self.basis[row];
            let cb = cost[b];
            if cb != 0.0 {
                for (r, a) in red.iter_mut().zip(&self.a[row * width..(row + 1) * width]) {
                    *r -= cb * a;
                }
            }
        }

        let max_iters = 50 * (self.m + self.n_total) + 10_000;
        let bland_after = 5 * (self.m + self.n_total) + 1_000;
        for iter in 0..max_iters {
            // Entering column.
            let use_bland = iter > bland_after;
            let mut entering = None;
            if use_bland {
                for (col, &r) in red.iter().enumerate().take(entering_limit) {
                    if r < -TOL {
                        entering = Some(col);
                        break;
                    }
                }
            } else {
                let mut best = -TOL;
                for (col, &r) in red.iter().enumerate().take(entering_limit) {
                    if r < best {
                        best = r;
                        entering = Some(col);
                    }
                }
            }
            let entering = match entering {
                Some(c) => c,
                None => {
                    // Optimal.
                    return Ok(-red[self.n_total]);
                }
            };

            // Leaving row by minimum ratio test.
            let mut leaving: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for row in 0..self.m {
                let coef = self.a[row * width + entering];
                if coef > TOL {
                    let ratio = self.a[row * width + self.n_total] / coef;
                    let better = ratio < best_ratio - TOL
                        || (ratio < best_ratio + TOL
                            && leaving.is_some_and(|l| self.basis[row] < self.basis[l]));
                    if better {
                        best_ratio = ratio;
                        leaving = Some(row);
                    }
                }
            }
            let leaving = match leaving {
                Some(r) => r,
                None => {
                    return if detect_unbounded {
                        Err(IlpError::Unbounded)
                    } else {
                        Err(IlpError::Numerical("phase-1 ray"))
                    };
                }
            };

            self.pivot(leaving, entering);
            // Update the reduced-cost row from the pivot row's non-zeros
            // (same sign-of-zero-only argument as in `pivot`).
            let factor = red[entering];
            if factor != 0.0 {
                for &(c, v) in &self.pivot_nz {
                    red[c as usize] -= factor * v;
                }
            }
        }
        Err(IlpError::Numerical("simplex iteration limit reached"))
    }

    /// Gauss-Jordan pivot on (row, col).
    ///
    /// The row updates skip the pivot row's exact zeros: subtracting
    /// `factor · 0.0` can only change the sign of a zero entry, and no
    /// comparison anywhere in the solver distinguishes `-0.0` from `0.0`,
    /// so the pivot sequence — and hence the returned vertex — is identical
    /// to the dense update. Mapping tableaus are mostly zeros (assignment
    /// rows touch two columns, crossing rows a handful), which makes this
    /// the difference between an O(m·width) and an O(m·nnz) pivot.
    fn pivot(&mut self, row: usize, col: usize) {
        let width = self.width();
        let pivot = self.a[row * width + col];
        debug_assert!(pivot.abs() > TOL, "pivot on a vanishing element");
        let inv = 1.0 / pivot;
        self.pivot_nz.clear();
        for c in 0..width {
            let v = self.a[row * width + c] * inv;
            self.a[row * width + c] = v;
            if v != 0.0 {
                self.pivot_nz.push((c as u32, v));
            }
        }
        for r in 0..self.m {
            if r == row {
                continue;
            }
            let factor = self.a[r * width + col];
            if factor != 0.0 {
                let dst = &mut self.a[r * width..(r + 1) * width];
                for &(c, v) in &self.pivot_nz {
                    dst[c as usize] -= factor * v;
                }
            }
        }
        self.basis[row] = col;
    }

    /// Extracts the values of the first `n` (structural) variables.
    fn extract(&self, n: usize) -> Vec<f64> {
        let width = self.width();
        let mut values = vec![0.0; n];
        for row in 0..self.m {
            let b = self.basis[row];
            if b < n {
                values[b] = self.a[row * width + self.n_total];
            }
        }
        // Clamp away negative dust.
        for v in values.iter_mut() {
            if *v < 0.0 && *v > -1e-6 {
                *v = 0.0;
            }
        }
        values
    }
}

fn effective_sense(sense: ConstraintSense, flipped: bool) -> ConstraintSense {
    if !flipped {
        return sense;
    }
    match sense {
        ConstraintSense::Le => ConstraintSense::Ge,
        ConstraintSense::Ge => ConstraintSense::Le,
        ConstraintSense::Eq => ConstraintSense::Eq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_bounds_are_lowered_to_rows() {
        // min x + y with x in [2, 5], y in [1, inf), x + y >= 4.
        let mut m = Model::new(ObjectiveSense::Minimize);
        let x = m.add_continuous(1.0);
        let y = m.add_continuous(1.0);
        m.set_bounds(x, 2.0, 5.0);
        m.set_bounds(y, 1.0, f64::INFINITY);
        m.add_constraint_ge(vec![(x, 1.0), (y, 1.0)], 4.0);
        let s = solve_lp(&m, &[]).unwrap();
        assert!((s.objective - 4.0).abs() < 1e-6);
        assert!(s.values[x.index()] >= 2.0 - 1e-6);
        assert!(s.values[y.index()] >= 1.0 - 1e-6);
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
        let s = solve_lp(&m, &[]).unwrap();
        assert!((s.objective - 10.0).abs() < 1e-6);
        assert!((s.values[x.index()] - 2.0).abs() < 1e-6);
        assert!((s.values[y.index()] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn minimisation_with_ge_rows_needs_phase1() {
        // min 2x + 3y s.t. x + y >= 4, x >= 1  =>  x=4 wait: cheapest is x.
        // obj coefficients: x cheaper per unit, so x=4,y=0? x>=1 satisfied.
        let mut m = Model::new(ObjectiveSense::Minimize);
        let x = m.add_continuous(2.0);
        let y = m.add_continuous(3.0);
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
        let x = m.add_continuous(1.0);
        let y = m.add_continuous(1.0);
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
        let x = m.add_continuous(1.0);
        m.add_constraint_le(vec![(x, 1.0)], 1.0);
        m.add_constraint_ge(vec![(x, 1.0)], 2.0);
        assert_eq!(solve_lp(&m, &[]).unwrap_err(), IlpError::Infeasible);
    }

    #[test]
    fn unbounded_model_is_detected() {
        let mut m = Model::new(ObjectiveSense::Maximize);
        let x = m.add_continuous(1.0);
        let y = m.add_continuous(1.0);
        m.add_constraint_ge(vec![(x, 1.0), (y, -1.0)], 0.0);
        assert_eq!(solve_lp(&m, &[]).unwrap_err(), IlpError::Unbounded);
    }

    #[test]
    fn negative_rhs_rows_are_normalised() {
        // x - y <= -1  (i.e. y >= x + 1), minimise y with x >= 0.
        let mut m = Model::new(ObjectiveSense::Minimize);
        let x = m.add_continuous(0.0);
        let y = m.add_continuous(1.0);
        m.add_constraint_le(vec![(x, 1.0), (y, -1.0)], -1.0);
        let s = solve_lp(&m, &[]).unwrap();
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
        let x1 = m.add_continuous(10.0);
        let x2 = m.add_continuous(-57.0);
        let x3 = m.add_continuous(-9.0);
        let x4 = m.add_continuous(-24.0);
        m.add_constraint_le(vec![(x1, 0.5), (x2, -5.5), (x3, -2.5), (x4, 9.0)], 0.0);
        m.add_constraint_le(vec![(x1, 0.5), (x2, -1.5), (x3, -0.5), (x4, 1.0)], 0.0);
        m.add_constraint_le(vec![(x1, 1.0)], 1.0);
        let s = solve_lp(&m, &[]).unwrap();
        assert!((s.objective - 1.0).abs() < 1e-5);
    }
}
