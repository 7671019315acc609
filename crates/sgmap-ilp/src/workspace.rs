//! The shared LP workspace of the revised bounded-variable simplex.
//!
//! One `LpWorkspace` is built per model and threaded through an entire
//! branch-and-bound search. The constraint matrix is stored once in sparse
//! column-major form ([`SparseCols`]); variable bounds — the model's native
//! bounds, the `[0, 1]` box of binaries and the branch restrictions — are
//! handled natively as nonbasic-at-lower/at-upper states, so a node never
//! adds rows and never rebuilds anything.
//!
//! A solve picks one of two paths:
//!
//! * **cold** — all-logical basis, bounded-variable *primal* simplex with a
//!   composite phase 1 (minimise the sum of bound violations of the basic
//!   variables) followed by phase 2 on the true costs ([`crate::primal`]);
//! * **warm** — start from the basis in the workspace: the final basis of
//!   the previous solve, or a saved one installed by
//!   [`LpWorkspace::restore`] (the branch-and-bound search restores a node's
//!   parent basis when it jumps across the tree). A child's bounds only
//!   tighten its parent's, which preserves dual feasibility of the parent
//!   basis, so a bounded-variable *dual* simplex reoptimises in a handful of
//!   pivots ([`crate::dual`]).
//!
//! The basis matrix itself lives behind the [`Basis`] facade and is factored
//! as a sparse LU with eta updates.
//!
//! Both paths use fixed deterministic pivoting rules (devex/Dantzig pricing
//! with lowest-index tie-breaking, Bland's rule after a stall threshold), so
//! the same model and bounds always reproduce the same vertex, independent
//! of thread count or load.

use crate::basis::{Basis, BasisSnapshot, VarState};
use crate::model::{ConstraintSense, Model, ObjectiveSense};
use crate::pricing::DevexWeights;
use crate::simplex::{LpSolution, VarBound, TOL};
use crate::sparse::SparseCols;

/// Counters of the LP engine, accumulated across every solve of a workspace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LpStats {
    /// Simplex iterations: pivots and bound flips, primal and dual.
    pub(crate) iterations: u64,
    /// Solves answered by warm-started dual reoptimisation.
    pub(crate) warm_starts: u64,
    /// Solves that ran the primal simplex from the all-logical basis.
    pub(crate) cold_solves: u64,
    /// Basis refactorisations (periodic and stability-triggered rebuilds).
    pub(crate) refactorizations: u64,
    /// Nonbasic bound flips (primal flip steps + dual bound-flipping ratio
    /// test passes).
    pub(crate) bound_flips: u64,
}

/// How an LP solve ended.
#[derive(Debug, Clone)]
pub(crate) enum LpOutcome {
    /// An optimal basic solution.
    Optimal(LpSolution),
    /// The bounds and rows admit no point.
    Infeasible,
    /// The objective is unbounded in the optimisation direction.
    Unbounded,
    /// Pivoting failed to make progress even after a cold restart.
    Numerical(&'static str),
}

#[cfg(test)]
impl LpOutcome {
    /// Converts the outcome into the crate's `Result` shape (the tests'
    /// view of one solve; the search matches on the outcome itself).
    pub(crate) fn into_result(self) -> crate::Result<LpSolution> {
        match self {
            LpOutcome::Optimal(s) => Ok(s),
            LpOutcome::Infeasible => Err(crate::IlpError::Infeasible),
            LpOutcome::Unbounded => Err(crate::IlpError::Unbounded),
            LpOutcome::Numerical(msg) => Err(crate::IlpError::Numerical(msg)),
        }
    }
}

/// Where a simplex loop stopped (shared by the primal and dual drivers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LoopEnd {
    /// Optimality (or, for phase-1, feasibility) proven.
    Done,
    /// Primal ray found (phase-2 primal only).
    Unbounded,
    /// No improving direction while still infeasible.
    Infeasible,
    /// Iteration cap or numerical breakdown — caller should fall back.
    Stalled,
}

/// Feasibility tolerance on variable bounds.
pub(crate) const PRIMAL_TOL: f64 = TOL;
/// Zero tolerance on reduced costs.
pub(crate) const DUAL_TOL: f64 = TOL;
/// Smallest usable pivot element.
pub(crate) const PIVOT_TOL: f64 = 1e-9;

/// Minimum pivot magnitude relative to the largest entry of its ftran
/// direction for a pivot computed through *stale* (updated) factors. A
/// relatively tiny pivot through an eta file may be pure drift — the true
/// element can be zero, and pivoting on it makes the recorded basis
/// genuinely singular. Callers refactorise and re-price instead.
pub(crate) const STABLE_PIVOT_REL: f64 = 1e-7;

/// The revised-simplex workspace shared across branch-and-bound nodes.
#[derive(Debug, Clone)]
pub(crate) struct LpWorkspace {
    pub(crate) cols: SparseCols,
    /// Right-hand sides (row equalities `a'x + s = b`).
    pub(crate) b: Vec<f64>,
    /// Structural costs in minimisation form.
    pub(crate) cost: Vec<f64>,
    maximize: bool,
    /// Model bounds (structural) and row-sense bounds (logical).
    base_lo: Vec<f64>,
    base_hi: Vec<f64>,
    /// Bounds of the current node.
    pub(crate) lo: Vec<f64>,
    pub(crate) hi: Vec<f64>,
    pub(crate) basis: Basis,
    /// Values of the basic variables, row-aligned.
    pub(crate) xb: Vec<f64>,
    /// Whether `basis` carries a usable basis from a previous solve.
    factored: bool,
    /// Devex reference weights of the dual simplex.
    pub(crate) devex: DevexWeights,
    // Scratch buffers, reused across iterations and solves.
    pub(crate) w: Vec<f64>,
    pub(crate) y: Vec<f64>,
    pub(crate) d: Vec<f64>,
    pub(crate) alpha: Vec<f64>,
    /// Pivot row `ρ = e_r'B⁻¹` of the dual simplex.
    pub(crate) rho: Vec<f64>,
    u: Vec<f64>,
    pub(crate) stats: LpStats,
}

impl LpWorkspace {
    /// Builds the standard-form workspace. The model must already be
    /// validated.
    pub(crate) fn new(model: &Model) -> LpWorkspace {
        let cols = SparseCols::from_model(model);
        let m = cols.m;
        let n_struct = cols.n_struct;
        let n_total = cols.n_total();
        let maximize = model.sense == ObjectiveSense::Maximize;
        let mut cost: Vec<f64> = model.vars.iter().map(|v| v.objective).collect();
        if maximize {
            for c in cost.iter_mut() {
                *c = -*c;
            }
        }
        let mut base_lo = Vec::with_capacity(n_total);
        let mut base_hi = Vec::with_capacity(n_total);
        for v in &model.vars {
            base_lo.push(v.lo);
            base_hi.push(v.hi);
        }
        let mut b = Vec::with_capacity(m);
        for c in &model.constraints {
            b.push(c.rhs);
            let (l, h) = match c.sense {
                ConstraintSense::Le => (0.0, f64::INFINITY),
                ConstraintSense::Ge => (f64::NEG_INFINITY, 0.0),
                ConstraintSense::Eq => (0.0, 0.0),
            };
            base_lo.push(l);
            base_hi.push(h);
        }
        LpWorkspace {
            basis: Basis::logical(m, n_struct),
            b,
            cost,
            maximize,
            lo: base_lo.clone(),
            hi: base_hi.clone(),
            base_lo,
            base_hi,
            xb: vec![0.0; m],
            factored: false,
            devex: DevexWeights::default(),
            w: Vec::new(),
            y: Vec::new(),
            d: Vec::new(),
            alpha: Vec::new(),
            rho: Vec::new(),
            u: Vec::new(),
            stats: LpStats::default(),
            cols,
        }
    }

    /// Solves the LP under `bounds`, warm-starting from the previous basis
    /// when one is available.
    pub(crate) fn solve(&mut self, bounds: &[VarBound]) -> LpOutcome {
        // Install the node's bounds: the base intersected with the extras.
        self.lo.copy_from_slice(&self.base_lo);
        self.hi.copy_from_slice(&self.base_hi);
        for vb in bounds {
            let j = vb.var;
            if vb.lo > self.lo[j] {
                self.lo[j] = vb.lo;
            }
            if vb.hi < self.hi[j] {
                self.hi[j] = vb.hi;
            }
            if self.lo[j] > self.hi[j] + PRIMAL_TOL {
                return LpOutcome::Infeasible;
            }
        }

        if self.factored {
            match self.try_warm() {
                Some(outcome) => return outcome,
                None => {
                    // Dual reoptimisation could not run or stalled: restart
                    // cold below.
                }
            }
        }
        self.solve_cold()
    }

    /// Makes a saved basis the one the next [`LpWorkspace::solve`] warm-starts
    /// from, with freshly computed factors. When the saved basis no longer
    /// factorises, the next solve runs cold.
    pub(crate) fn restore(&mut self, snapshot: &BasisSnapshot) {
        self.factored = self.basis.restore(snapshot, &self.cols);
        self.stats.refactorizations += 1;
    }

    /// Attempts the warm path: remap nonbasic states so the inherited basis
    /// is dual feasible under the new bounds, recompute the basic values and
    /// reoptimise with the dual simplex. Returns `None` when the caller
    /// should fall back to a cold solve.
    fn try_warm(&mut self) -> Option<LpOutcome> {
        self.compute_reduced_costs();
        // Remap every nonbasic column onto a bound that is both finite and
        // consistent with the sign of its reduced cost. Branch bounds only
        // fix or unfix binaries (finite on both sides), so this almost never
        // fails; the fallback covers pathological drift.
        let n_total = self.cols.n_total();
        for j in 0..n_total {
            if let VarState::Basic(_) = self.basis.state[j] {
                continue;
            }
            let (l, h) = (self.lo[j], self.hi[j]);
            let dj = self.d[j];
            let state = &mut self.basis.state[j];
            if l == h {
                *state = VarState::AtLower;
            } else if dj > DUAL_TOL {
                if !l.is_finite() {
                    return None;
                }
                *state = VarState::AtLower;
            } else if dj < -DUAL_TOL {
                if !h.is_finite() {
                    return None;
                }
                *state = VarState::AtUpper;
            } else {
                // Degenerate reduced cost: keep the current side when its
                // bound exists, otherwise take the finite one.
                match *state {
                    VarState::AtLower if l.is_finite() => {}
                    VarState::AtUpper if h.is_finite() => {}
                    _ if l.is_finite() => *state = VarState::AtLower,
                    _ if h.is_finite() => *state = VarState::AtUpper,
                    _ => return None,
                }
            }
        }
        self.recompute_xb();
        match self.dual_simplex() {
            LoopEnd::Done => {
                self.stats.warm_starts += 1;
                self.factored = true;
                Some(LpOutcome::Optimal(self.extract()))
            }
            LoopEnd::Infeasible => {
                self.stats.warm_starts += 1;
                Some(LpOutcome::Infeasible)
            }
            LoopEnd::Stalled | LoopEnd::Unbounded => None,
        }
    }

    /// Cold path: all-logical basis, primal phases 1 and 2.
    fn solve_cold(&mut self) -> LpOutcome {
        self.basis.reset_logical();
        self.stats.cold_solves += 1;
        self.recompute_xb();
        match self.primal_simplex() {
            LoopEnd::Done => {
                self.factored = true;
                LpOutcome::Optimal(self.extract())
            }
            LoopEnd::Infeasible => {
                self.factored = true;
                LpOutcome::Infeasible
            }
            LoopEnd::Unbounded => {
                self.factored = false;
                LpOutcome::Unbounded
            }
            LoopEnd::Stalled => {
                self.factored = false;
                LpOutcome::Numerical("simplex failed to make progress")
            }
        }
    }

    /// The value a nonbasic variable currently sits at.
    #[inline]
    pub(crate) fn nb_value(&self, j: usize) -> f64 {
        match self.basis.state[j] {
            VarState::AtLower => self.lo[j],
            VarState::AtUpper => self.hi[j],
            VarState::Basic(r) => self.xb[r as usize],
        }
    }

    /// Recomputes `xb = B⁻¹ (b − N·x_N)` from the current states and bounds.
    pub(crate) fn recompute_xb(&mut self) {
        self.u.clear();
        self.u.extend_from_slice(&self.b);
        // Only structural nonbasics can sit at a non-zero value: the finite
        // bounds of every logical column are zero.
        for j in 0..self.cols.n_struct {
            let v = match self.basis.state[j] {
                VarState::Basic(_) => continue,
                VarState::AtLower => self.lo[j],
                VarState::AtUpper => self.hi[j],
            };
            if v != 0.0 {
                for (r, a) in self.cols.col(j) {
                    self.u[r] -= v * a;
                }
            }
        }
        self.basis.ftran_dense(&self.u, &mut self.xb);
    }

    /// Computes the reduced costs of every column into `self.d` (basic
    /// entries are zeroed).
    pub(crate) fn compute_reduced_costs(&mut self) {
        let mut y = std::mem::take(&mut self.y);
        self.basis.btran_costs(&self.cost, &mut y);
        let n_total = self.cols.n_total();
        self.d.clear();
        self.d.resize(n_total, 0.0);
        for j in 0..n_total {
            if let VarState::Basic(_) = self.basis.state[j] {
                continue;
            }
            let cj = self.cost.get(j).copied().unwrap_or(0.0);
            self.d[j] = cj - self.cols.dot_col(&y, j);
        }
        self.y = y;
    }

    /// Rebuilds the factors and the basic values; `false` means the basis
    /// is numerically lost and the caller must restart cold.
    pub(crate) fn refactor_and_sync(&mut self) -> bool {
        let ok = self.basis.refactorize(&self.cols);
        self.stats.refactorizations += 1;
        if ok {
            self.recompute_xb();
        }
        ok
    }

    /// Extracts the structural solution at the current basis.
    fn extract(&self) -> LpSolution {
        let n = self.cols.n_struct;
        let mut values = Vec::with_capacity(n);
        for j in 0..n {
            let v = self.nb_value(j);
            // Clamp away negative dust, like the dense reference.
            values.push(if v < 0.0 && v > -1e-6 { 0.0 } else { v });
        }
        let objective: f64 = values
            .iter()
            .zip(&self.cost)
            .map(|(&x, &c)| if c != 0.0 { c * x } else { 0.0 })
            .sum();
        LpSolution {
            values,
            objective: if self.maximize { -objective } else { objective },
        }
    }

    /// Iteration cap of one simplex loop.
    #[inline]
    pub(crate) fn iteration_cap(&self) -> usize {
        50 * (self.cols.m + self.cols.n_total()) + 10_000
    }

    /// Iterations after which pricing switches to Bland's rule.
    #[inline]
    pub(crate) fn bland_threshold(&self) -> usize {
        5 * (self.cols.m + self.cols.n_total()) + 1_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::mapper_model;
    use crate::VarId;

    fn fix(var: VarId, value: f64) -> VarBound {
        VarBound {
            var: var.index(),
            lo: value,
            hi: value,
        }
    }

    fn optimal(outcome: LpOutcome) -> LpSolution {
        match outcome {
            LpOutcome::Optimal(s) => s,
            other => panic!("expected an optimal relaxation, got {other:?}"),
        }
    }

    /// Solves `bounds` and returns the solution's bits and the iterations
    /// it took.
    fn solve_bits(lp: &mut LpWorkspace, bounds: &[VarBound]) -> (Vec<u64>, u64, u64) {
        let before = lp.stats.iterations;
        let s = optimal(lp.solve(bounds));
        (
            s.values.iter().map(|v| v.to_bits()).collect(),
            s.objective.to_bits(),
            lp.stats.iterations - before,
        )
    }

    #[test]
    fn a_restored_child_solve_does_not_depend_on_visit_order() {
        let (p, g) = (24, 4);
        let (model, n) = mapper_model(p, g);
        let mut lp = LpWorkspace::new(&model);
        optimal(lp.solve(&[]));
        let parent_bounds = vec![fix(n[0][0], 1.0), fix(n[3][1], 0.0), fix(n[7][2], 1.0)];
        let relax = optimal(lp.solve(&parent_bounds));
        assert!(
            lp.basis.state.contains(&VarState::AtUpper),
            "the parent basis must have columns at their upper bound"
        );
        let parent = lp.basis.snapshot();
        // The child the search would put on its heap: the most fractional
        // binary, rounded the other way.
        let branch = n
            .iter()
            .flatten()
            .copied()
            .min_by(|&a, &b| {
                let dist = |v: VarId| (relax.values[v.index()] - 0.5).abs();
                dist(a).total_cmp(&dist(b))
            })
            .unwrap();
        let other_side = if relax.values[branch.index()] >= 0.5 {
            0.0
        } else {
            1.0
        };
        let mut child_bounds = parent_bounds.clone();
        child_bounds.push(fix(branch, other_side));

        // Right after the parent, from its own basis with fresh factors.
        assert!(lp.refactor_and_sync());
        let after_parent = solve_bits(&mut lp, &child_bounds);

        // After an unrelated dive that leaves another basis and a long eta
        // file behind.
        let mut dive = Vec::new();
        for (i, ni) in n.iter().enumerate() {
            dive.push(fix(ni[(i * 3 + 1) % g], 1.0));
            optimal(lp.solve(&dive));
        }
        lp.restore(&parent);
        let after_dive = solve_bits(&mut lp, &child_bounds);

        assert_eq!(after_parent, after_dive);
        assert!(after_parent.2 > 0, "the child must need a reoptimisation");
    }
}
