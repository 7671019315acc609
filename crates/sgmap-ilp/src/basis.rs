//! Basis bookkeeping for the revised simplex: which variable is basic in
//! which row, the nonbasic-at-lower/upper states of everything else, and the
//! sparse LU factorisation of the basis matrix ([`crate::lu::LuFactor`]:
//! Markowitz pivot selection and an eta-update file), so solves cost
//! `O(nnz)` of the factors and large sparse bases stay cheap. The btrans of
//! a unit vector ([`Basis::btran_unit`]) and of a cost vector with few
//! basic costs ([`Basis::btran_costs`]) take the factor's sparse path and
//! cost only the entries their nonzeros reach; their results are bit for
//! bit those of the dense loops, because every skipped term is a product
//! with an exact zero, which can change only the sign of a zero.
//!
//! Drift is bounded by rebuilding the factors after a fixed number of
//! updates, or early when an update shows large pivot growth.

use crate::lu::LuFactor;
use crate::sparse::SparseCols;

/// Where a variable currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarState {
    /// Basic in the given row.
    Basic(u32),
    /// Nonbasic at its (finite) lower bound.
    AtLower,
    /// Nonbasic at its (finite) upper bound.
    AtUpper,
}

/// A basis saved for a later restart: the basic column of each row and the
/// nonbasic columns at their upper bound (every other column sits at its
/// lower bound). The factors are not saved; [`Basis::restore`] rebuilds
/// them.
#[derive(Debug, Clone)]
pub(crate) struct BasisSnapshot {
    basic: Box<[u32]>,
    at_upper: Box<[u32]>,
}

/// The current basis together with its factorised matrix.
#[derive(Debug, Clone)]
pub(crate) struct Basis {
    /// Basic variable of each row.
    pub(crate) basic: Vec<u32>,
    /// State of every column (structural + logical).
    pub(crate) state: Vec<VarState>,
    m: usize,
    lu: LuFactor,
}

impl Basis {
    /// An all-logical basis (`B = I`) with every structural column at its
    /// lower bound.
    pub(crate) fn logical(m: usize, n_struct: usize) -> Basis {
        let mut state = vec![VarState::AtLower; n_struct + m];
        let mut basic = Vec::with_capacity(m);
        for i in 0..m {
            basic.push((n_struct + i) as u32);
            state[n_struct + i] = VarState::Basic(i as u32);
        }
        Basis {
            basic,
            state,
            m,
            lu: LuFactor::identity(m),
        }
    }

    /// Resets this basis in place to the all-logical configuration.
    pub(crate) fn reset_logical(&mut self) {
        let n_struct = self.state.len() - self.m;
        for s in self.state.iter_mut() {
            *s = VarState::AtLower;
        }
        for i in 0..self.m {
            self.basic[i] = (n_struct + i) as u32;
            self.state[n_struct + i] = VarState::Basic(i as u32);
        }
        self.lu.reset_identity();
    }

    /// `w = B⁻¹·a_j` for a structural or logical column.
    pub(crate) fn ftran(&mut self, cols: &SparseCols, j: usize, w: &mut Vec<f64>) {
        w.clear();
        w.resize(self.m, 0.0);
        match cols.logical_row(j) {
            Some(r) => w[r] = 1.0,
            None => {
                for (r, v) in cols.col(j) {
                    w[r] = v;
                }
            }
        }
        self.lu.ftran(w);
    }

    /// `out = B⁻¹·rhs` for a dense right-hand side indexed by constraint
    /// row; the result is indexed by basis position.
    pub(crate) fn ftran_dense(&mut self, rhs: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(rhs);
        self.lu.ftran(out);
    }

    /// `y' = c' · B⁻¹` for a dense vector `c` indexed by basis position;
    /// the result is indexed by constraint row.
    pub(crate) fn btran_dense(&mut self, c: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(c);
        self.lu.btran(out);
    }

    /// Row `r` of the inverse (the btran of a unit vector): the pivot row
    /// `ρ` with `α_j = ρ·a_j` in the dual simplex.
    pub(crate) fn btran_unit(&mut self, r: usize, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.m, 0.0);
        out[r] = 1.0;
        self.lu.btran(out);
    }

    /// `y = c_B'·B⁻¹` accumulated from the rows whose basic cost is
    /// non-zero. `cost` is indexed by *variable*; logical columns carry
    /// implicit zero cost when `cost.len() <= var`.
    pub(crate) fn btran_costs(&mut self, cost: &[f64], y: &mut Vec<f64>) {
        y.clear();
        y.resize(self.m, 0.0);
        for (i, &bv) in self.basic.iter().enumerate() {
            y[i] = cost.get(bv as usize).copied().unwrap_or(0.0);
        }
        self.lu.btran(y);
    }

    /// Replaces the basic variable of row `r` by column `j`, whose `ftran`
    /// direction is `w` (so `w[r]` is the pivot element), and updates the
    /// factors by an eta step.
    ///
    /// Returns `false` (leaving the basis untouched) when the pivot element
    /// is numerically unusable.
    pub(crate) fn pivot(&mut self, cols_m: usize, r: usize, j: usize, w: &[f64]) -> bool {
        debug_assert_eq!(cols_m, self.m);
        if !self.lu.update(r, w) {
            return false;
        }
        let old = self.basic[r] as usize;
        self.basic[r] = j as u32;
        // The caller decides which bound the leaving variable lands on; give
        // it a definite (possibly overwritten) state so the invariant "every
        // non-basic column has a nonbasic state" always holds.
        if self.state[old] == VarState::Basic(r as u32) {
            self.state[old] = VarState::AtLower;
        }
        self.state[j] = VarState::Basic(r as u32);
        true
    }

    /// Whether enough updates accumulated (or stability degraded enough) to
    /// warrant a rebuild of the factors.
    pub(crate) fn wants_refactor(&self) -> bool {
        self.lu.wants_refactor()
    }

    /// Whether the factors carry no updates since the last rebuild. Fresh
    /// factors produce accurate directions; stale ones may overstate a tiny
    /// pivot, so callers should refactorise before trusting one.
    pub(crate) fn is_fresh(&self) -> bool {
        self.lu.is_fresh()
    }

    /// Saves the basic columns and the nonbasic states.
    pub(crate) fn snapshot(&self) -> BasisSnapshot {
        let at_upper = (0..self.state.len() as u32)
            .filter(|&j| self.state[j as usize] == VarState::AtUpper)
            .collect();
        BasisSnapshot {
            basic: self.basic.clone().into_boxed_slice(),
            at_upper,
        }
    }

    /// Installs a saved basis and factorises it from scratch, so what
    /// follows depends on the snapshot alone, not on the updates this basis
    /// went through since. Returns `false` when the factorisation fails, as
    /// [`Basis::refactorize`] does.
    pub(crate) fn restore(&mut self, snapshot: &BasisSnapshot, cols: &SparseCols) -> bool {
        self.state.fill(VarState::AtLower);
        for &j in snapshot.at_upper.iter() {
            self.state[j as usize] = VarState::AtUpper;
        }
        self.basic.copy_from_slice(&snapshot.basic);
        for (r, &j) in self.basic.iter().enumerate() {
            self.state[j as usize] = VarState::Basic(r as u32);
        }
        self.refactorize(cols)
    }

    /// Rebuilds the factors from the current `basic[]` assignment.
    ///
    /// Returns `false` if the basis matrix turned out singular — the caller
    /// should fall back to a cold logical-basis restart.
    pub(crate) fn refactorize(&mut self, cols: &SparseCols) -> bool {
        self.lu.refactorize(cols, &self.basic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, ObjectiveSense};

    fn toy() -> (SparseCols, Model) {
        let mut m = Model::new(ObjectiveSense::Minimize);
        let x = m.add_continuous(1.0);
        let y = m.add_continuous(1.0);
        m.add_constraint_le(vec![(x, 2.0), (y, 1.0)], 4.0);
        m.add_constraint_le(vec![(x, 1.0), (y, 3.0)], 6.0);
        (SparseCols::from_model(&m), m)
    }

    fn binv_row(basis: &mut Basis, r: usize) -> Vec<f64> {
        let mut out = Vec::new();
        basis.btran_unit(r, &mut out);
        out
    }

    #[test]
    fn pivoting_tracks_the_true_inverse() {
        let (cols, _m) = toy();
        let mut basis = Basis::logical(2, 2);
        let mut w = Vec::new();
        // Bring x (col 0) into row 0: B = [[2, 0], [1, 1]].
        basis.ftran(&cols, 0, &mut w);
        assert_eq!(w, vec![2.0, 1.0]);
        assert!(basis.pivot(2, 0, 0, &w.clone()));
        // B^{-1} = [[0.5, 0], [-0.5, 1]].
        assert_eq!(binv_row(&mut basis, 0), &[0.5, 0.0]);
        assert_eq!(binv_row(&mut basis, 1), &[-0.5, 1.0]);
        // Bring y (col 1) into row 1: B = [[2, 1], [1, 3]], det 5.
        basis.ftran(&cols, 1, &mut w);
        let w2 = w.clone();
        assert!(basis.pivot(2, 1, 1, &w2));
        let expect = [[0.6, -0.2], [-0.2, 0.4]];
        for (r, want) in expect.iter().enumerate() {
            let row = binv_row(&mut basis, r);
            for (c, w) in want.iter().enumerate() {
                assert!((row[c] - w).abs() < 1e-12, "binv[{r}][{c}]");
            }
        }
        // Refactorisation reproduces the same inverse from scratch.
        assert!(basis.refactorize(&cols));
        for (r, want) in expect.iter().enumerate() {
            let row = binv_row(&mut basis, r);
            for (c, w) in want.iter().enumerate() {
                assert!((row[c] - w).abs() < 1e-12, "refactor binv[{r}][{c}]");
            }
        }
        // ftran of a dense rhs and btran of a cost vector agree with the
        // explicit inverse.
        let mut out = Vec::new();
        basis.ftran_dense(&[4.0, 6.0], &mut out);
        assert!((out[0] - 1.2).abs() < 1e-12 && (out[1] - 1.6).abs() < 1e-12);
        let mut y = Vec::new();
        basis.btran_costs(&[1.0, 1.0], &mut y);
        assert!((y[0] - 0.4).abs() < 1e-12 && (y[1] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn vanishing_pivot_is_rejected() {
        let mut basis = Basis::logical(2, 2);
        let w = vec![0.0, 1.0];
        assert!(!basis.pivot(2, 0, 0, &w));
        // Basis unchanged.
        assert_eq!(basis.basic, vec![2, 3]);
    }
}
