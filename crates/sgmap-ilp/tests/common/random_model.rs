//! Random models for the equivalence tests: one seed derives a whole model,
//! with every row sense, native bounds, bound-fixed columns, singleton rows
//! and branch-style bound restrictions. The integration tests
//! (`tests/equivalence.rs`) and the crate's LP-level tests
//! (`tests/common/lp_equivalence.rs`) both include this file; the bounds
//! are the dense oracle's type, which both see as `crate::dense`.

use crate::dense::VarBound;
use sgmap_ilp::{Model, ObjectiveSense};

/// Absolute + relative tolerance for comparing optimal objectives.
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
}

/// Deterministic mini-RNG (SplitMix64) so a whole model derives from one
/// seed — the vendored proptest has no shrinking, and a single-seed case is
/// trivially reproducible by hand.
pub struct Gen(pub u64);

impl Gen {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// A random small model with every row sense, native bounds, a mix of
/// binary and continuous variables — including variables fixed by their
/// bounds and singleton rows, which the simplex handles as they come — plus
/// branch-style bound restrictions.
pub fn random_model(seed: u64) -> (Model, Vec<VarBound>) {
    let mut g = Gen(seed);
    let sense = if g.chance(50) {
        ObjectiveSense::Minimize
    } else {
        ObjectiveSense::Maximize
    };
    let mut model = Model::new(sense);
    let n_vars = 1 + g.below(5) as usize;
    let mut vars = Vec::with_capacity(n_vars);
    let mut binaries = Vec::new();
    for _ in 0..n_vars {
        let cost = g.int(-5, 5) as f64;
        if g.chance(50) {
            let v = model.add_binary(cost);
            if g.chance(15) {
                // Bound-fixed binary: a column the simplex never moves.
                let fix = if g.chance(50) { 1.0 } else { 0.0 };
                model.set_bounds(v, fix, fix);
            } else {
                binaries.push(v);
            }
            vars.push(v);
        } else {
            let v = model.add_continuous(cost);
            if g.chance(15) {
                // Bound-fixed continuous variable.
                let fix = g.int(0, 3) as f64;
                model.set_bounds(v, fix, fix);
            } else if g.chance(40) {
                let lo = g.int(0, 2) as f64;
                let hi = if g.chance(50) {
                    lo + g.int(0, 3) as f64
                } else {
                    f64::INFINITY
                };
                model.set_bounds(v, lo, hi);
            }
            vars.push(v);
        }
    }
    let n_rows = g.below(6) as usize;
    for _ in 0..n_rows {
        let mut terms = Vec::new();
        if g.chance(25) {
            // Singleton row: a bound in all but name.
            let v = vars[g.below(vars.len() as u64) as usize];
            let coef = g.int(-3, 3) as f64;
            if coef != 0.0 {
                terms.push((v, coef));
            }
        } else {
            for &v in &vars {
                if g.chance(70) {
                    let coef = g.int(-3, 3) as f64;
                    if coef != 0.0 {
                        terms.push((v, coef));
                    }
                }
            }
        }
        if terms.is_empty() {
            continue;
        }
        let rhs = g.int(-6, 6) as f64;
        match g.below(4) {
            0 => model.add_constraint_ge(terms, rhs),
            1 => model.add_constraint_eq(terms, rhs),
            _ => model.add_constraint_le(terms, rhs),
        }
    }
    let mut bounds = Vec::new();
    for &v in &binaries {
        if g.chance(30) {
            let fix = if g.chance(50) { 1.0 } else { 0.0 };
            bounds.push(VarBound {
                var: v.index(),
                lo: fix,
                hi: fix,
            });
        }
    }
    (model, bounds)
}

/// Checks a returned point against rows, native bounds and branch bounds.
pub fn satisfies(model: &Model, bounds: &[VarBound], values: &[f64]) -> bool {
    if !model.is_feasible(values, 1e-5) {
        return false;
    }
    bounds.iter().all(|b| {
        let v = values[b.var];
        v >= b.lo - 1e-5 && v <= b.hi + 1e-5
    })
}
