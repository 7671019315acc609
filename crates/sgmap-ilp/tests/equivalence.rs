//! Equivalence of the revised bounded-variable simplex against the dense
//! two-phase reference, on randomly generated models.
//!
//! The two cores may land on *different optimal vertices* (their pivot rules
//! differ), so the contract is: identical feasibility classification
//! (optimal / infeasible / unbounded), matching optimal objective values
//! within tolerance, and solutions that actually satisfy the model. This is
//! the determinism story of the revised-simplex migration: the golden
//! reports were re-baselined, and this suite proves the objective values —
//! the quantity the mapper consumes — are preserved.

#[path = "common/dense.rs"]
mod dense;

use proptest::prelude::*;

use sgmap_ilp::simplex::VarBound;
use sgmap_ilp::{simplex, IlpError, Model, ObjectiveSense, Solver};

/// Absolute + relative tolerance for comparing optimal objectives.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
}

/// Deterministic mini-RNG (SplitMix64) so a whole model derives from one
/// seed — the vendored proptest has no shrinking, and a single-seed case is
/// trivially reproducible by hand.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform integer in `[lo, hi]`.
    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// A random small model with every row sense, native bounds, a mix of
/// binary and continuous variables — including variables fixed by their
/// bounds and singleton rows, which the simplex handles as they come — plus
/// branch-style bound restrictions.
fn random_model(seed: u64) -> (Model, Vec<VarBound>) {
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
fn satisfies(model: &Model, bounds: &[VarBound], values: &[f64]) -> bool {
    if !model.is_feasible(values, 1e-5) {
        return false;
    }
    bounds.iter().all(|b| {
        let v = values[b.var];
        v >= b.lo - 1e-5 && v <= b.hi + 1e-5
    })
}

/// The old solver's search, reproduced on top of the dense LP core: the
/// ILP-level reference for the equivalence property.
fn reference_bb(model: &Model) -> Result<f64, IlpError> {
    fn most_fractional(model: &Model, values: &[f64]) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for var in model.binary_vars() {
            let v = values[var.index()];
            if (v - v.round()).abs() > 1e-6 {
                let dist = (0.5 - (v - v.floor())).abs();
                if best.is_none_or(|(_, d)| dist < d) {
                    best = Some((var.index(), dist));
                }
            }
        }
        best.map(|(i, _)| i)
    }

    fn rec(
        model: &Model,
        bounds: &mut Vec<VarBound>,
        best: &mut Option<f64>,
        minimize: bool,
        depth: usize,
    ) -> Result<(), IlpError> {
        let relax = match dense::solve_lp(model, bounds) {
            Ok(s) => s,
            Err(IlpError::Infeasible) => return Ok(()),
            Err(e) => return Err(e),
        };
        if let Some(b) = *best {
            let promising = if minimize {
                relax.objective < b - 1e-9
            } else {
                relax.objective > b + 1e-9
            };
            if !promising {
                return Ok(());
            }
        }
        match most_fractional(model, &relax.values) {
            None => {
                let obj = relax.objective;
                let better = best.is_none_or(|b| if minimize { obj < b } else { obj > b });
                if better {
                    *best = Some(obj);
                }
                Ok(())
            }
            Some(var) => {
                assert!(depth < 64, "runaway reference search");
                for fix in [0.0, 1.0] {
                    bounds.push(VarBound {
                        var,
                        lo: fix,
                        hi: fix,
                    });
                    rec(model, bounds, best, minimize, depth + 1)?;
                    bounds.pop();
                }
                Ok(())
            }
        }
    }

    let minimize = model.objective_sense() == ObjectiveSense::Minimize;
    let mut best = None;
    rec(model, &mut Vec::new(), &mut best, minimize, 0)?;
    best.ok_or(IlpError::NoIntegerSolution)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// LP level: same classification, same optimal objective, feasible
    /// solutions — on models with equality rows, `>=` rows, native bounds
    /// and branch-bound restrictions.
    #[test]
    fn revised_lp_matches_dense_lp(seed in 0u64..(1u64 << 62)) {
        let (model, bounds) = random_model(seed);
        let dense_result = dense::solve_lp(&model, &bounds);
        let revised_result = simplex::solve_lp(&model, &bounds);
        match (dense_result, revised_result) {
            (Ok(a), Ok(b)) => {
                prop_assert!(
                    close(a.objective, b.objective),
                    "objectives differ: dense {} vs revised {}",
                    a.objective,
                    b.objective
                );
                prop_assert!(satisfies(&model, &bounds, &a.values), "dense point infeasible");
                prop_assert!(satisfies(&model, &bounds, &b.values), "revised point infeasible");
            }
            (Err(IlpError::Infeasible), Err(IlpError::Infeasible)) => {}
            (Err(IlpError::Unbounded), Err(IlpError::Unbounded)) => {}
            (Err(IlpError::Numerical(_)), _) | (_, Err(IlpError::Numerical(_))) => {
                // Numerical breakdown on either side says nothing about
                // equivalence; discard the case.
                prop_assume!(false);
            }
            (a, b) => prop_assert!(false, "classification differs: dense {a:?} vs revised {b:?}"),
        }
    }

    /// ILP level: the warm-started branch-and-bound agrees with an
    /// exhaustive dense-LP search on optimal value and solvability.
    #[test]
    fn warm_started_bb_matches_dense_reference(seed in 0u64..(1u64 << 62)) {
        let (model, _) = random_model(seed);
        let reference = reference_bb(&model);
        let solved = Solver::new().solve(&model);
        match (reference, solved) {
            (Ok(a), Ok(s)) => {
                prop_assert!(
                    close(a, s.objective),
                    "ILP objectives differ: dense reference {} vs revised {}",
                    a,
                    s.objective
                );
                prop_assert!(satisfies(&model, &[], &s.values), "revised ILP point infeasible");
            }
            (
                Err(IlpError::Infeasible) | Err(IlpError::NoIntegerSolution),
                Err(IlpError::Infeasible) | Err(IlpError::NoIntegerSolution),
            ) => {}
            (Err(IlpError::Unbounded), Err(IlpError::Unbounded)) => {}
            (Err(IlpError::Numerical(_)), _) | (_, Err(IlpError::Numerical(_))) => {
                prop_assume!(false);
            }
            (a, b) => prop_assert!(false, "ILP outcome differs: reference {a:?} vs revised {b:?}"),
        }
    }

    /// Warm-start chains: reoptimising one `LpSolver` along a path of
    /// progressively tightened bounds matches a cold solve at every step.
    #[test]
    fn warm_start_chain_matches_cold_solves(seed in 0u64..(1u64 << 62)) {
        let (model, _) = random_model(seed);
        let binaries = model.binary_vars();
        prop_assume!(!binaries.is_empty());
        let mut warm = sgmap_ilp::LpSolver::new(&model).unwrap();
        let mut g = Gen(seed ^ 0xabcd_ef12_3456_789a);
        let mut path: Vec<VarBound> = Vec::new();
        for step in 0..binaries.len() {
            let var = binaries[g.below(binaries.len() as u64) as usize].index();
            let fix = if g.chance(50) { 1.0 } else { 0.0 };
            path.retain(|b| b.var != var);
            path.push(VarBound { var, lo: fix, hi: fix });
            let cold = simplex::solve_lp(&model, &path);
            let warmed = warm.solve(&path);
            match (cold, warmed) {
                (Ok(a), Ok(b)) => prop_assert!(
                    close(a.objective, b.objective),
                    "step {step}: cold {} vs warm {}",
                    a.objective,
                    b.objective
                ),
                (Err(IlpError::Infeasible), Err(IlpError::Infeasible)) => {}
                (Err(IlpError::Unbounded), Err(IlpError::Unbounded)) => {}
                (a, b) => prop_assert!(false, "step {step}: cold {a:?} vs warm {b:?}"),
            }
        }
    }
}
