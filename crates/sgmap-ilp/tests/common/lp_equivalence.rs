//! LP-level equivalence of the revised bounded-variable simplex: against the
//! dense two-phase reference on random models, and warm-started
//! reoptimisation against cold solves along chains of tightened bounds.
//!
//! The simplex workspace is crate-private, so this file runs with the
//! crate's unit tests (`src/lib.rs` includes it by path); the ILP-level
//! property, which needs only the public [`Solver`](crate::Solver), stays
//! in `tests/equivalence.rs`. Both draw their models from
//! `random_model.rs`.

#[path = "random_model.rs"]
mod random_model;

use proptest::prelude::*;

use crate::dense;
use crate::simplex::{LpSolution, VarBound};
use crate::workspace::LpWorkspace;
use crate::{IlpError, Model, Result};
use random_model::{close, random_model, satisfies, Gen};

/// The workspace's form of the oracle's bounds.
fn revised_bounds(bounds: &[dense::VarBound]) -> Vec<VarBound> {
    bounds
        .iter()
        .map(|b| VarBound {
            var: b.var,
            lo: b.lo,
            hi: b.hi,
        })
        .collect()
}

/// One cold revised-simplex solve of the relaxation under `bounds`.
fn cold(model: &Model, bounds: &[dense::VarBound]) -> Result<LpSolution> {
    model.validate()?;
    LpWorkspace::new(model)
        .solve(&revised_bounds(bounds))
        .into_result()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same classification, same optimal objective, feasible solutions — on
    /// models with equality rows, `>=` rows, native bounds and branch-bound
    /// restrictions.
    #[test]
    fn revised_lp_matches_dense_lp(seed in 0u64..(1u64 << 62)) {
        let (model, bounds) = random_model(seed);
        let dense_result = dense::solve_lp(&model, &bounds);
        let revised_result = cold(&model, &bounds);
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

    /// Warm-start chains: reoptimising one workspace along a path of
    /// progressively tightened bounds matches a cold solve at every step.
    #[test]
    fn warm_start_chain_matches_cold_solves(seed in 0u64..(1u64 << 62)) {
        let (model, _) = random_model(seed);
        let binaries = model.binary_vars();
        prop_assume!(!binaries.is_empty());
        let mut warm = LpWorkspace::new(&model);
        let mut g = Gen(seed ^ 0xabcd_ef12_3456_789a);
        let mut path: Vec<dense::VarBound> = Vec::new();
        for step in 0..binaries.len() {
            let var = binaries[g.below(binaries.len() as u64) as usize].index();
            let fix = if g.chance(50) { 1.0 } else { 0.0 };
            path.retain(|b| b.var != var);
            path.push(dense::VarBound { var, lo: fix, hi: fix });
            let cold = cold(&model, &path);
            let warmed = warm.solve(&revised_bounds(&path)).into_result();
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
