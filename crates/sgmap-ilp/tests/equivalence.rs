//! Equivalence of the warm-started branch-and-bound against an exhaustive
//! search over the dense two-phase reference LP, on randomly generated
//! models.
//!
//! The two may land on *different optimal vertices* (their pivot rules
//! differ), so the contract is: identical feasibility classification
//! (optimal / infeasible / unbounded), matching optimal objective values
//! within tolerance, and solutions that actually satisfy the model. This is
//! the determinism story of the revised-simplex migration: the golden
//! reports were re-baselined, and this suite proves the objective values —
//! the quantity the mapper consumes — are preserved. The LP-level
//! properties (revised against dense, warm against cold) need the crate's
//! simplex workspace and run with its unit tests, from
//! `tests/common/lp_equivalence.rs`.

#[path = "common/dense.rs"]
mod dense;
#[path = "common/random_model.rs"]
mod random_model;

use proptest::prelude::*;

use dense::VarBound;
use random_model::{close, random_model, satisfies};
use sgmap_ilp::{IlpError, Model, ObjectiveSense, Solver};

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
}
