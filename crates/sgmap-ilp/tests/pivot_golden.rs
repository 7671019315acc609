//! Pivot-sequence golden test: budget-limited branch-and-bound solves of the
//! benchmark-scale mapper models must reproduce the recorded solver counters
//! and objective bit for bit.
//!
//! The counters pin the whole pivot sequence: a different LU pivot changes
//! the factors' rounding, which moves some ratio test or pricing tie and
//! with it the iteration, refactorisation or bound-flip count of an 80-node
//! search. Re-record the constants only for a change that is *meant* to
//! alter the simplex path.

#[path = "common/mapper.rs"]
mod mapper;

use mapper::mapper_model;
use sgmap_ilp::{SolveStats, Solver, SolverOptions};

/// Node budget of the golden solves: large enough for many warm-started
/// reoptimisations and several refactorisations, small enough for a debug
/// test run.
const MAX_NODES: usize = 80;
/// Node budget of the 1116-row golden, whose dive needs more nodes than
/// [`MAX_NODES`] to reach its first incumbent.
const MAX_NODES_LARGE: usize = 400;

/// Counters and objective bits of one golden solve.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    nodes: u64,
    lp_iterations: u64,
    refactorizations: u64,
    bound_flips: u64,
    objective_bits: u64,
    gap_bits: u64,
}

fn solve(p: usize, g: usize, max_nodes: usize) -> Golden {
    let (model, _) = mapper_model(p, g);
    let opts = SolverOptions {
        max_nodes,
        ..SolverOptions::default()
    };
    let s = Solver::with_options(opts).solve(&model).unwrap();
    let SolveStats {
        nodes,
        lp_iterations,
        refactorizations,
        bound_flips,
        optimality_gap,
        ..
    } = s.stats;
    Golden {
        nodes,
        lp_iterations,
        refactorizations,
        bound_flips,
        objective_bits: s.objective.to_bits(),
        gap_bits: optimality_gap.to_bits(),
    }
}

#[test]
fn mapper_80x2_replays_the_recorded_pivot_sequence() {
    assert_eq!(
        solve(80, 2, MAX_NODES),
        Golden {
            nodes: 80,
            lp_iterations: 470,
            refactorizations: 7,
            bound_flips: 0,
            objective_bits: 4644970434423422976,
            gap_bits: 4568623509630845296,
        }
    );
}

#[test]
fn mapper_40x4_replays_the_recorded_pivot_sequence() {
    assert_eq!(
        solve(40, 4, MAX_NODES),
        Golden {
            nodes: 80,
            lp_iterations: 538,
            refactorizations: 8,
            bound_flips: 0,
            objective_bits: 4636385447633747968,
            gap_bits: 4589594677097338945,
        }
    );
}

#[test]
fn mapper_100x6_replays_the_recorded_pivot_sequence() {
    // 1116 rows: the size of the hierarchical-platform models whose solves
    // dominate mapping time, where btran runs on the sparse path.
    assert_eq!(
        solve(100, 6, MAX_NODES_LARGE),
        Golden {
            nodes: 400,
            lp_iterations: 5466,
            refactorizations: 86,
            bound_flips: 0,
            objective_bits: 4640290912935608320,
            gap_bits: 4594235654553318412,
        }
    );
}
