//! A small linear-programming (LP) and mixed 0/1 integer-programming (ILP)
//! solver.
//!
//! The paper solves its partition-to-GPU mapping problem with a commercial
//! ILP solver (Gurobi). This crate provides the substrate needed to reproduce
//! that step without external dependencies:
//!
//! * [`Model`] — a builder for LP/ILP models: variables (continuous or
//!   binary) with **native bounds**, linear constraints and a linear
//!   objective,
//! * a **bounded-variable revised simplex** for the LP relaxation: sparse
//!   column-major constraint storage, a **sparse LU basis factorisation**
//!   (Markowitz pivoting, product-form eta updates, stability-triggered
//!   refactorisation), a primal two-phase method for cold solves and a
//!   dual simplex with **devex pricing** and a **bound-flipping ratio test**
//!   that warm-starts from the previous basis when only bounds changed
//!   ([`simplex`], [`LpSolver`]),
//! * **branch-and-bound** over the binary variables with **best-bound node
//!   ordering** plus early-incumbent dives, incumbent pruning, warm-start
//!   incumbents, a node budget (the only budget: no clock is read), a
//!   reported optimality gap and per-node dual reoptimisation from the
//!   parent's basis ([`Solver`]) — a branch only tightens one bound, so the
//!   parent basis stays dual feasible and a child relaxation typically costs
//!   a handful of pivots instead of a full solve. Dive children find that
//!   basis live; best-bound nodes carry a snapshot of it and restore it when
//!   popped. There is no presolve: the search runs on the caller's model as
//!   built, so a model should carry no empty column, singleton row or
//!   bound-fixed variable it does not need (the mapper's carries none).
//!
//! The original dense two-phase tableau is not shipped: it lives in
//! `tests/common/dense.rs` as the oracle the equivalence tests hold the
//! revised simplex to.
//!
//! # Example
//!
//! ```rust
//! use sgmap_ilp::{Model, ObjectiveSense, Solver};
//!
//! # fn main() -> Result<(), sgmap_ilp::IlpError> {
//! // maximise 3x + 2y  s.t.  x + y <= 4, x <= 2, y <= 3, x,y >= 0
//! let mut m = Model::new(ObjectiveSense::Maximize);
//! let x = m.add_continuous(3.0);
//! let y = m.add_continuous(2.0);
//! m.add_constraint_le(vec![(x, 1.0), (y, 1.0)], 4.0);
//! m.add_constraint_le(vec![(x, 1.0)], 2.0);
//! m.add_constraint_le(vec![(y, 1.0)], 3.0);
//! let solution = Solver::new().solve(&m)?;
//! assert!((solution.objective - 10.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod basis;
mod dual;
mod error;
mod lu;
mod model;
mod pricing;
mod primal;
pub mod simplex;
mod solver;
mod sparse;
mod workspace;

// The dense oracle's own unit tests run with the crate's; the oracle names
// this crate by its external name, as the integration tests do.
#[cfg(test)]
extern crate self as sgmap_ilp;
#[cfg(test)]
#[path = "../tests/common/dense.rs"]
mod dense;
#[cfg(test)]
#[path = "../tests/common/mapper.rs"]
mod mapper;

pub use error::IlpError;
pub use model::{ConstraintSense, Model, ObjectiveSense, VarId, VarKind};
pub use simplex::{LpSolution, LpSolver, VarBound};
pub use solver::{Solution, SolutionStatus, SolveStats, Solver, SolverOptions};

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, IlpError>;
