//! Error type for the LP/ILP solver.

use std::fmt;

/// Errors produced while building or solving a model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum IlpError {
    /// The model references a variable id that does not belong to it.
    UnknownVariable(usize),
    /// The linear program is infeasible (phase-1 simplex left artificial
    /// variables in the basis at a positive level).
    Infeasible,
    /// The linear program is unbounded in the optimisation direction.
    Unbounded,
    /// No integer-feasible solution was found within the node budget.
    NoIntegerSolution,
    /// The model has no variables.
    EmptyModel,
    /// A numerical problem occurred (e.g. a pivot element vanished).
    Numerical(&'static str),
}

impl fmt::Display for IlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IlpError::UnknownVariable(i) => write!(f, "unknown variable id {i}"),
            IlpError::Infeasible => write!(f, "model is infeasible"),
            IlpError::Unbounded => write!(f, "model is unbounded"),
            IlpError::NoIntegerSolution => {
                write!(f, "no integer-feasible solution found within the budget")
            }
            IlpError::EmptyModel => write!(f, "model has no variables"),
            IlpError::Numerical(msg) => write!(f, "numerical difficulty: {msg}"),
        }
    }
}

impl std::error::Error for IlpError {}
