//! Error type for stream graph construction and analysis.

use std::fmt;

use crate::filter::FilterId;

/// Errors produced while building or analysing a stream graph.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GraphError {
    /// A filter id referenced a node that does not exist.
    UnknownFilter(FilterId),
    /// A channel connects a filter to itself.
    SelfLoop(FilterId),
    /// The graph (ignoring feedback channels) contains a cycle.
    CyclicGraph,
    /// The SDF balance equations have no consistent solution.
    InconsistentRates {
        /// Source filter of the offending channel.
        src: FilterId,
        /// Destination filter of the offending channel.
        dst: FilterId,
    },
    /// The graph contains a filter that is not connected to the rest.
    Disconnected(FilterId),
    /// A split-join was declared with no branches.
    EmptySplitJoin,
    /// A pipeline was declared with no stages.
    EmptyPipeline,
    /// A round-robin weight vector does not match the number of branches.
    WeightMismatch {
        /// Number of branches declared.
        branches: usize,
        /// Number of weights supplied.
        weights: usize,
    },
    /// Rates on a channel are zero where a non-zero rate is required.
    ZeroRate {
        /// Source filter of the offending channel.
        src: FilterId,
        /// Destination filter of the offending channel.
        dst: FilterId,
    },
    /// The requested node set is empty.
    EmptyNodeSet,
    /// An application generator was asked for a size parameter it does not
    /// support.
    UnsupportedSize {
        /// Display name of the application.
        app: &'static str,
        /// The rejected size parameter.
        n: u32,
        /// What the application requires of `N`.
        requirement: &'static str,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownFilter(id) => write!(f, "unknown filter id {}", id.index()),
            GraphError::SelfLoop(id) => {
                write!(f, "channel connects filter {} to itself", id.index())
            }
            GraphError::CyclicGraph => write!(f, "stream graph contains a non-feedback cycle"),
            GraphError::InconsistentRates { src, dst } => write!(
                f,
                "balance equations are inconsistent on channel {} -> {}",
                src.index(),
                dst.index()
            ),
            GraphError::Disconnected(id) => {
                write!(f, "filter {} is not connected to the graph", id.index())
            }
            GraphError::EmptySplitJoin => write!(f, "split-join declared with no branches"),
            GraphError::EmptyPipeline => write!(f, "pipeline declared with no stages"),
            GraphError::WeightMismatch { branches, weights } => write!(
                f,
                "round-robin weights ({weights}) do not match branch count ({branches})"
            ),
            GraphError::ZeroRate { src, dst } => write!(
                f,
                "channel {} -> {} has a zero production or consumption rate",
                src.index(),
                dst.index()
            ),
            GraphError::EmptyNodeSet => write!(f, "node set is empty"),
            GraphError::UnsupportedSize {
                app,
                n,
                requirement,
            } => write!(f, "{app}: N must be {requirement}, got {n}"),
        }
    }
}

impl std::error::Error for GraphError {}
