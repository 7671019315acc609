//! Stream graph intermediate representation for `sgmap`.
//!
//! This crate provides the input representation used by the whole mapping
//! flow of the paper *Communication-aware Mapping of Stream Graphs for
//! Multi-GPU Platforms*:
//!
//! * [`Filter`] — an actor with pop/peek/push rates and a work estimate,
//! * [`StreamGraph`] — the flat directed graph of filters and channels,
//! * [`StreamSpec`] / [`GraphBuilder`] — hierarchical StreamIt-style
//!   composition (pipeline, split-join, feedback loop) that flattens into a
//!   [`StreamGraph`],
//! * [`RepetitionVector`] — the SDF steady-state firing rates solved from the
//!   balance equations,
//! * [`NodeSet`] — a sub-graph (candidate partition) with connectivity and
//!   convexity queries, and [`TopoIndex`] — the topological positions those
//!   queries bound their search with,
//! * [`FxHasher`] — the deterministic hasher of the caches keyed by node
//!   sets and estimate keys.
//!
//! The functional interpreter that checks the benchmark graphs compute what
//! they claim to is test support (`tests/support/interp.rs`), included by
//! the unit tests of this crate and of `sgmap-apps`.
//!
//! # Example
//!
//! ```rust
//! use sgmap_graph::{GraphBuilder, StreamSpec, SplitKind, JoinKind};
//!
//! # fn main() -> Result<(), sgmap_graph::GraphError> {
//! // A small split-join sandwiched between two filters.
//! let spec = StreamSpec::pipeline(vec![
//!     StreamSpec::filter("source", 0, 1, 4.0),
//!     StreamSpec::split_join(
//!         SplitKind::Duplicate,
//!         vec![
//!             StreamSpec::filter("left", 1, 1, 8.0),
//!             StreamSpec::filter("right", 1, 1, 8.0),
//!         ],
//!         JoinKind::RoundRobin(vec![1, 1]),
//!     ),
//!     StreamSpec::filter("sink", 2, 0, 1.0),
//! ]);
//! let graph = GraphBuilder::new("example").build(spec)?;
//! assert_eq!(graph.filter_count(), 6); // source, splitter, left, right, joiner, sink
//! let reps = graph.repetition_vector()?;
//! assert!(reps.iter().all(|&r| r >= 1));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algo;
mod builder;
mod error;
mod filter;
mod fxhash;
mod graph;
mod nodeset;
mod rates;

pub use algo::TopoIndex;
pub use builder::{GraphBuilder, StreamSpec};
pub use error::GraphError;
pub use filter::{Filter, FilterId, FilterKind, JoinKind, SplitKind};
pub use fxhash::FxHasher;
pub use graph::{Channel, ChannelId, StreamGraph};
pub use nodeset::NodeSet;
pub use rates::{Rational, RepetitionVector};

// The interpreter names this crate by its external name, as `sgmap-apps`
// does.
#[cfg(test)]
extern crate self as sgmap_graph;
#[cfg(test)]
#[path = "../tests/support/interp.rs"]
mod interp;

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, GraphError>;
