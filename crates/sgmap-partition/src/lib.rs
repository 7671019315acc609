//! Stream graph partitioning (Section 3.1 of the paper).
//!
//! A *partition* is a connected, convex sub-graph of the stream graph that
//! will be compiled into a single GPU kernel. This crate provides:
//!
//! * [`Partition`] / [`Partitioning`] — the result types, each partition
//!   carrying the PEE's [`Estimate`](sgmap_pee::Estimate) for it,
//! * [`PartitionRequest`] — the single entry point: a builder selecting the
//!   partitioner ([`PartitionerKind`]), the proposed partitioner's
//!   [`Algorithm`] (the paper's four-phase search, or the multilevel
//!   coarsen-partition-refine scheme with [`MultilevelOptions`] for 10k+
//!   filter graphs), the candidate-search options
//!   ([`PartitionSearchOptions`] — identical result at any thread count) and
//!   an optional trace collector,
//! * [`partition_baseline`] — the prior work's heuristic, which merges while
//!   the shared-memory requirement is satisfied and ignores time,
//! * [`single_partition`] — the single-partition (SPSG) mapping of the whole
//!   graph, with a global-memory spill fallback for graphs whose working set
//!   exceeds shared memory,
//! * [`Pdg`] — the Partition Dependence Graph (Figure 3.4) consumed by the
//!   multi-GPU mapping step.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adjacency;
mod baseline;
mod error;
mod multilevel;
mod partitioning;
mod pdg;
mod proposed;
mod request;
mod search;
mod spsg;

pub use adjacency::AdjacencyIndex;
pub use baseline::partition_baseline;
pub use error::PartitionError;
pub use multilevel::MultilevelOptions;
pub use partitioning::{Partition, Partitioning};
pub use pdg::{build_pdg, Pdg, PdgEdge};
pub use request::{Algorithm, PartitionRequest};
pub use search::PartitionSearchOptions;
pub use spsg::single_partition;

/// Which partitioning algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionerKind {
    /// The paper's four-phase, performance-model-driven heuristic.
    Proposed,
    /// The prior work's SM-requirement-only heuristic.
    Baseline,
    /// A single partition containing the whole graph (SPSG).
    Single,
}
