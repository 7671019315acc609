//! The end-to-end communication-aware mapping flow (Figure 3.1).
//!
//! This crate ties the whole system together: given a stream graph and a
//! platform description, it profiles the filters, partitions the graph, maps
//! the partitions onto the GPUs, generates the kernels and the pipelined
//! execution plan, and finally runs the plan on the platform simulator to
//! obtain the throughput figures the paper's evaluation reports.
//!
//! ```rust
//! use sgmap_core::{compile_and_run, FlowConfig};
//! use sgmap_apps::App;
//!
//! # fn main() -> Result<(), sgmap_core::FlowError> {
//! let graph = App::FmRadio.build(8)?;
//! let report = compile_and_run(&graph, &FlowConfig::default().with_gpu_count(2))?;
//! assert!(report.time_per_iteration_us > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod flow;
mod report;

pub use config::FlowConfig;
pub use flow::{
    compile, compile_and_run, compile_from_stage, execute, partition_graph, CompileResult,
    FlowError, PartitionStage,
};
pub use report::{speedup, RunReport};
pub use sgmap_partition::{Algorithm, MultilevelOptions, PartitionRequest, PartitionSearchOptions};
