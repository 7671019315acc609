//! GPU code generation for the simulated platform.
//!
//! The real system emits CUDA; this reproduction emits the two artefacts the
//! simulator consumes, plus human-readable pseudo-CUDA for inspection:
//!
//! * [`generate_kernel`] turns a partition into a
//!   [`KernelSpec`](sgmap_gpusim::KernelSpec) using the parameters the PEE
//!   selected (the "minimal static discrepancy" requirement of Section 3.3:
//!   the generated kernel uses exactly the `W`, `S`, `F` the estimator
//!   assumed),
//! * [`build_execution_plan`] lays the mapped partitions out as the
//!   N-fragment pipelined schedule of Figure 3.5, with peer-to-peer or
//!   host-staged transfers for every partition boundary that crosses GPUs,
//! * [`emit_pseudo_cuda`] renders a kernel as pseudo-CUDA source text.
//!
//! The splitter/joiner elimination of Chapter V is applied through the
//! estimator's `enhanced` flag: when it is on, splitters and joiners
//! contribute neither compute threads nor shared-memory buffers to the
//! generated kernels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod emit;
mod kernel;
mod plan;

pub use emit::emit_pseudo_cuda;
pub use kernel::generate_kernel;
pub use plan::{build_execution_plan, PlanOptions};
