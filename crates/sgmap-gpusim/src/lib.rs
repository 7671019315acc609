//! Multi-GPU platform substrate for the `sgmap` mapping flow.
//!
//! The paper evaluates its mapping technique on a Xeon workstation with four
//! Nvidia M2090 GPUs. This crate replaces that hardware with a simulator that
//! reproduces the *timing mechanisms* the mapping algorithms care about:
//!
//! * [`GpuSpec`] / [`Platform`] — device models (C2070 and M2090 presets) and
//!   multi-GPU platforms with one spec per leaf (mixed-model boxes included),
//! * [`PlatformSpec`] — the declarative, named platform description that
//!   configs and sweep grids carry ([`PlatformSpec::build`] produces the
//!   concrete [`Platform`]),
//! * [`Topology`] — the interconnect tree with per-link bandwidth, latency
//!   and [`LinkClass`] (NVLink / PCIe / network), preset shapes from the
//!   paper's Figure 3.3 switch tree to NVLink-island boxes and two-node
//!   clusters, plus routing and the `dtlist(l)` rule used by the ILP
//!   formulation (both precomputed at build time),
//! * [`sm_layout`] — shared-memory requirement of a partition via a
//!   buffer-lifetime scan (Figure 3.2), including the splitter/joiner
//!   elimination variant of Chapter V,
//! * [`profile`] — per-filter execution times obtained by "running" each
//!   filter with a single thread (Section 3.3.1),
//! * [`KernelSpec`] and [`simulate_kernel`] — cycle-approximate execution of
//!   a one-kernel-per-partition CUDA kernel with compute warps, data-transfer
//!   warps, double buffering and shared-memory bank conflicts,
//! * [`ExecutionPlan`] / [`simulate_plan`] — a discrete-event simulation of
//!   pipelined multi-GPU execution over N input fragments (Figure 3.5).
//!
//! Times are microseconds, sizes are bytes throughout.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod kernel;
mod kernel_sim;
mod pipeline;
mod platform;
pub mod profile;
pub mod sm_layout;
mod topology;

pub use device::GpuSpec;
pub use kernel::{KernelFilter, KernelParams, KernelSpec};
pub use kernel_sim::{simulate_kernel, KernelMeasurement};
pub use pipeline::{
    simulate_plan, ExecStats, ExecutionPlan, PlannedKernel, PlannedTransfer, TransferMode,
};
pub use platform::{InterconnectSpec, Platform, PlatformSpec};
pub use topology::{
    Endpoint, LinkClass, LinkId, Topology, TopologyBuilder, TopologyError,
    DEFAULT_LINK_BANDWIDTH_GBS, DEFAULT_LINK_LATENCY_US,
};
