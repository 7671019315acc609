//! Parallel experiment-sweep engine for the `sgmap` flow.
//!
//! The paper's evaluation is a grid of (application, size `N`, GPU count,
//! mapper, partitioner, transfer mode) runs. This crate turns that grid into
//! a first-class object:
//!
//! * [`SweepSpec`] — a declarative description of the grid: per-application
//!   `N` axes, named platforms (reference boxes, NVLink islands, clusters,
//!   mixed-model boxes — or the legacy GPU-model × count product), correlated
//!   partitioner/mapper/transfer "stacks", each optionally pinned to a subset
//!   of the GPU counts,
//! * [`SweepSpec::expand`] — deterministic expansion into an indexed work
//!   list of [`SweepPoint`]s,
//! * [`run_sweep`] — execution on a scoped worker pool. Points are grouped
//!   by compile key (app, N, estimation device, stack, enhancement); each
//!   group builds its graph and runs the partition search exactly once and
//!   fans the result out to every platform, while all groups share one
//!   thread-safe [`EstimateCache`](sgmap_pee::EstimateCache) and the
//!   partition search inside each compile runs on the same worker-thread
//!   budget,
//! * [`SweepReport`] — per-point [`SweepRecord`]s (throughput, bottleneck
//!   kind, speedup over the 1-GPU baseline) plus cache and compile-dedup
//!   statistics, rendered as stable JSON,
//! * [`check_report`] — the pure-Rust report validator behind
//!   `sweep --check`, used verbatim by CI.
//!
//! Reports are deterministic by construction: points are reassembled in
//! work-list order, the ILP budget counts nodes rather than time, and the
//! single-flight cache makes even the hit/miss counters independent of
//! thread scheduling. Running the same spec with 1 or N worker threads
//! therefore renders byte-identical
//! [`SweepReport::canonical_json`].
//!
//! ```rust
//! use sgmap_sweep::{run_sweep, AppSweep, GpuModel, StackConfig, SweepSpec};
//! use sgmap_apps::App;
//!
//! let spec = SweepSpec::new(
//!     "doc",
//!     vec![AppSweep::explicit(App::FmRadio, vec![4])],
//!     vec![GpuModel::M2090],
//!     vec![1, 2],
//!     vec![StackConfig::ours()],
//! );
//! let report = run_sweep(&spec, 2).unwrap();
//! assert_eq!(report.records.len(), 2);
//! assert!(report.records.iter().all(|r| r.is_ok()));
//! ```
//!
//! The `sweep` binary exposes the named presets on the command line; see the
//! repository README's "Running sweeps" section.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache_io;
mod check;
mod platform_json;
mod report;
mod runner;
mod spec;
mod spec_json;

pub use cache_io::{
    cache_from_json, cache_to_json, load_cache_file, load_cache_file_if_exists, save_cache_file,
    CACHE_FORMAT_VERSION,
};
pub use check::{
    check_bench_report, check_report, check_trace, compare_nonfaulted, BenchCheckSummary,
    CheckError, CheckSummary, CompareSummary, TraceCheckSummary,
};
pub use platform_json::{
    platform_spec_from_json, platform_spec_from_value, platform_spec_to_json,
    platform_spec_to_value,
};
pub use report::{Bottleneck, DedupStats, StabilityReport, SweepRecord, SweepReport};
pub use runner::{default_threads, run_sweep, run_sweep_with_cache};
pub use sgmap_trace::json::Value as JsonValue;
pub use spec::{
    mapper_name, partitioner_name, transfer_name, AppSweep, GpuModel, StackConfig, SweepError,
    SweepPoint, SweepSpec,
};
pub use spec_json::{
    sweep_spec_from_json, sweep_spec_from_value, sweep_spec_to_json, sweep_spec_to_value,
};
