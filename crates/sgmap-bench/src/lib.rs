//! Shared infrastructure for the experiment harness.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation (see `DESIGN.md` for the index). This library holds the pieces
//! they share: the configuration "stacks" being compared, a cached runner
//! that partitions each `(application, N)` once and reuses the result for
//! every GPU count, and small statistics helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

use sgmap_apps::App;
use sgmap_codegen::{build_execution_plan, PlanOptions};
use sgmap_gpusim::{simulate_plan, GpuSpec, Platform, TransferMode};
use sgmap_graph::StreamGraph;
use sgmap_mapping::{map_with, MappingMethod, MappingOptions};
use sgmap_partition::{build_pdg, PartitionRequest, PartitionerKind, Partitioning};
use sgmap_pee::Estimator;

/// Which end of the comparison a run belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// This paper: proposed partitioner + communication-aware ILP mapping +
    /// peer-to-peer transfers.
    Ours,
    /// The prior work [7]: SM-only partitioner + hardware-agnostic mapping +
    /// transfers staged through the host.
    Previous,
    /// Single-partition single-GPU mapping (the SOSP reference).
    Spsg,
}

impl Stack {
    fn partitioner(self) -> PartitionerKind {
        match self {
            Stack::Ours => PartitionerKind::Proposed,
            Stack::Previous => PartitionerKind::Baseline,
            Stack::Spsg => PartitionerKind::Single,
        }
    }

    fn mapper(self) -> MappingMethod {
        match self {
            Stack::Ours => MappingMethod::Ilp,
            Stack::Previous => MappingMethod::RoundRobin,
            Stack::Spsg => MappingMethod::Greedy,
        }
    }

    fn transfer_mode(self) -> TransferMode {
        match self {
            Stack::Ours | Stack::Spsg => TransferMode::PeerToPeer,
            Stack::Previous => TransferMode::ViaHost,
        }
    }
}

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Number of partitions the graph was compiled into.
    pub partitions: usize,
    /// GPUs actually used by the mapping.
    pub gpus_used: usize,
    /// Average time per steady-state iteration, microseconds.
    pub time_per_iteration_us: f64,
}

/// Runs one `(application graph, stack, GPU count)` configuration, optionally
/// with the Chapter V enhancement, and returns the measured throughput.
///
/// # Panics
///
/// Panics if the graph cannot be partitioned or mapped — the benchmark
/// applications are all known to succeed.
pub fn run_config(
    graph: &StreamGraph,
    gpu: &GpuSpec,
    gpus: usize,
    stack: Stack,
    enhanced: bool,
) -> RunResult {
    let platform = Platform::homogeneous(gpu.clone(), gpus);
    let estimator = Estimator::new(graph, gpu.clone())
        .expect("benchmark graphs have consistent rates")
        .with_enhancement(enhanced);
    let partitioning = PartitionRequest::new(&estimator)
        .with_kind(stack.partitioner())
        .run()
        .expect("partitioning succeeds");
    run_mapped(graph, &estimator, &partitioning, &platform, stack)
}

/// Maps an existing partitioning onto the platform and measures it. Splitting
/// this from [`run_config`] lets the sweeps partition once per `(app, N)` and
/// reuse the result for every GPU count, exactly as the paper does.
pub fn run_mapped(
    graph: &StreamGraph,
    estimator: &Estimator<'_>,
    partitioning: &Partitioning,
    platform: &Platform,
    stack: Stack,
) -> RunResult {
    let reps = graph.repetition_vector().expect("consistent rates");
    let pdg = build_pdg(graph, &reps, partitioning);
    let mapping_options = MappingOptions {
        time_limit: Duration::from_secs(3),
        max_nodes: 300,
        comm_aware: true,
        relative_gap: 0.0,
    };
    let mapping =
        map_with(&pdg, platform, stack.mapper(), &mapping_options).expect("mapping succeeds");
    let plan_options = PlanOptions {
        transfer_mode: stack.transfer_mode(),
        ..PlanOptions::default()
    };
    let (plan, _kernels) = build_execution_plan(
        estimator,
        partitioning,
        &pdg,
        &mapping,
        platform,
        &plan_options,
    );
    let stats = simulate_plan(&plan, platform);
    let iterations = u64::from(plan.n_fragments) * plan_options.iterations_per_fragment;
    RunResult {
        partitions: partitioning.len(),
        gpus_used: mapping.gpus_used(),
        time_per_iteration_us: stats.makespan_us / iterations as f64,
    }
}

/// Builds the estimator + partitioning for an `(app, N, stack)` triple.
///
/// # Panics
///
/// Panics if the application graph cannot be built or partitioned.
pub fn partition_app<'g>(
    graph: &'g StreamGraph,
    gpu: &GpuSpec,
    stack: Stack,
    enhanced: bool,
) -> (Estimator<'g>, Partitioning) {
    let estimator = Estimator::new(graph, gpu.clone())
        .expect("benchmark graphs have consistent rates")
        .with_enhancement(enhanced);
    let partitioning = PartitionRequest::new(&estimator)
        .with_kind(stack.partitioner())
        .run()
        .expect("partitioning succeeds");
    (estimator, partitioning)
}

/// Returns the N sweep to use: the paper's full sweep with `--full`, a
/// representative subset otherwise.
pub fn sweep(app: App, full: bool) -> Vec<u32> {
    if full {
        app.paper_n_values()
    } else {
        app.quick_n_values()
    }
}

/// Prints every failed point of a sweep report (with the captured cause) and
/// exits non-zero if there was any. The figure binaries call this right after
/// `run_sweep` so a failing grid point surfaces its real error instead of a
/// later `expect` panic on a missing record.
pub fn exit_on_failed_points(report: &sgmap_sweep::SweepReport) {
    let mut failed = false;
    for r in report.records.iter().filter(|r| !r.is_ok()) {
        failed = true;
        eprintln!(
            "sweep point failed: {} N={} {} G={} [{}{}]: {}",
            r.app.name(),
            r.n,
            r.gpu_model,
            r.gpus,
            r.stack,
            if r.enhanced { ", enhanced" } else { "" },
            r.error.as_deref().unwrap_or("unknown error")
        );
    }
    if failed {
        std::process::exit(1);
    }
}

/// `true` if the harness was invoked with `--full`.
pub fn full_sweep_requested() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Prints the engine-level summary of a sweep — compile-group dedup and
/// estimator-cache counters — to stderr, keeping stdout clean for the
/// figure's table. With a trace collector ambient, the same numbers land in
/// the trace as a `sweep.summary` instant event, so a captured trace is
/// self-describing about the sweep it came from.
pub fn eprintln_sweep_summary(report: &sgmap_sweep::SweepReport) {
    sgmap_trace::instant(
        "sweep.summary",
        vec![
            ("points", (report.records.len() as u64).into()),
            ("compile_groups", report.dedup.compile_groups.into()),
            ("cache_hits", report.cache.hits.into()),
            ("cache_misses", report.cache.misses.into()),
        ],
    );
    eprintln!(
        "sweep '{}': {} points in {} compile groups ({} compiles saved); cache {} hits / {} misses ({:.0}% hit rate)",
        report.spec_name,
        report.records.len(),
        report.dedup.compile_groups,
        report.dedup.compiles_saved(),
        report.cache.hits,
        report.cache.misses,
        report.cache.hit_rate() * 100.0,
    );
}

/// Geometric mean of a slice (1.0 for an empty slice).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean of a slice (0.0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_helpers() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 1.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-9);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn run_config_produces_sane_numbers() {
        let graph = App::FmRadio.build(4).unwrap();
        let gpu = GpuSpec::m2090();
        let ours = run_config(&graph, &gpu, 2, Stack::Ours, false);
        let spsg = run_config(&graph, &gpu, 1, Stack::Spsg, false);
        assert!(ours.time_per_iteration_us > 0.0);
        assert_eq!(spsg.partitions, 1);
        assert!(ours.partitions >= spsg.partitions);
    }
}
