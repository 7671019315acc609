//! Pipelined multi-GPU execution plans (Figure 3.5).

use sgmap_gpusim::{
    simulate_kernel, Endpoint, ExecutionPlan, KernelSpec, PlannedKernel, PlannedTransfer, Platform,
    TransferMode,
};
use sgmap_mapping::Mapping;
use sgmap_partition::{Partitioning, Pdg};
use sgmap_pee::Estimator;

use crate::kernel::generate_kernel;

/// Options controlling plan generation. Kernel times in the plan always come
/// from the cycle-approximate kernel simulation on the device that runs the
/// kernel ("measured"), as in the paper's evaluation.
#[derive(Debug, Clone)]
pub struct PlanOptions {
    /// Number of input fragments pipelined through the graph (`N` in the
    /// paper's Figure 3.5).
    pub n_fragments: u32,
    /// Steady-state iterations batched into one fragment. Kernel launch
    /// overheads and transfer latencies amortise over this batch.
    pub iterations_per_fragment: u64,
    /// How inter-GPU transfers are routed.
    pub transfer_mode: TransferMode,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            n_fragments: 8,
            iterations_per_fragment: 2048,
            transfer_mode: TransferMode::PeerToPeer,
        }
    }
}

/// Builds the pipelined execution plan for a mapped partitioning and returns
/// it together with the generated kernels (in the same order as the plan's
/// kernel list).
///
/// Plan construction runs under a `codegen` span and the emitted kernel /
/// transfer counts are recorded as `codegen.kernels` / `codegen.transfers`
/// counters in the ambient trace collector. The collector is write-only, so
/// the plan is identical with and without it.
///
/// # Panics
///
/// Panics if the mapping's assignment length does not match the partitioning.
pub fn build_execution_plan(
    est: &Estimator<'_>,
    partitioning: &Partitioning,
    pdg: &Pdg,
    mapping: &Mapping,
    platform: &Platform,
    options: &PlanOptions,
) -> (ExecutionPlan, Vec<KernelSpec>) {
    let mut span = sgmap_trace::span("codegen");
    let (plan, kernels) =
        build_execution_plan_inner(est, partitioning, pdg, mapping, platform, options);
    span.arg("kernels", plan.kernels.len());
    span.arg("transfers", plan.transfers.len());
    sgmap_trace::add("codegen.kernels", plan.kernels.len() as u64);
    sgmap_trace::add("codegen.transfers", plan.transfers.len() as u64);
    (plan, kernels)
}

fn build_execution_plan_inner(
    est: &Estimator<'_>,
    partitioning: &Partitioning,
    pdg: &Pdg,
    mapping: &Mapping,
    platform: &Platform,
    options: &PlanOptions,
) -> (ExecutionPlan, Vec<KernelSpec>) {
    assert_eq!(
        mapping.assignment.len(),
        partitioning.len(),
        "mapping does not match partitioning"
    );
    let order = pdg.topological_order();
    // Position of each partition in the plan's kernel list.
    let mut position = vec![0usize; partitioning.len()];
    for (pos, &p) in order.iter().enumerate() {
        position[p] = pos;
    }

    let iters = options.iterations_per_fragment as f64;
    let mut kernels = Vec::with_capacity(order.len());
    let mut specs = Vec::with_capacity(order.len());
    for &p in &order {
        let partition = &partitioning.partitions()[p];
        let name = format!("partition_{p}");
        let spec = generate_kernel(est, partition, &name);
        // Simulate the kernel on the device that will actually run it, so
        // mixed-model platforms get per-device kernel times.
        let device = platform.device(mapping.assignment[p]);
        let measurement = simulate_kernel(&spec, device, p as u64 + 1);
        let per_iteration_us = measurement.time_us / f64::from(spec.params.w.max(1));
        kernels.push(PlannedKernel {
            name,
            gpu: mapping.assignment[p],
            time_per_fragment_us: per_iteration_us * iters,
        });
        specs.push(spec);
    }

    let mut transfers = Vec::new();
    // Primary input from the host into every partition that contains a source.
    for (p, &bytes) in pdg.primary_input_bytes.iter().enumerate() {
        if bytes > 0 {
            transfers.push(PlannedTransfer {
                from: Endpoint::Host,
                to: Endpoint::Gpu(mapping.assignment[p]),
                bytes_per_fragment: bytes * options.iterations_per_fragment,
                after_kernel: None,
                before_kernel: Some(position[p]),
            });
        }
    }
    // Inter-partition traffic. Edges between partitions on the same GPU stay
    // in device memory (the executor charges no link time when source and
    // destination coincide) but are still recorded so the dependency is
    // enforced.
    for e in &pdg.edges {
        let (src, dst) = (mapping.assignment[e.from], mapping.assignment[e.to]);
        transfers.push(PlannedTransfer {
            from: Endpoint::Gpu(src),
            to: Endpoint::Gpu(dst),
            bytes_per_fragment: e.bytes_per_iteration * options.iterations_per_fragment,
            after_kernel: Some(position[e.from]),
            before_kernel: Some(position[e.to]),
        });
    }
    // Primary output back to the host.
    for (p, &bytes) in pdg.primary_output_bytes.iter().enumerate() {
        if bytes > 0 {
            transfers.push(PlannedTransfer {
                from: Endpoint::Gpu(mapping.assignment[p]),
                to: Endpoint::Host,
                bytes_per_fragment: bytes * options.iterations_per_fragment,
                after_kernel: Some(position[p]),
                before_kernel: None,
            });
        }
    }

    (
        ExecutionPlan {
            kernels,
            transfers,
            n_fragments: options.n_fragments,
            transfer_mode: options.transfer_mode,
        },
        specs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgmap_apps::App;
    use sgmap_gpusim::{simulate_plan, GpuSpec};
    use sgmap_mapping::{map_greedy, map_round_robin};
    use sgmap_partition::{build_pdg, PartitionRequest};

    fn setup(app: App, n: u32, gpus: usize) -> (sgmap_graph::StreamGraph, Platform) {
        (
            app.build(n).unwrap(),
            Platform::quad_m2090().with_gpu_count(gpus),
        )
    }

    #[test]
    fn plan_respects_topological_dependencies_and_runs() {
        let (graph, platform) = setup(App::Des, 8, 2);
        let est = Estimator::new(&graph, platform.primary_gpu().clone()).unwrap();
        let reps = graph.repetition_vector().unwrap();
        let partitioning = PartitionRequest::new(&est).run().unwrap();
        let pdg = build_pdg(&graph, &reps, &partitioning);
        let mapping = map_greedy(&pdg, &platform);
        let (plan, specs) = build_execution_plan(
            &est,
            &partitioning,
            &pdg,
            &mapping,
            &platform,
            &PlanOptions::default(),
        );
        assert_eq!(plan.kernels.len(), partitioning.len());
        assert_eq!(specs.len(), partitioning.len());
        // Every transfer's producer precedes its consumer in the kernel list.
        for t in &plan.transfers {
            if let (Some(a), Some(b)) = (t.after_kernel, t.before_kernel) {
                assert!(a < b, "transfer violates plan order: {a} -> {b}");
            }
        }
        let stats = simulate_plan(&plan, &platform);
        assert!(stats.makespan_us > 0.0);
        assert_eq!(stats.n_fragments, plan.n_fragments);
    }

    #[test]
    fn balanced_mappings_beat_round_robin_on_the_simulator() {
        let (graph, platform) = setup(App::Dct, 10, 4);
        let est = Estimator::new(&graph, platform.primary_gpu().clone()).unwrap();
        let reps = graph.repetition_vector().unwrap();
        let partitioning = PartitionRequest::new(&est).run().unwrap();
        let pdg = build_pdg(&graph, &reps, &partitioning);
        let good = map_greedy(&pdg, &platform);
        let naive = map_round_robin(&pdg, &platform);
        let opts = PlanOptions::default();
        let (gp, _) = build_execution_plan(&est, &partitioning, &pdg, &good, &platform, &opts);
        let (np, _) = build_execution_plan(&est, &partitioning, &pdg, &naive, &platform, &opts);
        let g_stats = simulate_plan(&gp, &platform);
        let n_stats = simulate_plan(&np, &platform);
        assert!(
            g_stats.makespan_us <= n_stats.makespan_us * 1.05,
            "greedy {} vs round-robin {}",
            g_stats.makespan_us,
            n_stats.makespan_us
        );
    }

    #[test]
    fn estimated_and_measured_plans_are_close() {
        let (graph, platform) = setup(App::FmRadio, 8, 1);
        let est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
        let reps = graph.repetition_vector().unwrap();
        let partitioning = PartitionRequest::new(&est).run().unwrap();
        let pdg = build_pdg(&graph, &reps, &partitioning);
        let mapping = map_greedy(&pdg, &platform);
        let opts = PlanOptions::default();
        let (measured, _) =
            build_execution_plan(&est, &partitioning, &pdg, &mapping, &platform, &opts);
        // The same plan with every kernel charged its PEE estimate instead
        // of its simulated time (kernels are listed in topological order).
        let mut estimated = measured.clone();
        for (kernel, p) in estimated.kernels.iter_mut().zip(pdg.topological_order()) {
            kernel.time_per_fragment_us = partitioning.partitions()[p].estimate.normalized_us
                * opts.iterations_per_fragment as f64;
        }
        let m = simulate_plan(&measured, &platform).makespan_us;
        let e = simulate_plan(&estimated, &platform).makespan_us;
        let ratio = m / e;
        assert!(ratio > 0.5 && ratio < 2.0, "measured/estimated = {ratio}");
    }
}
