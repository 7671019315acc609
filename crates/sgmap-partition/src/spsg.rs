//! Single-Partition Single-GPU (SPSG) mapping.
//!
//! The SOSP metric of the paper's evaluation (Section 4.0.4) is defined
//! relative to the single-partition mapping of Udupa et al. [10]: the whole
//! stream graph compiled into one kernel and run on one GPU. For graphs whose
//! working set exceeds shared memory, the single kernel must spill its
//! inter-filter buffers to global memory; this module models that spill by
//! charging the internal channel traffic to the kernel's IO volume.

use sgmap_graph::NodeSet;
use sgmap_pee::{select_parameters, Estimate, Estimator};

use crate::partitioning::Partition;

/// Builds the single whole-graph partition, spilling to global memory when
/// shared memory is insufficient.
pub fn single_partition(est: &Estimator<'_>) -> Partition {
    let graph = est.graph();
    let all = NodeSet::all(graph);
    if let Some(e) = est.estimate(&all) {
        return Partition::new(all, e);
    }

    // Spill path: the working set no longer lives in shared memory, so every
    // internal channel's traffic goes through global memory and is charged to
    // the data-transfer threads, while the shared-memory footprint shrinks to
    // the IO staging area alone.
    let reps = est.repetition_vector();
    let mut chars = est.characteristics(&all);
    let internal_bytes: u64 = all
        .internal_channels(graph)
        .into_iter()
        .map(|cid| graph.channel_iteration_bytes(cid, reps))
        .sum();
    chars.io_bytes_per_exec += 2 * internal_bytes; // written once, read once
    chars.sm_bytes_per_exec = chars.io_bytes_per_exec.clamp(256, 4096);

    let gpu = est.gpu();
    let model = est.model();
    let (params, normalized_us) = select_parameters(&chars, model, gpu).unwrap_or_else(|| {
        // Even the staging buffer does not fit: fall back to a minimal,
        // heavily serialised configuration.
        let p = sgmap_gpusim::KernelParams { w: 1, s: 1, f: 32 };
        (p, model.t_exec_us(&chars, p))
    });
    let estimate = Estimate {
        params,
        t_comp_us: model.t_comp_us(&chars, params),
        t_dt_us: model.t_dt_us(&chars, params),
        t_db_us: model.t_db_us(&chars, params),
        t_exec_us: model.t_exec_us(&chars, params),
        normalized_us,
        sm_bytes: chars.kernel_sm_bytes(params.w),
        io_bytes_per_exec: chars.io_bytes_per_exec,
    };
    Partition::new(all, estimate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgmap_apps::App;
    use sgmap_gpusim::GpuSpec;
    use sgmap_pee::Estimator;

    #[test]
    fn small_graphs_fit_without_spilling() {
        let graph = App::Des.build(4).unwrap();
        let est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
        let p = single_partition(&est);
        assert_eq!(p.nodes.len(), graph.filter_count());
        assert!(p.estimate.sm_bytes <= u64::from(est.gpu().shared_mem_bytes));
    }

    #[test]
    fn oversized_graphs_spill_and_get_slower() {
        // A duplicate split of a 16 KiB block into four branches keeps
        // 64 KiB of branch buffers alive at once — more than the 48 KiB of
        // shared memory — so the whole-graph kernel must spill.
        use sgmap_graph::{GraphBuilder, JoinKind, SplitKind, StreamSpec};
        let tokens = 4096u32;
        let spec = StreamSpec::pipeline(vec![
            StreamSpec::filter("src", 0, tokens, 1.0),
            StreamSpec::split_join(
                SplitKind::Duplicate,
                (0..4)
                    .map(|i| StreamSpec::filter(format!("b{i}"), tokens, tokens, 10.0))
                    .collect(),
                JoinKind::RoundRobin(vec![tokens; 4]),
            ),
            StreamSpec::filter("sink", 4 * tokens, 0, 1.0),
        ]);
        let graph = GraphBuilder::new("huge").build(spec).unwrap();
        let est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
        assert!(
            est.estimate(&NodeSet::all(&graph)).is_none(),
            "should not fit"
        );
        let spilled = single_partition(&est);
        // The spilled kernel is IO bound: its DT volume includes the internal
        // traffic.
        assert!(spilled.estimate.io_bytes_per_exec > 8 * 1024);
        assert!(spilled.time_us() > 0.0);

        // A small FFT fits (no spill) and is faster per execution.
        let small_graph = App::Fft.build(64).unwrap();
        let small_est = Estimator::new(&small_graph, GpuSpec::m2090()).unwrap();
        let small = single_partition(&small_est);
        assert!(small.time_us() < spilled.time_us());
    }

    #[test]
    fn spsg_always_covers_every_filter() {
        for (app, n) in [(App::Bitonic, 32), (App::MatMul3, 4), (App::FmRadio, 12)] {
            let graph = app.build(n).unwrap();
            let est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
            let p = single_partition(&est);
            assert_eq!(p.nodes.len(), graph.filter_count(), "{app}");
        }
    }
}
