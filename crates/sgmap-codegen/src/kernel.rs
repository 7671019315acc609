//! Partition → kernel lowering.

use sgmap_gpusim::{KernelFilter, KernelSpec};
use sgmap_partition::Partition;
use sgmap_pee::Estimator;

/// Lowers a partition into the kernel description the simulator executes.
///
/// The kernel uses the launch parameters stored in the partition's estimate,
/// which are the parameters the PEE's search selected — keeping the generated
/// code and the estimation consistent ("static discrepancy" minimisation).
pub fn generate_kernel(est: &Estimator<'_>, partition: &Partition, name: &str) -> KernelSpec {
    let graph = est.graph();
    let reps = est.repetition_vector();
    let profile = est.profile();
    let mut filters = Vec::with_capacity(partition.nodes.len());
    for id in partition.nodes.iter() {
        if est.enhanced() && graph.filter(id).is_reorder_only() {
            // Chapter V: splitters and joiners are eliminated; consumers
            // re-index into the producer's buffer instead.
            continue;
        }
        filters.push(KernelFilter {
            firing_time_us: profile.time_per_firing_us(id),
            firings: reps[id.index()],
        });
    }
    let chars = est.characteristics(&partition.nodes);
    KernelSpec {
        name: name.to_string(),
        filters,
        io_bytes_per_exec: chars.io_bytes_per_exec,
        sm_bytes_per_exec: chars.sm_bytes_per_exec,
        params: partition.estimate.params,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgmap_apps::App;
    use sgmap_gpusim::GpuSpec;
    use sgmap_partition::single_partition;

    /// The kernel's serial work per execution: its filters' single-thread
    /// times summed.
    fn serial_us(k: &KernelSpec) -> f64 {
        k.filters.iter().map(KernelFilter::iteration_time_us).sum()
    }

    #[test]
    fn kernel_mirrors_the_partition_estimate() {
        let graph = App::Des.build(4).unwrap();
        let est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
        let p = single_partition(&est);
        let k = generate_kernel(&est, &p, "des_all");
        assert_eq!(k.params, p.estimate.params);
        assert_eq!(k.filters.len(), graph.filter_count());
        assert_eq!(k.io_bytes_per_exec, p.estimate.io_bytes_per_exec);
        assert!(serial_us(&k) > 0.0);
    }

    #[test]
    fn enhancement_drops_reorder_filters_from_the_kernel() {
        let graph = App::Bitonic.build(8).unwrap();
        let plain_est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
        let plain = generate_kernel(&plain_est, &single_partition(&plain_est), "plain");
        let enh_est = Estimator::new(&graph, GpuSpec::m2090())
            .unwrap()
            .with_enhancement(true);
        let enhanced = generate_kernel(&enh_est, &single_partition(&enh_est), "enhanced");
        assert!(enhanced.filters.len() < plain.filters.len());
        assert!(serial_us(&enhanced) < serial_us(&plain));
    }
}
