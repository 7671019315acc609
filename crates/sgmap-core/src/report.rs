//! Execution reports and the speedup metrics of the evaluation.

use sgmap_gpusim::ExecStats;
use sgmap_mapping::Mapping;

/// The result of running a compiled stream graph on the platform simulator.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Number of partitions (kernels) the graph was compiled into.
    pub partition_count: usize,
    /// The partition-to-GPU mapping that was executed.
    pub mapping: Mapping,
    /// Raw statistics from the pipelined execution.
    pub stats: ExecStats,
    /// End-to-end makespan in microseconds.
    pub makespan_us: f64,
    /// Average time per steady-state iteration of the stream graph — the
    /// throughput figure all speedups are computed from.
    pub time_per_iteration_us: f64,
}

impl RunReport {
    /// Builds a report from execution statistics.
    pub fn new(
        partition_count: usize,
        mapping: Mapping,
        stats: ExecStats,
        total_iterations: u64,
    ) -> Self {
        let makespan_us = stats.makespan_us;
        let time_per_iteration_us = makespan_us / total_iterations.max(1) as f64;
        RunReport {
            partition_count,
            mapping,
            stats,
            makespan_us,
            time_per_iteration_us,
        }
    }
}

/// Speedup of `new` over `reference` given their per-iteration times.
pub fn speedup(reference_time_us: f64, new_time_us: f64) -> f64 {
    if new_time_us <= 0.0 {
        return 0.0;
    }
    reference_time_us / new_time_us
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgmap_mapping::MappingMethod;

    fn report(time_per_iter: f64) -> RunReport {
        let stats = ExecStats {
            makespan_us: time_per_iter * 100.0,
            per_gpu_busy_us: vec![time_per_iter * 100.0],
            per_link_busy_us: vec![],
            per_link_bytes: vec![],
            kernel_total_us: time_per_iter * 100.0,
            transfer_total_us: 0.0,
            n_fragments: 10,
        };
        let mapping = Mapping {
            assignment: vec![0],
            predicted_tmax_us: time_per_iter,
            per_gpu_time_us: vec![time_per_iter],
            per_link_time_us: vec![],
            method: MappingMethod::Greedy,
            optimal: false,
            ilp_stats: sgmap_mapping::SolveStats::default(),
        };
        RunReport::new(1, mapping, stats, 100)
    }

    #[test]
    fn speedup_is_reference_over_new() {
        let slow = report(10.0);
        let fast = report(2.5);
        let (slow, fast) = (slow.time_per_iteration_us, fast.time_per_iteration_us);
        assert!((speedup(slow, fast) - 4.0).abs() < 1e-9);
        assert!((speedup(fast, slow) - 0.25).abs() < 1e-9);
        assert_eq!(speedup(1.0, 0.0), 0.0);
    }

    #[test]
    fn per_iteration_time_divides_by_iterations() {
        let r = report(7.0);
        assert!((r.time_per_iteration_us - 7.0).abs() < 1e-9);
    }
}
