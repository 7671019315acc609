//! Heuristic mappers: LPT + local search, and the hardware-agnostic
//! round-robin baseline.

use sgmap_gpusim::Platform;
use sgmap_partition::Pdg;

use crate::evaluate::evaluate_assignment;
use crate::{Mapping, MappingMethod};

/// Longest-processing-time list scheduling on the GPU workloads, followed by
/// a steepest-descent local search that also sees the communication cost.
///
/// The result is used both as a stand-alone mapper and as the warm start /
/// fallback incumbent of the ILP mapper. Runs under a `map.greedy` span.
pub fn map_greedy(pdg: &Pdg, platform: &Platform) -> Mapping {
    let allowed: Vec<usize> = (0..platform.gpu_count()).collect();
    map_greedy_on(pdg, platform, &allowed)
}

/// [`map_greedy`] restricted to a subset of the platform's GPUs: LPT and the
/// local search only ever place partitions on GPUs in `allowed`. With all
/// GPUs allowed this is exactly `map_greedy`; the repair path uses it to map
/// onto the survivors of a lost device.
pub(crate) fn map_greedy_on(pdg: &Pdg, platform: &Platform, allowed: &[usize]) -> Mapping {
    assert!(!allowed.is_empty(), "no GPUs to map onto");
    let _span = sgmap_trace::span("map.greedy");
    let p = pdg.len();

    // LPT: place partitions in decreasing workload order onto the least
    // loaded GPU, charging each GPU its device-scaled execution time.
    let mut order: Vec<usize> = (0..p).collect();
    order.sort_by(|&a, &b| pdg.times_us[b].total_cmp(&pdg.times_us[a]));
    let mut assignment = vec![allowed[0]; p];
    let mut load = vec![0.0f64; allowed.len()];
    for &i in &order {
        let pos = (0..allowed.len())
            .min_by(|&a, &b| load[a].total_cmp(&load[b]))
            .unwrap_or(0);
        assignment[i] = allowed[pos];
        load[pos] += pdg.times_us[i] * platform.time_factor(allowed[pos]);
    }

    // Local search: move a single partition to another GPU while it improves
    // the full (communication-aware) objective. Ties on the bottleneck time
    // are broken by the total link traffic time, which lets the search peel
    // away pointless cross-GPU cuts one at a time instead of stalling on a
    // plateau where a different link is the bottleneck.
    let secondary =
        |c: &crate::evaluate::MappingCost| -> f64 { c.per_link_time_us.iter().sum::<f64>() };
    let mut cost = evaluate_assignment(pdg, platform, &assignment);
    let mut improved = true;
    let mut rounds = 0;
    while improved && rounds < 50 {
        improved = false;
        rounds += 1;
        for i in 0..p {
            let mut current_gpu = assignment[i];
            for &target in allowed {
                if target == current_gpu {
                    continue;
                }
                assignment[i] = target;
                let candidate = evaluate_assignment(pdg, platform, &assignment);
                let better = candidate.tmax_us < cost.tmax_us - 1e-9
                    || (candidate.tmax_us < cost.tmax_us + 1e-9
                        && secondary(&candidate) < secondary(&cost) - 1e-9);
                if better {
                    cost = candidate;
                    improved = true;
                    current_gpu = target;
                } else {
                    assignment[i] = current_gpu;
                }
            }
        }
    }

    Mapping {
        predicted_tmax_us: cost.tmax_us,
        per_gpu_time_us: cost.per_gpu_time_us,
        per_link_time_us: cost.per_link_time_us,
        assignment,
        method: MappingMethod::Greedy,
        optimal: false,
        ilp_stats: crate::SolveStats::default(),
    }
}

/// The hardware-agnostic mapping in the style of the prior work: partitions
/// are dealt to GPUs in round-robin order of their topological position,
/// without looking at workloads or at the interconnect.
pub fn map_round_robin(pdg: &Pdg, platform: &Platform) -> Mapping {
    let g = platform.gpu_count();
    let order = pdg.topological_order();
    let mut assignment = vec![0usize; pdg.len()];
    for (pos, &i) in order.iter().enumerate() {
        assignment[i] = pos % g;
    }
    let cost = evaluate_assignment(pdg, platform, &assignment);
    Mapping {
        predicted_tmax_us: cost.tmax_us,
        per_gpu_time_us: cost.per_gpu_time_us,
        per_link_time_us: cost.per_link_time_us,
        assignment,
        method: MappingMethod::RoundRobin,
        optimal: false,
        ilp_stats: crate::SolveStats::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgmap_gpusim::GpuSpec;
    use sgmap_partition::PdgEdge;

    fn chain_pdg(times: &[f64], edge_bytes: u64) -> Pdg {
        let n = times.len();
        let edges = (0..n - 1)
            .map(|i| PdgEdge {
                from: i,
                to: i + 1,
                bytes_per_iteration: edge_bytes,
            })
            .collect();
        let mut input = vec![0u64; n];
        let mut output = vec![0u64; n];
        input[0] = 1024;
        output[n - 1] = 1024;
        Pdg {
            times_us: times.to_vec(),
            edges,
            primary_input_bytes: input,
            primary_output_bytes: output,
        }
    }

    #[test]
    fn greedy_balances_workload() {
        let pdg = chain_pdg(&[40.0, 10.0, 10.0, 10.0, 10.0, 10.0], 64);
        let platform = Platform::quad_m2090().with_gpu_count(2);
        let m = map_greedy(&pdg, &platform);
        // Perfect balance is 45/45.
        let max_gpu = m.per_gpu_time_us.iter().cloned().fold(0.0, f64::max);
        assert!(max_gpu <= 50.0 + 1e-9, "load {max_gpu}");
        assert_eq!(m.gpus_used(), 2);
    }

    #[test]
    fn greedy_avoids_pointless_communication_for_tiny_workloads() {
        // Work is negligible compared with the communication latency, so the
        // best mapping keeps everything on one GPU.
        let pdg = chain_pdg(&[1.0, 1.0, 1.0, 1.0], 1 << 20);
        let platform = Platform::quad_m2090();
        let m = map_greedy(&pdg, &platform);
        assert_eq!(m.gpus_used(), 1, "assignment {:?}", m.assignment);
    }

    #[test]
    fn round_robin_spreads_partitions_regardless_of_cost() {
        let pdg = chain_pdg(&[1.0, 1.0, 1.0, 1.0], 1 << 20);
        let platform = Platform::quad_m2090();
        let m = map_round_robin(&pdg, &platform);
        assert_eq!(m.gpus_used(), 4);
        // And therefore pays for it.
        let greedy = map_greedy(&pdg, &platform);
        assert!(m.predicted_tmax_us >= greedy.predicted_tmax_us);
    }

    #[test]
    fn single_gpu_platform_trivially_maps_everything_to_gpu_zero() {
        let pdg = chain_pdg(&[5.0, 6.0, 7.0], 128);
        let platform = Platform::homogeneous(GpuSpec::m2090(), 1);
        let g = map_greedy(&pdg, &platform);
        let r = map_round_robin(&pdg, &platform);
        assert!(g.assignment.iter().all(|&a| a == 0));
        assert!(r.assignment.iter().all(|&a| a == 0));
        assert!((g.predicted_tmax_us - r.predicted_tmax_us).abs() < 1e-9);
    }
}
