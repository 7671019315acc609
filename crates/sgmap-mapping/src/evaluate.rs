//! Cost evaluation of a partition-to-GPU assignment.
//!
//! The cost model matches the ILP formulation exactly: per-GPU time is the
//! sum of the assigned partitions' workloads, per-link communication time is
//! `Lat + D_l / BW` where `D_l` accumulates every inter-partition transfer
//! whose peer-to-peer route crosses the link (plus the primary input/output
//! moving between the host and the partition's GPU), and the objective is the
//! maximum over all GPUs and links.

use sgmap_gpusim::{Endpoint, Platform};
use sgmap_partition::Pdg;

/// The evaluated cost of an assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingCost {
    /// Bottleneck time (maximum over GPUs and links), microseconds.
    pub tmax_us: f64,
    /// Busy time of each GPU, microseconds.
    pub per_gpu_time_us: Vec<f64>,
    /// Communication time of each directed link, microseconds.
    pub per_link_time_us: Vec<f64>,
    /// Bytes carried by each directed link per iteration.
    pub per_link_bytes: Vec<u64>,
}

/// Evaluates `assignment` (partition index → GPU index) on `platform`.
///
/// # Panics
///
/// Panics if the assignment length does not match the PDG or if it references
/// a GPU outside the platform.
pub fn evaluate_assignment(pdg: &Pdg, platform: &Platform, assignment: &[usize]) -> MappingCost {
    assert_eq!(assignment.len(), pdg.len(), "assignment length mismatch");
    let g = platform.gpu_count();
    for &a in assignment {
        assert!(a < g, "assignment references GPU {a} of {g}");
    }
    let topo = &platform.topology;

    // Workloads are estimated on the primary device; heterogeneous siblings
    // stretch or shrink them by the per-device time factor (exactly 1.0 on
    // homogeneous platforms).
    let mut per_gpu_time_us = vec![0.0f64; g];
    for (i, &gpu) in assignment.iter().enumerate() {
        per_gpu_time_us[gpu] += pdg.times_us[i] * platform.time_factor(gpu);
    }

    let mut per_link_bytes = vec![0u64; topo.link_count()];
    // Inter-partition traffic over peer-to-peer routes.
    for e in &pdg.edges {
        let (src, dst) = (assignment[e.from], assignment[e.to]);
        if src == dst {
            continue;
        }
        for link in topo.route(Endpoint::Gpu(src), Endpoint::Gpu(dst)) {
            per_link_bytes[link.index()] += e.bytes_per_iteration;
        }
    }
    // Primary IO between host and the owning GPU.
    for (i, &gpu) in assignment.iter().enumerate() {
        if pdg.primary_input_bytes[i] > 0 {
            for link in topo.route(Endpoint::Host, Endpoint::Gpu(gpu)) {
                per_link_bytes[link.index()] += pdg.primary_input_bytes[i];
            }
        }
        if pdg.primary_output_bytes[i] > 0 {
            for link in topo.route(Endpoint::Gpu(gpu), Endpoint::Host) {
                per_link_bytes[link.index()] += pdg.primary_output_bytes[i];
            }
        }
    }

    // Per-transfer latency is hidden by the N-fragment pipelining (each link
    // pays it once per fragment, amortised over many iterations), so the
    // static objective uses the pure bandwidth term — at each link's own
    // bandwidth; the discrete-event executor still charges the latency
    // explicitly.
    let per_link_time_us: Vec<f64> = topo
        .link_ids()
        .map(|l| per_link_bytes[l.index()] as f64 / topo.link_bytes_per_us(l))
        .collect();

    let tmax_us = per_gpu_time_us
        .iter()
        .chain(per_link_time_us.iter())
        .cloned()
        .fold(0.0, f64::max);

    MappingCost {
        tmax_us,
        per_gpu_time_us,
        per_link_time_us,
        per_link_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgmap_gpusim::GpuSpec;
    use sgmap_partition::PdgEdge;

    fn pdg(times: Vec<f64>, edges: Vec<PdgEdge>) -> Pdg {
        let n = times.len();
        let mut input = vec![0u64; n];
        let mut output = vec![0u64; n];
        input[0] = 64;
        output[n - 1] = 64;
        Pdg {
            times_us: times,
            edges,
            primary_input_bytes: input,
            primary_output_bytes: output,
        }
    }

    #[test]
    fn gpu_times_sum_assigned_partitions() {
        let p = pdg(vec![10.0, 20.0, 30.0], vec![]);
        let platform = Platform::quad_m2090().with_gpu_count(2);
        let cost = evaluate_assignment(&p, &platform, &[0, 1, 0]);
        assert_eq!(cost.per_gpu_time_us, vec![40.0, 20.0]);
        assert!(cost.tmax_us >= 40.0);
    }

    #[test]
    fn cross_gpu_edges_load_their_route() {
        let p = pdg(
            vec![1.0, 1.0],
            vec![PdgEdge {
                from: 0,
                to: 1,
                bytes_per_iteration: 600_000,
            }],
        );
        let platform = Platform::quad_m2090();
        // Same GPU: no link load from the edge (only primary IO).
        let same = evaluate_assignment(&p, &platform, &[2, 2]);
        // Adjacent GPUs under the same switch: 2 hops.
        let near = evaluate_assignment(&p, &platform, &[0, 1]);
        // GPUs under different switches: 4 hops.
        let far = evaluate_assignment(&p, &platform, &[0, 3]);
        let loaded = |c: &MappingCost| c.per_link_bytes.iter().filter(|&&b| b >= 600_000).count();
        assert_eq!(loaded(&same), 0);
        assert_eq!(loaded(&near), 2);
        assert_eq!(loaded(&far), 4);
        assert!(far.tmax_us >= near.tmax_us);
    }

    #[test]
    fn primary_io_is_charged_to_host_routes() {
        let p = pdg(vec![5.0], vec![]);
        let platform = Platform::homogeneous(GpuSpec::m2090(), 1);
        let cost = evaluate_assignment(&p, &platform, &[0]);
        // Host->GPU route has 3 hops in the reference tree truncated to one
        // GPU (host-sw1-sw2-gpu0); input and output load different directions.
        let loaded_links = cost.per_link_bytes.iter().filter(|&&b| b > 0).count();
        assert_eq!(loaded_links, 6);
    }

    #[test]
    #[should_panic(expected = "assignment length mismatch")]
    fn wrong_length_panics() {
        let p = pdg(vec![1.0], vec![]);
        let _ = evaluate_assignment(&p, &Platform::homogeneous(GpuSpec::m2090(), 1), &[0, 0]);
    }
}
