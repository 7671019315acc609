//! Degradation-aware remapping after a device loss.
//!
//! When a GPU is lost, recompiling the application from scratch is the gold
//! standard but wastes everything the original solve already learned. [`repair_mapping`]
//! instead patches the existing mapping in two bounded steps:
//!
//! 1. **Greedy patch** — only the lost device's partitions move; each is
//!    placed (longest first) onto the least-loaded survivor, so the
//!    assignments that were fine stay untouched and the patch costs
//!    microseconds.
//! 2. **Warm-started ILP polish** — the restricted ILP (assignment columns
//!    only for the survivors) re-solves under a deliberately tight budget,
//!    warm-started from the patch. The solver's incumbent guard means the
//!    polish can only improve on the patch, never lose to it. The solve
//!    gets the survivors' compute floor (the best balance their partition
//!    times admit) as its objective bound, so a patch that already meets it
//!    is proven optimal before any LP, and the polish searches nothing.
//!
//! The result is a valid mapping that never places anything on the lost
//! device, together with [`RepairStats`] describing how much moved and what
//! the repaired objective looks like — the caller compares it against a full
//! recompile (see the `repair` section of BENCH.json).

use sgmap_gpusim::Platform;
use sgmap_ilp::IlpError;
use sgmap_partition::Pdg;

use crate::evaluate::evaluate_assignment;
use crate::floor::makespan_floor;
use crate::greedy::map_greedy_on;
use crate::ilp::map_ilp_on;
use crate::{Mapping, MappingMethod, MappingOptions, SolveStats};

/// Budget of the ILP polish: much tighter than the interactive mapping
/// budget, because repair exists to be fast and the warm start already
/// guarantees the result is at least as good as the greedy patch. Repair
/// trades the last few percent of proven optimality for speed.
const POLISH_BUDGET: MappingOptions = MappingOptions {
    max_nodes: 24,
    relative_gap: 0.05,
};

/// What a repair did and what it cost, relative to the mapping it patched.
/// Wall-clock comparisons against a full recompile are the caller's job
/// (they depend on the whole compile pipeline, not just the mapper).
#[derive(Debug, Clone)]
pub struct RepairStats {
    /// The device whose partitions were evacuated.
    pub lost_gpu: usize,
    /// How many partitions had to move off the lost device.
    pub moved_partitions: usize,
    /// Objective of the original (pre-loss) mapping, microseconds.
    pub baseline_tmax_us: f64,
    /// Objective right after the greedy patch, microseconds.
    pub patch_tmax_us: f64,
    /// Objective of the returned mapping, microseconds.
    pub repaired_tmax_us: f64,
    /// Whether the ILP polish searched: whether its solve explored at least
    /// one branch-and-bound node. It does whenever the PDG is non-empty, at
    /// least two GPUs survive and the patch does not already meet the
    /// survivors' compute floor; with a single survivor the patch is already
    /// the only possible mapping, and a patch at the floor is proven optimal
    /// before any LP.
    pub polished: bool,
    /// Solver counters of the polish step: all zero when no model was
    /// solved (a single survivor or an empty PDG), and only the model's
    /// `rows` and `cols` when the patch met the floor.
    pub ilp_stats: SolveStats,
}

/// Remaps the lost device's partitions onto the surviving GPUs: the greedy
/// patch, then the ILP polish under a fixed budget (24 nodes, 5 % relative
/// gap), which proves a patch at the survivors' compute floor optimal
/// without searching.
///
/// The returned mapping assigns every partition to a GPU other than
/// `lost_gpu`, and its objective is never worse than the greedy patch. Costs
/// are evaluated against the *original* platform model (the survivors and
/// their interconnect are assumed healthy).
///
/// # Errors
///
/// Returns an error only if the ILP polish fails in a way that has no
/// fallback (model construction bugs); budget exhaustion and numerical
/// trouble fall back to the greedy patch.
///
/// # Panics
///
/// Panics if `lost_gpu` is out of range, if the platform has no surviving
/// GPU, or if `mapping.assignment` does not match `pdg`.
pub fn repair_mapping(
    pdg: &Pdg,
    platform: &Platform,
    mapping: &Mapping,
    lost_gpu: usize,
) -> Result<(Mapping, RepairStats), IlpError> {
    let g = platform.gpu_count();
    assert!(
        lost_gpu < g,
        "lost GPU {lost_gpu} out of range for {g} GPUs"
    );
    assert!(g > 1, "cannot repair a single-GPU platform");
    assert_eq!(
        mapping.assignment.len(),
        pdg.len(),
        "mapping does not match the PDG"
    );
    let survivors: Vec<usize> = (0..g).filter(|&j| j != lost_gpu).collect();

    let mut span = sgmap_trace::span("map.repair");
    span.arg("lost_gpu", lost_gpu);
    let moved_partitions = mapping
        .assignment
        .iter()
        .filter(|&&j| j == lost_gpu)
        .count();
    sgmap_trace::add("map.repairs", 1);
    sgmap_trace::add("map.repair_moved_partitions", moved_partitions as u64);

    // Greedy patch: keep every healthy assignment, move only the evacuated
    // partitions (longest first) onto the least-loaded survivor.
    let mut assignment = mapping.assignment.clone();
    let mut load = vec![0.0f64; survivors.len()];
    for (i, &j) in assignment.iter().enumerate() {
        if let Some(pos) = survivors.iter().position(|&s| s == j) {
            load[pos] += pdg.times_us[i] * platform.time_factor(j);
        }
    }
    let mut evacuated: Vec<usize> = (0..pdg.len())
        .filter(|&i| assignment[i] == lost_gpu)
        .collect();
    evacuated.sort_by(|&a, &b| pdg.times_us[b].total_cmp(&pdg.times_us[a]));
    for &i in &evacuated {
        let pos = (0..survivors.len())
            .min_by(|&a, &b| load[a].total_cmp(&load[b]))
            .expect("at least one survivor");
        assignment[i] = survivors[pos];
        load[pos] += pdg.times_us[i] * platform.time_factor(survivors[pos]);
    }
    let patch_cost = evaluate_assignment(pdg, platform, &assignment);
    let patch = Mapping {
        assignment,
        predicted_tmax_us: patch_cost.tmax_us,
        per_gpu_time_us: patch_cost.per_gpu_time_us,
        per_link_time_us: patch_cost.per_link_time_us,
        method: MappingMethod::Greedy,
        optimal: false,
        ilp_stats: SolveStats::default(),
    };
    let patch_tmax_us = patch.predicted_tmax_us;

    // ILP polish over the survivors, warm-started from the patch. The
    // incumbent guard inside the restricted solve keeps the patch whenever
    // the budget-limited search cannot beat it, and the compute floor proves
    // a patch that meets it optimal before any LP.
    let repaired = if !pdg.is_empty() && survivors.len() > 1 {
        let floor = makespan_floor(&pdg.times_us, platform, &survivors);
        map_ilp_on(pdg, platform, &POLISH_BUDGET, &survivors, patch, floor)?
    } else {
        patch
    };

    let stats = RepairStats {
        lost_gpu,
        moved_partitions,
        baseline_tmax_us: mapping.predicted_tmax_us,
        patch_tmax_us,
        repaired_tmax_us: repaired.predicted_tmax_us,
        polished: repaired.ilp_stats.nodes > 0,
        ilp_stats: repaired.ilp_stats,
    };
    span.arg("moved", moved_partitions);
    Ok((repaired, stats))
}

/// The full-recompile comparison point for a repair: maps from scratch onto
/// the survivors with the *standard* (untightened) ILP budget, exactly what
/// a recompile of the application for the degraded platform would do in the
/// mapping stage.
///
/// # Errors
///
/// Propagates solver errors like [`crate::map_ilp`].
pub fn map_on_survivors(
    pdg: &Pdg,
    platform: &Platform,
    lost_gpu: usize,
    options: &MappingOptions,
) -> Result<Mapping, IlpError> {
    let g = platform.gpu_count();
    assert!(
        lost_gpu < g,
        "lost GPU {lost_gpu} out of range for {g} GPUs"
    );
    assert!(g > 1, "no survivors on a single-GPU platform");
    let survivors: Vec<usize> = (0..g).filter(|&j| j != lost_gpu).collect();
    let incumbent = map_greedy_on(pdg, platform, &survivors);
    let floor = makespan_floor(&pdg.times_us, platform, &survivors);
    map_ilp_on(pdg, platform, options, &survivors, incumbent, floor)
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn repair_evacuates_the_lost_device() {
        let pdg = chain_pdg(&[40.0, 35.0, 30.0, 25.0, 20.0, 15.0, 10.0, 5.0], 256);
        let platform = Platform::quad_m2090();
        let original = crate::map_greedy(&pdg, &platform);
        for lost in 0..platform.gpu_count() {
            let (repaired, stats) = repair_mapping(&pdg, &platform, &original, lost).unwrap();
            assert!(repaired.assignment.iter().all(|&j| j != lost));
            assert_eq!(repaired.assignment.len(), pdg.len());
            assert_eq!(stats.lost_gpu, lost);
            assert_eq!(
                stats.moved_partitions,
                original.assignment.iter().filter(|&&j| j == lost).count()
            );
            // The polish never loses to the patch.
            assert!(stats.repaired_tmax_us <= stats.patch_tmax_us + 1e-9);
            // And the reported objective matches the shared cost model.
            let cost = evaluate_assignment(&pdg, &platform, &repaired.assignment);
            assert!((cost.tmax_us - repaired.predicted_tmax_us).abs() < 1e-9);
        }
    }

    #[test]
    fn repair_never_beats_the_full_recompile() {
        let pdg = chain_pdg(&[40.0, 35.0, 30.0, 25.0, 20.0, 15.0, 10.0, 5.0], 256);
        let platform = Platform::quad_m2090();
        let original = crate::map_greedy(&pdg, &platform);
        for lost in 0..platform.gpu_count() {
            let (repaired, _) = repair_mapping(&pdg, &platform, &original, lost).unwrap();
            let full = map_on_survivors(&pdg, &platform, lost, &MappingOptions::default()).unwrap();
            assert!(full.assignment.iter().all(|&j| j != lost));
            assert!(
                repaired.predicted_tmax_us >= full.predicted_tmax_us - 1e-9,
                "repair ({}) beat the full recompile ({}) for lost GPU {lost}",
                repaired.predicted_tmax_us,
                full.predicted_tmax_us
            );
        }
    }

    #[test]
    fn a_single_survivor_gets_the_unpolished_patch() {
        let pdg = chain_pdg(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0], 64);
        let platform = Platform::quad_m2090().with_gpu_count(2);
        let original = crate::map_greedy(&pdg, &platform);
        assert_eq!(original.gpus_used(), 2);
        for lost in 0..2 {
            let (repaired, stats) = repair_mapping(&pdg, &platform, &original, lost).unwrap();
            assert!(!stats.polished);
            assert_eq!(stats.repaired_tmax_us, stats.patch_tmax_us);
            assert!(repaired.assignment.iter().all(|&j| j == 1 - lost));
        }
    }

    #[test]
    fn a_patch_at_the_compute_floor_skips_the_polish() {
        // Six equal partitions on four GPUs: whichever device is lost, the
        // patch leaves two on each survivor, the best balance there is.
        let pdg = chain_pdg(&[10.0; 6], 64);
        let platform = Platform::quad_m2090();
        let original = crate::map_greedy(&pdg, &platform);
        for lost in 0..platform.gpu_count() {
            let (repaired, stats) = repair_mapping(&pdg, &platform, &original, lost).unwrap();
            assert!(!stats.polished, "lost {lost}");
            assert!(repaired.optimal, "lost {lost}");
            assert_eq!(repaired.method, MappingMethod::Ilp);
            assert_eq!(stats.repaired_tmax_us, stats.patch_tmax_us);
            let ilp = &stats.ilp_stats;
            assert_eq!((ilp.nodes, ilp.lp_iterations), (0, 0), "lost {lost}");
            assert!(ilp.rows > 0 && ilp.cols > 0, "lost {lost}");
            assert!(repaired.assignment.iter().all(|&j| j != lost));
        }
    }

    #[test]
    fn repairing_an_unused_device_moves_nothing() {
        // Everything fits on one GPU for tiny workloads with huge edges.
        let pdg = chain_pdg(&[1.0, 1.0, 1.0], 1 << 20);
        let platform = Platform::quad_m2090();
        let original = crate::map_greedy(&pdg, &platform);
        assert_eq!(original.gpus_used(), 1);
        let used = original.assignment[0];
        let lost = (used + 1) % platform.gpu_count();
        let (repaired, stats) = repair_mapping(&pdg, &platform, &original, lost).unwrap();
        assert_eq!(stats.moved_partitions, 0);
        assert!(repaired.assignment.iter().all(|&j| j != lost));
    }
}
