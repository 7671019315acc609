//! Property tests for the degradation-aware repair path: on arbitrary
//! chain-shaped PDGs and any single lost device, `repair_mapping` must
//! always return a valid survivor-only mapping whose objective matches the
//! shared cost model, never loses to its own greedy patch, and never beats
//! the full-budget recompile it is meant to approximate.

use proptest::prelude::*;

use sgmap_gpusim::{GpuSpec, Platform};
use sgmap_mapping::{
    evaluate_assignment, map_greedy, map_on_survivors, repair_mapping, MappingOptions,
};
use sgmap_partition::{Pdg, PdgEdge};

/// A chain PDG with per-partition times and per-edge byte volumes drawn
/// from the strategy. Chains are the worst case for evacuation: every moved
/// partition changes exactly two cut edges, so patch and polish disagree
/// often enough to exercise the warm-started ILP.
fn pdg_strategy() -> BoxedStrategy<Pdg> {
    prop::collection::vec((1.0f64..400.0, 0u64..2_000_000), 2..10)
        .prop_map(|stages| {
            let n = stages.len();
            let times: Vec<f64> = stages.iter().map(|&(t, _)| t).collect();
            let edges: Vec<PdgEdge> = (0..n - 1)
                .map(|i| PdgEdge {
                    from: i,
                    to: i + 1,
                    bytes_per_iteration: stages[i].1,
                })
                .collect();
            let mut input = vec![0u64; n];
            let mut output = vec![0u64; n];
            input[0] = 1024;
            output[n - 1] = 1024;
            Pdg {
                times_us: times,
                edges,
                primary_input_bytes: input,
                primary_output_bytes: output,
            }
        })
        .boxed()
}

fn platform_strategy() -> BoxedStrategy<Platform> {
    (2usize..5)
        .prop_map(|g| Platform::homogeneous(GpuSpec::m2090(), g))
        .boxed()
}

/// The exhaustive minimum of the cost model over every assignment of
/// partitions to the surviving GPUs. Exponential, but the strategy caps the
/// PDG at 9 partitions and the platform at 3 survivors (3^9 evaluations).
fn survivor_optimum(pdg: &Pdg, platform: &Platform, lost: usize) -> f64 {
    let survivors: Vec<usize> = (0..platform.gpu_count()).filter(|&j| j != lost).collect();
    let n = pdg.len();
    let mut assignment = vec![survivors[0]; n];
    let mut best = f64::INFINITY;
    let mut counters = vec![0usize; n];
    loop {
        for (slot, &c) in assignment.iter_mut().zip(&counters) {
            *slot = survivors[c];
        }
        let cost = evaluate_assignment(pdg, platform, &assignment);
        if cost.tmax_us < best {
            best = cost.tmax_us;
        }
        let mut i = 0;
        loop {
            if i == n {
                return best;
            }
            counters[i] += 1;
            if counters[i] < survivors.len() {
                break;
            }
            counters[i] = 0;
            i += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Killing any single device and repairing yields a mapping that covers
    /// every partition on the survivors, with an objective the shared cost
    /// model agrees with and that the ILP polish never made worse than the
    /// greedy patch.
    #[test]
    fn repair_is_valid_for_every_lost_device(
        pdg in pdg_strategy(),
        platform in platform_strategy(),
    ) {
        let original = map_greedy(&pdg, &platform);
        let g = platform.gpu_count();
        for lost in 0..g {
            let (repaired, stats) =
                repair_mapping(&pdg, &platform, &original, lost).unwrap();
            prop_assert_eq!(repaired.assignment.len(), pdg.len());
            prop_assert!(repaired.assignment.iter().all(|&j| j != lost && j < g));
            prop_assert_eq!(stats.lost_gpu, lost);
            prop_assert_eq!(
                stats.moved_partitions,
                original.assignment.iter().filter(|&&j| j == lost).count()
            );
            prop_assert!(stats.repaired_tmax_us <= stats.patch_tmax_us + 1e-9);
            let cost = evaluate_assignment(&pdg, &platform, &repaired.assignment);
            prop_assert!((cost.tmax_us - repaired.predicted_tmax_us).abs() < 1e-9);
        }
    }

    /// Neither the tight-budget repair nor the full-budget recompile can
    /// beat the *true* survivor-only optimum (brute-forced — the PDGs are
    /// small enough to enumerate every assignment). The two heuristics may
    /// leapfrog each other when the recompile's node budget runs out, but
    /// the exhaustive optimum is a floor for both.
    #[test]
    fn no_repair_path_beats_the_survivor_optimum(
        pdg in pdg_strategy(),
        platform in platform_strategy(),
        lost_seed in 0usize..4,
    ) {
        let original = map_greedy(&pdg, &platform);
        let lost = lost_seed % platform.gpu_count();
        let (repaired, _) =
            repair_mapping(&pdg, &platform, &original, lost).unwrap();
        let full =
            map_on_survivors(&pdg, &platform, lost, &MappingOptions::default()).unwrap();
        prop_assert!(full.assignment.iter().all(|&j| j != lost));
        let opt = survivor_optimum(&pdg, &platform, lost);
        prop_assert!(
            repaired.predicted_tmax_us >= opt - 1e-9,
            "repair ({}) beat the exhaustive survivor optimum ({}) for lost GPU {}",
            repaired.predicted_tmax_us,
            opt,
            lost
        );
        prop_assert!(
            full.predicted_tmax_us >= opt - 1e-9,
            "recompile ({}) beat the exhaustive survivor optimum ({}) for lost GPU {}",
            full.predicted_tmax_us,
            opt,
            lost
        );
    }
}
