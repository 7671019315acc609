//! Test oracle of the refinement verdict cache: the full-rescan refinement
//! [`refine_level`] replaced, kept verbatim, with a property test that the
//! cached scan makes the same moves, builds bit-identical parts and leaves
//! every count of accepted work and every estimator miss unchanged.

use std::sync::Arc;

use proptest::prelude::*;
use sgmap_apps::synthetic::{spec, Family};
use sgmap_gpusim::GpuSpec;
use sgmap_graph::{GraphBuilder, StreamGraph};
use sgmap_pee::Estimator;

use super::{coarsen_and_partition, refine_level, MovePlan, MultilevelOptions};
use crate::proposed::{FeasibilityCache, Part};
use crate::search::first_accepted;

/// The full-rescan refinement: every round re-enumerates every cluster's
/// targets from the filter assignment and re-evaluates every candidate up
/// to the first accepted move.
fn refine_level_reference(
    est: &Estimator<'_>,
    graph: &StreamGraph,
    feasible: &FeasibilityCache,
    threads: usize,
    batch: usize,
    clusters: &[Part],
    parts: &mut [Part],
) -> usize {
    // Filter → part position, maintained across moves.
    let mut assignment = vec![usize::MAX; graph.filter_count()];
    for (p, part) in parts.iter().enumerate() {
        for id in part.nodes.iter() {
            assignment[id.index()] = p;
        }
    }
    let mut moves = 0usize;
    let cap = clusters.len().max(16) * 2;
    while moves < cap {
        let parts_ref: &[Part] = parts;
        let assignment_ref: &[usize] = &assignment;
        let candidates = (0..clusters.len()).flat_map(|c| {
            let home = assignment_ref[clusters[c].nodes.as_slice()[0].index()];
            let mut targets: Vec<usize> = clusters[c]
                .nodes
                .iter()
                .flat_map(|id| {
                    let incident = graph.in_channels(id).iter().chain(graph.out_channels(id));
                    incident
                        .map(|&c| graph.channel(c))
                        .filter(|ch| !ch.feedback)
                        .map(move |ch| if ch.src == id { ch.dst } else { ch.src })
                })
                .map(|nb| assignment_ref[nb.index()])
                .filter(|&q| q != home)
                .collect();
            targets.sort_unstable();
            targets.dedup();
            targets.into_iter().map(move |q| (c, home, q))
        });
        let found = first_accepted(threads, batch, candidates, |&(c, p, q)| {
            sgmap_trace::add("partition.candidates_evaluated", 1);
            let remain = parts_ref[p].nodes.difference(&clusters[c].nodes);
            if remain.is_empty() || !feasible.is_mergeable(graph, &remain) {
                return None;
            }
            let union = parts_ref[q].nodes.union(&clusters[c].nodes);
            if !feasible.is_mergeable(graph, &union) {
                return None;
            }
            let (remain_est, remain_chars) = est.estimate_with_chars(&remain);
            let remain_est = remain_est?;
            let (target_est, target_chars) = est.estimate_union(
                &[
                    (&parts_ref[q].nodes, &parts_ref[q].chars),
                    (&clusters[c].nodes, &clusters[c].chars),
                ],
                &union,
            );
            let target_est = target_est?;
            let before = parts_ref[p].estimate.normalized_us + parts_ref[q].estimate.normalized_us;
            let after = remain_est.normalized_us + target_est.normalized_us;
            (after < before).then_some(MovePlan {
                remain: Part {
                    nodes: remain,
                    estimate: remain_est,
                    chars: remain_chars,
                },
                target: Part {
                    nodes: union,
                    estimate: target_est,
                    chars: target_chars,
                },
            })
        });
        match found {
            Some(((c, p, q), plan)) => {
                parts[p] = plan.remain;
                parts[q] = plan.target;
                for id in clusters[c].nodes.iter() {
                    assignment[id.index()] = q;
                }
                sgmap_trace::add("partition.refine_moves", 1);
                moves += 1;
            }
            None => break,
        }
    }
    moves
}

type Refine = fn(
    &Estimator<'_>,
    &StreamGraph,
    &FeasibilityCache,
    usize,
    usize,
    &[Part],
    &mut [Part],
) -> usize;

/// What one multilevel run produced.
struct Run {
    /// The parts after each refined level, coarsest first.
    levels: Vec<Vec<Part>>,
    /// The moves of each refined level, coarsest first.
    moves: Vec<usize>,
    /// The run's own collector.
    trace: Arc<sgmap_trace::Collector>,
}

/// One multilevel run with `refine` at every level, on a fresh estimator and
/// feasibility cache under its own collector; `None` if some filter does not
/// fit in shared memory on its own.
fn run(
    graph: &StreamGraph,
    options: &MultilevelOptions,
    threads: usize,
    batch: usize,
    refine: Refine,
) -> Option<Run> {
    let trace = Arc::new(sgmap_trace::Collector::new());
    let (levels, moves) = sgmap_trace::scope(Some(&trace), || {
        let est = Estimator::new(graph, GpuSpec::m2090()).expect("consistent rates");
        let feasible = FeasibilityCache::new(graph);
        let (levels, mut parts) =
            coarsen_and_partition(&est, &feasible, options, threads, batch).ok()?;
        let mut snapshots = Vec::new();
        let mut moves = Vec::new();
        for clusters in levels.iter().rev() {
            moves.push(refine(
                &est, graph, &feasible, threads, batch, clusters, &mut parts,
            ));
            snapshots.push(parts.clone());
        }
        Some((snapshots, moves))
    })?;
    Some(Run {
        levels,
        moves,
        trace,
    })
}

/// Asserts the cached refinement matches the full rescan level by level,
/// bit for bit, with the same estimator misses and accepted work.
fn assert_matches_reference(
    graph: &StreamGraph,
    options: &MultilevelOptions,
    threads: usize,
    batch: usize,
) -> Result<(), TestCaseError> {
    // Coarsening is shared code: a filter too large for shared memory stops
    // both runs before refinement.
    let Some(cached) = run(graph, options, threads, batch, refine_level) else {
        return Ok(());
    };
    let full =
        run(graph, options, threads, batch, refine_level_reference).expect("same coarsening");
    prop_assert_eq!(&cached.moves, &full.moves);
    for (a_level, b_level) in cached.levels.iter().zip(&full.levels) {
        prop_assert_eq!(a_level.len(), b_level.len());
        for (a, b) in a_level.iter().zip(b_level) {
            prop_assert_eq!(&a.nodes, &b.nodes);
            prop_assert_eq!(a.estimate.params, b.estimate.params);
            prop_assert_eq!(
                a.estimate.normalized_us.to_bits(),
                b.estimate.normalized_us.to_bits()
            );
            prop_assert_eq!(
                a.estimate.t_exec_us.to_bits(),
                b.estimate.t_exec_us.to_bits()
            );
            prop_assert_eq!(a.estimate.sm_bytes, b.estimate.sm_bytes);
            prop_assert_eq!(&*a.chars, &*b.chars);
        }
    }
    for counter in [
        "partition.refine_moves",
        "pee.estimate_misses",
        "pee.chars_merged",
        "partition.feasibility_misses",
    ] {
        prop_assert_eq!(
            cached.trace.counter(counter),
            full.trace.counter(counter),
            "{}",
            counter
        );
    }
    // The cached scan characterises a move's remaining part by subtraction,
    // the full rescan by a walk of the set: the same misses, split between
    // the two paths.
    let walked_or_subtracted = |trace: &sgmap_trace::Collector| {
        trace.counter("pee.chars_from_set") + trace.counter("pee.chars_subtracted")
    };
    prop_assert_eq!(
        walked_or_subtracted(&cached.trace),
        walked_or_subtracted(&full.trace)
    );
    prop_assert_eq!(full.trace.counter("pee.chars_subtracted"), 0);
    prop_assert!(
        cached.trace.counter("partition.candidates_evaluated")
            <= full.trace.counter("partition.candidates_evaluated")
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random synthetic programs of every family (feedback loops included),
    /// random multilevel options, 1 or 4 threads and batches of 1 or 32.
    #[test]
    fn cached_refinement_matches_the_full_rescan(
        family in 0u8..3,
        n in 30u32..300,
        seed in any::<u64>(),
        target in 4usize..40,
        levels in 1usize..6,
        attempts in 1usize..5,
        many_threads in any::<bool>(),
        big_batch in any::<bool>(),
    ) {
        let threads = if many_threads { 4 } else { 1 };
        let batch = if big_batch { 32 } else { 1 };
        let family = [Family::Pipeline, Family::SplitJoin, Family::Mixed][usize::from(family)];
        let graph = GraphBuilder::new("prop")
            .build(spec(family, n, seed))
            .expect("synthetic specs build");
        let options = MultilevelOptions::new()
            .with_coarsen_target(target)
            .with_max_levels(levels)
            .with_matching_attempts(attempts);
        assert_matches_reference(&graph, &options, threads, batch)?;
    }
}

/// A fixed case where a key built from per-part version counters goes
/// wrong. In the first level refined, cluster 15 sits in part 8 with a move
/// to part 14 rejected while part 8 is at version 1 and part 14 at version
/// 0; later it moves from part 8 to part 10, which lifts part 10 from
/// version 0 to 1. Offered the move from part 10 to part 14, a version key
/// reads (15, 1, 0) — the rejected move's key — and inherits a verdict about
/// part 8: the levels then make 15, 7 and 3 moves instead of 18, 5 and 2.
/// Level-wide stamps keep the two states apart, so the cached scan makes
/// the full rescan's moves.
#[test]
fn a_cluster_that_changed_parts_never_inherits_the_old_parts_verdicts() {
    let graph = GraphBuilder::new("pipe195")
        .build(spec(Family::Pipeline, 195, 3))
        .expect("synthetic specs build");
    let options = MultilevelOptions::new()
        .with_coarsen_target(4)
        .with_max_levels(3)
        .with_matching_attempts(2);
    assert_matches_reference(&graph, &options, 1, 1).unwrap();
    let cached = run(&graph, &options, 1, 1, refine_level).expect("filters fit");
    assert_eq!(cached.moves, vec![18, 5, 2]);
}
