//! Property-based tests of the core data structures and invariants, using
//! randomly generated stream programs and optimisation models.

use proptest::prelude::*;

use sgmap_gpusim::profile::profile_graph;
use sgmap_gpusim::{sm_layout, GpuSpec, Platform};
use sgmap_graph::{FilterId, GraphBuilder, JoinKind, NodeSet, SplitKind, StreamGraph, StreamSpec};
use sgmap_ilp::{Model, ObjectiveSense, Solver};
use sgmap_mapping::evaluate_assignment;
use sgmap_partition::{build_pdg, AdjacencyIndex, PartitionRequest, PartitionSearchOptions};
use sgmap_pee::{merge_characteristics, CharsIndex, Estimator, PartitionCharacteristics};

/// Asserts two characteristics are equal down to the bit patterns of their
/// `f64` components (the contract the incremental path must honour, since
/// cache keys are built from these bits).
fn assert_chars_bit_identical(
    a: &PartitionCharacteristics,
    b: &PartitionCharacteristics,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.filters.len(), b.filters.len());
    for ((ta, fa), (tb, fb)) in a.filters.iter().zip(&b.filters) {
        prop_assert_eq!(ta.to_bits(), tb.to_bits());
        prop_assert_eq!(fa, fb);
    }
    prop_assert_eq!(a.io_bytes_per_exec, b.io_bytes_per_exec);
    prop_assert_eq!(a.sm_bytes_per_exec, b.sm_bytes_per_exec);
    prop_assert_eq!(a.max_firing_rate, b.max_firing_rate);
    Ok(())
}

/// Scan-based adjacency reference for [`AdjacencyIndex`] comparisons.
fn channels_cross(graph: &StreamGraph, a: &NodeSet, b: &NodeSet) -> bool {
    graph.channels().any(|(_, ch)| {
        (a.contains(ch.src) && b.contains(ch.dst)) || (b.contains(ch.src) && a.contains(ch.dst))
    })
}

fn assert_index_matches_scan(
    graph: &StreamGraph,
    parts: &[NodeSet],
    index: &AdjacencyIndex,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(index.len(), parts.len());
    for i in 0..parts.len() {
        for j in 0..parts.len() {
            if i != j {
                prop_assert_eq!(
                    index.adjacent(i, j),
                    channels_cross(graph, &parts[i], &parts[j]),
                    "pair ({}, {})",
                    i,
                    j
                );
            }
        }
        let from_index: Vec<usize> = index.neighbors(i).collect();
        let from_scan: Vec<usize> = (0..parts.len())
            .filter(|&q| q != i && channels_cross(graph, &parts[i], &parts[q]))
            .collect();
        prop_assert_eq!(from_index, from_scan, "neighbour order of part {}", i);
    }
    Ok(())
}

/// Strategy producing random but well-formed StreamIt-style specifications.
///
/// Split-join branches must all have the same aggregate rate ratio for the
/// program's balance equations to be solvable (the same restriction StreamIt
/// imposes), so branches are drawn from the `balanced` sub-strategy whose
/// filters produce exactly as many tokens as they consume; rate-changing
/// filters appear freely outside split-joins.
fn spec_strategy(depth: u32, balanced: bool) -> BoxedStrategy<StreamSpec> {
    let filter = (1u32..4, 1u32..4, 1.0f64..200.0).prop_map(move |(pop, push, work)| {
        let push = if balanced { pop } else { push };
        StreamSpec::filter(format!("f_{pop}_{push}_{}", work as u64), pop, push, work)
    });
    if depth == 0 {
        return filter.boxed();
    }
    let pipeline = prop::collection::vec(spec_strategy(depth - 1, balanced), 1..4)
        .prop_map(StreamSpec::pipeline);
    let split_join = (
        prop::collection::vec(spec_strategy(depth - 1, true), 1..4),
        any::<bool>(),
    )
        .prop_map(move |(branches, duplicate)| {
            let n = branches.len();
            // A duplicate split multiplies the stream by the branch count, so
            // it may only appear where no sibling branch has to match its
            // rate (i.e. not inside an already-balanced sub-program).
            let split = if duplicate && !balanced {
                SplitKind::Duplicate
            } else {
                SplitKind::round_robin_uniform(n)
            };
            StreamSpec::split_join(split, branches, JoinKind::round_robin_uniform(n))
        });
    prop_oneof![3 => filter, 2 => pipeline, 1 => split_join].boxed()
}

/// Wraps a random spec into a closed program (source ... sink) and flattens
/// it.
fn random_graph(spec: StreamSpec) -> StreamGraph {
    // Determine the interface rates of the inner spec by flattening it alone
    // first; rather than doing that, simply wrap with rate-1 source/sink and
    // let the repetition vector absorb the difference: the source pushes one
    // token per firing into whatever the entry filter pops.
    let program = StreamSpec::pipeline(vec![
        StreamSpec::filter("source", 0, 1, 1.0),
        spec,
        StreamSpec::filter("sink", 1, 0, 1.0),
    ]);
    GraphBuilder::new("random")
        .build(program)
        .expect("builder accepts well-formed specs")
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.max(1)
}

/// Adds balance-consistent feedback channels to `graph` from the given seed
/// pairs (rates derived from the repetition vector, so the balance equations
/// stay solvable). Feedback channels are exactly where the hot-path caches
/// must be careful: partition adjacency counts them, while connectivity and
/// the internal-buffer firing scan deliberately ignore them.
fn add_random_feedback(mut graph: StreamGraph, seeds: &[(u8, u8)]) -> StreamGraph {
    let n = graph.filter_count();
    let reps = graph.repetition_vector().unwrap();
    for &(a, b) in seeds {
        let src = FilterId::from_index(usize::from(a) % n);
        let dst = FilterId::from_index(usize::from(b) % n);
        if src == dst {
            continue;
        }
        let (rs, rd) = (reps[src.index()], reps[dst.index()]);
        let g = gcd(rs, rd);
        if rs / g > 1_000 || rd / g > 1_000 {
            continue; // keep token volumes sane
        }
        let (push, pop) = ((rd / g) as u32, (rs / g) as u32);
        graph
            .add_feedback_channel(src, dst, push, pop, push.max(pop))
            .unwrap();
    }
    // The feedback rates were chosen to keep the balance equations solvable.
    graph.repetition_vector().unwrap();
    graph
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The repetition vector satisfies every balance equation of the graph.
    #[test]
    fn repetition_vector_balances_every_channel(spec in spec_strategy(2, false)) {
        let graph = random_graph(spec);
        let reps = graph.repetition_vector().unwrap();
        for (_, ch) in graph.channels() {
            prop_assert_eq!(
                reps[ch.src.index()] * u64::from(ch.push),
                reps[ch.dst.index()] * u64::from(ch.pop),
                "unbalanced channel {} -> {}", ch.src, ch.dst
            );
        }
        prop_assert!(reps.iter().all(|&r| r >= 1));
    }

    /// The proposed partitioner always produces a disjoint, complete cover of
    /// connected, convex partitions, and never predicts a total time worse
    /// than leaving every filter alone.
    #[test]
    fn partitioning_is_a_valid_cover(
        spec in spec_strategy(2, false),
        feedback in prop::collection::vec((any::<u8>(), any::<u8>()), 0..3),
    ) {
        let graph = add_random_feedback(random_graph(spec), &feedback);
        let est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
        // Skip the rare graphs whose single filters overflow shared memory.
        let singleton_total: Option<f64> = graph
            .filter_ids()
            .map(|id| est.estimate(&NodeSet::singleton(id)).map(|e| e.normalized_us))
            .sum();
        prop_assume!(singleton_total.is_some());
        let partitioning = PartitionRequest::new(&est).run().unwrap();
        partitioning.validate_cover(&graph).unwrap();
        for p in partitioning.iter() {
            prop_assert!(p.nodes.is_connected(&graph));
            prop_assert!(p.nodes.is_convex(&graph));
            prop_assert!(p.estimate.sm_bytes <= u64::from(est.gpu().shared_mem_bytes));
        }
        prop_assert!(
            partitioning.total_estimated_time_us() <= singleton_total.unwrap() + 1e-6
        );
    }

    /// The batched parallel partition search is indistinguishable from the
    /// serial search on random graphs: same partitions in the same order
    /// with bit-equal estimates, a valid cover included — for any thread
    /// count and any speculative batch size.
    #[test]
    fn parallel_partition_search_matches_serial(
        spec in spec_strategy(2, false),
        threads in 1usize..5,
        batch in 1usize..48,
        feedback in prop::collection::vec((any::<u8>(), any::<u8>()), 0..3),
    ) {
        let graph = add_random_feedback(random_graph(spec), &feedback);
        let est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
        prop_assume!(graph
            .filter_ids()
            .all(|id| est.estimate(&NodeSet::singleton(id)).is_some()));
        let serial = PartitionRequest::new(&est).run().unwrap();
        let options = PartitionSearchOptions::new()
            .with_threads(threads)
            .with_batch(batch);
        let parallel = PartitionRequest::new(&est).with_search(options).run().unwrap();
        parallel.validate_cover(&graph).unwrap();
        prop_assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(parallel.iter()) {
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
        }
        // The partition-adjacency index the search maintains answers exactly
        // like a full channel scan over the final partitioning — the
        // invariant that lets phases 3/4 replace their per-candidate scans.
        let final_sets: Vec<NodeSet> = parallel.iter().map(|p| p.nodes.clone()).collect();
        let index = AdjacencyIndex::build(&graph, &final_sets);
        assert_index_matches_scan(&graph, &final_sets, &index)?;
    }

    /// The incremental characteristics path is bit-identical to the
    /// reference `from_set` rescan: for arbitrary subsets, and for unions
    /// derived via `merge_characteristics` from a random disjoint split into
    /// two and into three operands — in both enhancement modes. The
    /// three-operand derivation (phase 4's triple merges) also equals the
    /// two-step derivation through the intermediate union.
    #[test]
    fn incremental_characteristics_match_from_set(
        spec in spec_strategy(2, false),
        mask in prop::collection::vec(0u8..3, 64..65),
        feedback in prop::collection::vec((any::<u8>(), any::<u8>()), 0..3),
    ) {
        let graph = add_random_feedback(random_graph(spec), &feedback);
        let reps = graph.repetition_vector().unwrap();
        let profile = profile_graph(&graph, &GpuSpec::m2090());
        let index = CharsIndex::new(&graph, &reps, &profile);

        // Split the filters three ways by the random mask; pieces 1 and 2
        // together are the second half of the two-way split.
        let piece = |k: u8| {
            NodeSet::from_ids(graph.filter_ids().filter(|id| mask[id.index() % mask.len()] == k))
        };
        let (a_set, b1_set, b2_set) = (piece(0), piece(1), piece(2));
        let b_set = b1_set.union(&b2_set);
        prop_assume!(!a_set.is_empty() && !b1_set.is_empty() && !b2_set.is_empty());
        let all = NodeSet::all(&graph);

        for enhanced in [false, true] {
            // Indexed single-set path vs the reference, on every piece.
            for set in [&a_set, &b1_set, &b2_set, &b_set, &all] {
                let reference =
                    PartitionCharacteristics::from_set(&graph, set, &reps, &profile, enhanced);
                assert_chars_bit_identical(&index.for_set(&graph, set, enhanced).chars, &reference)?;
            }
            let reference =
                PartitionCharacteristics::from_set(&graph, &all, &reps, &profile, enhanced);
            let [a, b, b1, b2] =
                [&a_set, &b_set, &b1_set, &b2_set].map(|set| index.for_set(&graph, set, enhanced));

            // Two operands vs the reference on the union.
            let two = merge_characteristics(
                &index,
                &graph,
                enhanced,
                &[(&a_set, &a), (&b_set, &b)],
                &all,
            );
            assert_chars_bit_identical(&two.chars, &reference)?;

            // Three operands in one step vs the reference, and vs two steps.
            let three = merge_characteristics(
                &index,
                &graph,
                enhanced,
                &[(&a_set, &a), (&b1_set, &b1), (&b2_set, &b2)],
                &all,
            );
            assert_chars_bit_identical(&three.chars, &reference)?;
            let a_b1 = a_set.union(&b1_set);
            let stepwise = merge_characteristics(
                &index,
                &graph,
                enhanced,
                &[
                    (
                        &a_b1,
                        &merge_characteristics(
                            &index,
                            &graph,
                            enhanced,
                            &[(&a_set, &a), (&b1_set, &b1)],
                            &a_b1,
                        ),
                    ),
                    (&b2_set, &b2),
                ],
                &all,
            );
            prop_assert_eq!(&three, &stepwise);
            prop_assert_eq!(&three, &index.for_set(&graph, &all, enhanced));
        }
    }

    /// The adjacency index stays exact through arbitrary merge sequences:
    /// random partitions of a random graph, merged pairwise with the
    /// partitioner's swap-remove bookkeeping, always answer like a full
    /// channel scan.
    #[test]
    fn adjacency_index_is_exact_across_merge_sequences(
        spec in spec_strategy(2, false),
        groups in prop::collection::vec(0usize..5, 64..65),
        merge_seed in prop::collection::vec(any::<u8>(), 8..9),
        feedback in prop::collection::vec((any::<u8>(), any::<u8>()), 0..3),
    ) {
        let graph = add_random_feedback(random_graph(spec), &feedback);
        // Partition the filters into up to 5 arbitrary groups.
        let mut sets: Vec<Vec<FilterId>> = vec![Vec::new(); 5];
        for id in graph.filter_ids() {
            sets[groups[id.index() % groups.len()]].push(id);
        }
        let mut parts: Vec<NodeSet> = sets
            .into_iter()
            .filter(|s| !s.is_empty())
            .map(NodeSet::from_ids)
            .collect();
        let mut index = AdjacencyIndex::build(&graph, &parts);
        assert_index_matches_scan(&graph, &parts, &index)?;

        // Merge pseudo-random pairs exactly the way phase 3 does.
        for &seed in &merge_seed {
            if parts.len() < 2 {
                break;
            }
            let lo = usize::from(seed) % (parts.len() - 1);
            let hi = lo + 1 + usize::from(seed / 16) % (parts.len() - 1 - lo);
            let union = parts[lo].union(&parts[hi]);
            index.merge_swap_remove(lo, hi);
            parts.swap_remove(hi);
            parts[lo] = union;
            assert_index_matches_scan(&graph, &parts, &index)?;
        }
    }

    /// The shared-memory footprint never shrinks when the enhancement is
    /// disabled, and the kernel footprint grows monotonically with W.
    #[test]
    fn footprint_monotonicity(spec in spec_strategy(2, false), w in 1u32..8) {
        let graph = random_graph(spec);
        let reps = graph.repetition_vector().unwrap();
        let all = NodeSet::all(&graph);
        let plain = sm_layout::footprint(&graph, &all, &reps, false);
        let enhanced = sm_layout::footprint(&graph, &all, &reps, true);
        prop_assert!(enhanced.internal_peak_bytes <= plain.internal_peak_bytes);
        prop_assert!(plain.kernel_bytes(w + 1) >= plain.kernel_bytes(w));
    }

    /// The PDG of any partitioning preserves the total inter-partition byte
    /// volume and admits a topological order; any assignment evaluated on a
    /// platform yields a bottleneck no smaller than the average load bound.
    #[test]
    fn pdg_and_mapping_cost_are_consistent(spec in spec_strategy(2, false), gpus in 1usize..5) {
        let graph = random_graph(spec);
        let est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
        prop_assume!(graph.filter_ids().all(|id| est.estimate(&NodeSet::singleton(id)).is_some()));
        let partitioning = PartitionRequest::new(&est).run().unwrap();
        let reps = graph.repetition_vector().unwrap();
        let pdg = build_pdg(&graph, &reps, &partitioning);
        prop_assert_eq!(pdg.topological_order().len(), pdg.len());
        let platform = Platform::homogeneous(GpuSpec::m2090(), gpus);
        // Round-robin assignment is always valid input for the evaluator.
        let assignment: Vec<usize> = (0..pdg.len()).map(|i| i % gpus).collect();
        let cost = evaluate_assignment(&pdg, &platform, &assignment);
        let avg = pdg.total_time_us() / gpus as f64;
        prop_assert!(cost.tmax_us + 1e-9 >= avg / gpus as f64);
        prop_assert_eq!(cost.per_gpu_time_us.len(), gpus);
    }

    /// The branch-and-bound ILP solver agrees with brute force on random
    /// small 0/1 knapsack-style models.
    #[test]
    fn ilp_matches_brute_force(
        values in prop::collection::vec(1.0f64..20.0, 2..7),
        weights_seed in prop::collection::vec(1u32..9, 2..7),
        cap in 4u32..20,
    ) {
        let n = values.len().min(weights_seed.len());
        let values = &values[..n];
        let weights: Vec<f64> = weights_seed[..n].iter().map(|&w| f64::from(w)).collect();
        let mut model = Model::new(ObjectiveSense::Maximize);
        let vars: Vec<_> = values.iter().map(|&v| model.add_binary(v)).collect();
        model.add_constraint_le(
            vars.iter().zip(&weights).map(|(&v, &w)| (v, w)).collect(),
            f64::from(cap),
        );
        let solution = Solver::new().solve(&model).unwrap();

        // Brute force over all subsets.
        let mut best = 0.0f64;
        for mask in 0u32..(1 << n) {
            let weight: f64 = (0..n).filter(|i| mask & (1 << i) != 0).map(|i| weights[i]).sum();
            if weight <= f64::from(cap) {
                let value: f64 = (0..n).filter(|i| mask & (1 << i) != 0).map(|i| values[i]).sum();
                best = best.max(value);
            }
        }
        prop_assert!((solution.objective - best).abs() < 1e-6,
            "solver {} vs brute force {}", solution.objective, best);
    }
}
