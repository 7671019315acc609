//! The paper's four-phase partitioning heuristic (Algorithm 1).
//!
//! Phase 1 merges filters along innermost pipelines, phase 2 merges the
//! remaining (split/join side) filters, phase 3 merges whole partitions with
//! a priority on turning IO-bound partitions compute-bound, and phase 4
//! attempts larger simultaneous merges, including collapsing the whole graph
//! into one partition when that is predicted to be fastest. Every merge goes
//! through `Try-Merge`, which requires connectivity, convexity, shared-memory
//! feasibility and a strict improvement of the estimated total runtime.
//!
//! The search is parallel-capable: phase 1 farms out independent pipeline
//! chains and phases 3/4 evaluate their merge candidates in deterministic
//! fixed-size batches (see [`PartitionSearchOptions`]), so any thread count
//! produces the identical [`Partitioning`] the serial search produces.
//! Phase 2 grows partitions along a frontier whose shape depends on each
//! accepted merge, so it stays serial; its singleton estimates are prewarmed
//! in parallel instead.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::{Arc, RwLock};

use sgmap_graph::{FilterId, FxHasher, NodeSet, StreamGraph, TopoIndex};
use sgmap_pee::{Estimate, Estimator, SetChars};

use crate::adjacency::AdjacencyIndex;
use crate::error::PartitionError;
use crate::partitioning::{Partition, Partitioning};
use crate::search::{first_accepted, par_map, PartitionSearchOptions};

/// A partition under construction: its node set, the PEE's estimate, and the
/// characteristics bundle the estimator uses to derive union characteristics
/// incrementally when this part is a merge operand. Shared with the
/// multilevel partitioner, whose coarse clusters are `Part`s too.
#[derive(Debug, Clone)]
pub(crate) struct Part {
    pub(crate) nodes: NodeSet,
    pub(crate) estimate: Estimate,
    pub(crate) chars: Arc<SetChars>,
}

/// Memoised structural-feasibility answers (weak connectivity over forward
/// channels, then convexity — the exact guard every merge has always run),
/// shared across the whole search. Both predicates are local: connectivity
/// walks the set and its incident channels, convexity the set's successors
/// and the non-members inside its topological window, bounded by the
/// [`TopoIndex`] built once per search. The candidate enumeration re-visits
/// the same union sets on every merge iteration, and for a fixed set the
/// answer never changes, so one answer per distinct set suffices. The
/// connectivity check matters even though merge operands are always
/// adjacent: adjacency counts feedback channels (as the historical channel
/// scan did), while connectivity deliberately ignores them, so parts joined
/// *only* by a feedback channel must stay rejected. Benign racing (two
/// threads computing the same pure predicate) cannot change any decision.
#[derive(Debug)]
pub(crate) struct FeasibilityCache {
    map: RwLock<HashMap<NodeSet, bool, BuildHasherDefault<FxHasher>>>,
    topo: TopoIndex,
}

impl FeasibilityCache {
    pub(crate) fn new(graph: &StreamGraph) -> Self {
        FeasibilityCache {
            map: RwLock::new(HashMap::default()),
            topo: TopoIndex::new(graph),
        }
    }

    pub(crate) fn is_mergeable(&self, graph: &StreamGraph, set: &NodeSet) -> bool {
        if let Some(&known) = self
            .map
            .read()
            .expect("feasibility cache lock poisoned")
            .get(set)
        {
            sgmap_trace::add("partition.feasibility_hits", 1);
            return known;
        }
        let feasible = set.is_connected(graph) && set.is_convex_in(graph, &self.topo);
        let first = self
            .map
            .write()
            .expect("feasibility cache lock poisoned")
            .insert(set.clone(), feasible)
            .is_none();
        // Only the thread that inserts the answer counts a miss, so the
        // counters match the serial search's whatever the thread count.
        let counter = if first {
            "partition.feasibility_misses"
        } else {
            "partition.feasibility_hits"
        };
        sgmap_trace::add(counter, 1);
        feasible
    }
}

/// Required relative improvement for a merge to be accepted: the merged
/// partition's estimated time must be below this fraction of the sum of the
/// parts. Compute-bound partitions gain almost nothing from merging (their
/// compute time is additive and only a sliver of boundary IO disappears), so
/// they fail this test and stay separate — the behaviour Section 4.0.3
/// describes — while IO-bound partitions, whose shared buffers shrink the
/// data-transfer time substantially, keep merging.
pub const MERGE_GAIN_FACTOR: f64 = 0.98;

/// The flat (non-multilevel) four-phase search: the historical Algorithm 1
/// driver behind [`Algorithm::Flat`](crate::Algorithm::Flat).
///
/// The result is identical — same partitions, same order, bit-equal
/// estimates — for every `options` value: candidate batches are evaluated
/// speculatively but the accepted merge is always the first one in serial
/// order, so threads only change how fast the answer arrives, never the
/// answer. With equal batch sizes, even the estimator-cache counters are
/// independent of the thread count. Each phase runs under its own span
/// (`partition.prewarm`, `partition.phase1`..`partition.phase4`) and the
/// search records candidate / merge / feasibility-cache counters; the
/// collector is write-only, so the resulting [`Partitioning`] is
/// bit-identical with and without it.
pub(crate) fn flat_partition(
    est: &Estimator<'_>,
    options: &PartitionSearchOptions,
) -> Result<Partitioning, PartitionError> {
    let threads = options.resolved_threads();
    let batch = options.batch.max(1);
    let graph = est.graph();
    let mut parts: Vec<Part> = Vec::new();
    let mut assigned = vec![false; graph.filter_count()];
    let feasible = FeasibilityCache::new(graph);

    // Unconditional, even on one thread: it pins the evaluated singleton set
    // to "every filter" regardless of thread count, so cache counters stay
    // thread-independent even when a later phase stops early on an error.
    {
        let _span = sgmap_trace::span("partition.prewarm");
        prewarm_singletons(est, graph, threads);
    }
    {
        let mut span = sgmap_trace::span("partition.phase1");
        phase1_pipelines(est, graph, &feasible, threads, &mut parts, &mut assigned)?;
        span.arg("parts", parts.len());
    }
    {
        let mut span = sgmap_trace::span("partition.phase2");
        phase2_remaining(est, graph, &feasible, &mut parts, &mut assigned)?;
        span.arg("parts", parts.len());
    }
    // From here on every filter is assigned, so the part-adjacency index
    // covers the graph; it replaces the per-candidate channel scans of
    // phases 3 and 4 and is maintained incrementally across merges — this
    // build is the only full construction of the flat search.
    sgmap_trace::add("partition.adjacency_rebuilds", 1);
    let mut adjacency = AdjacencyIndex::build(graph, parts.iter().map(|p| &p.nodes));
    {
        let mut span = sgmap_trace::span("partition.phase3");
        phase3_partition_merging(est, &feasible, threads, batch, &mut parts, &mut adjacency);
        span.arg("parts", parts.len());
    }
    {
        let mut span = sgmap_trace::span("partition.phase4");
        phase4_simultaneous(
            est,
            graph,
            &feasible,
            threads,
            batch,
            &mut parts,
            &mut adjacency,
        );
        span.arg("parts", parts.len());
    }

    let partitioning: Partitioning = parts
        .into_iter()
        .map(|p| Partition::new(p.nodes, p.estimate))
        .collect();
    partitioning.validate_cover(graph)?;
    Ok(partitioning)
}

/// Evaluates every filter's singleton estimate up front (in parallel when
/// threads are available). The phases query all of these anyway on the
/// success path (phase 1 walks every chain filter, phase 2 every remaining
/// filter), so prewarming changes neither the evaluated key set nor any
/// error the phases later report — it moves the dominant parameter-search
/// cost onto the worker threads and keeps the evaluated set fixed even when
/// a phase aborts early on a too-large filter.
pub(crate) fn prewarm_singletons(est: &Estimator<'_>, graph: &StreamGraph, threads: usize) {
    let ids: Vec<FilterId> = graph.filter_ids().collect();
    par_map(threads, &ids, |&id| {
        est.estimate(&NodeSet::singleton(id));
    });
}

/// Creates the singleton partition of a filter, failing if it cannot fit in
/// shared memory on its own.
pub(crate) fn singleton(est: &Estimator<'_>, id: FilterId) -> Result<Part, PartitionError> {
    let set = NodeSet::singleton(id);
    match est.estimate_with_chars(&set) {
        (Some(estimate), chars) => Ok(Part {
            nodes: set,
            estimate,
            chars,
        }),
        (None, _) => Err(PartitionError::FilterTooLarge(id)),
    }
}

/// The conditional merge of Algorithm 1: the merge happens only if the two
/// sets are connected once unified, the union is convex, it fits in shared
/// memory, and its estimated time strictly improves on the sum of the parts.
pub(crate) fn try_merge(
    est: &Estimator<'_>,
    feasible: &FeasibilityCache,
    a: &Part,
    b: &Part,
) -> Option<Part> {
    sgmap_trace::add("partition.candidates_evaluated", 1);
    let union = a.nodes.union(&b.nodes);
    if !feasible.is_mergeable(est.graph(), &union) {
        return None;
    }
    let (merged, chars) = est.estimate_union(&[(&a.nodes, &a.chars), (&b.nodes, &b.chars)], &union);
    let merged = merged?;
    let combined = a.estimate.normalized_us + b.estimate.normalized_us;
    if merged.normalized_us < MERGE_GAIN_FACTOR * combined {
        Some(Part {
            nodes: union,
            estimate: merged,
            chars,
        })
    } else {
        None
    }
}

/// Identifies the innermost pipelines of the flat graph: maximal chains of
/// filters with forward in-degree and out-degree at most one.
fn pipeline_chains(graph: &StreamGraph) -> Vec<Vec<FilterId>> {
    let qualifies =
        |id: FilterId| graph.predecessors(id).len() <= 1 && graph.successors(id).len() <= 1;
    let mut chains = Vec::new();
    let mut visited = vec![false; graph.filter_count()];
    for id in graph.filter_ids() {
        if visited[id.index()] || !qualifies(id) {
            continue;
        }
        // Walk back to the head of the chain.
        let mut head = id;
        loop {
            let preds = graph.predecessors(head);
            match preds.first() {
                Some(&p)
                    if qualifies(p) && !visited[p.index()] && graph.successors(p).len() == 1 =>
                {
                    head = p;
                }
                _ => break,
            }
        }
        // Walk forward collecting the chain.
        let mut chain = vec![head];
        visited[head.index()] = true;
        let mut cur = head;
        loop {
            let succs = graph.successors(cur);
            match succs.first() {
                Some(&s)
                    if qualifies(s) && !visited[s.index()] && graph.predecessors(s).len() == 1 =>
                {
                    chain.push(s);
                    visited[s.index()] = true;
                    cur = s;
                }
                _ => break,
            }
        }
        chains.push(chain);
    }
    chains
}

/// Greedily merges one pipeline chain, returning each resulting partition
/// with the chain-index range it covers. Chains are disjoint, so this runs
/// on worker threads with no shared state beyond the estimator.
fn merge_chain(
    est: &Estimator<'_>,
    feasible: &FeasibilityCache,
    chain: &[FilterId],
) -> Result<Vec<(Part, std::ops::Range<usize>)>, PartitionError> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < chain.len() {
        let mut current = singleton(est, chain[i])?;
        let mut j = i + 1;
        while j < chain.len() {
            let next = singleton(est, chain[j])?;
            match try_merge(est, feasible, &current, &next) {
                Some(m) => {
                    sgmap_trace::add("partition.merges_accepted", 1);
                    current = m;
                    j += 1;
                }
                None => break,
            }
        }
        out.push((current, i..j));
        i = j;
    }
    Ok(out)
}

/// Phase 1 (lines 2–10): merge within innermost pipelines. Chains are
/// independent, so they are farmed out whole; results are applied in chain
/// order, which keeps both the partition order and the first reported error
/// identical to the serial walk.
fn phase1_pipelines(
    est: &Estimator<'_>,
    graph: &StreamGraph,
    feasible: &FeasibilityCache,
    threads: usize,
    parts: &mut Vec<Part>,
    assigned: &mut [bool],
) -> Result<(), PartitionError> {
    let chains = pipeline_chains(graph);
    let merged = par_map(threads, &chains, |chain| merge_chain(est, feasible, chain));
    for (chain, result) in chains.iter().zip(merged) {
        for (part, range) in result? {
            for k in range {
                assigned[chain[k].index()] = true;
            }
            parts.push(part);
        }
    }
    Ok(())
}

/// Phase 2 (lines 13–20): merge the filters outside the pipelines. The
/// frontier buffer is allocated once and reused across every growth pass and
/// every seed filter; candidates that an earlier merge of the same pass
/// already assigned are skipped at use time, exactly as the serial reference
/// did.
fn phase2_remaining(
    est: &Estimator<'_>,
    graph: &StreamGraph,
    feasible: &FeasibilityCache,
    parts: &mut Vec<Part>,
    assigned: &mut [bool],
) -> Result<(), PartitionError> {
    let mut frontier: Vec<FilterId> = Vec::new();
    for id in graph.filter_ids() {
        if assigned[id.index()] {
            continue;
        }
        let mut current = singleton(est, id)?;
        assigned[id.index()] = true;
        loop {
            let mut merged_any = false;
            // Neighbours of the partition that belong to no partition yet.
            frontier.clear();
            frontier.extend(
                current
                    .nodes
                    .iter()
                    .flat_map(|m| graph.neighbors(m))
                    .filter(|k| !assigned[k.index()] && !current.nodes.contains(*k)),
            );
            for &k in &frontier {
                if assigned[k.index()] {
                    continue;
                }
                let next = singleton(est, k)?;
                if let Some(m) = try_merge(est, feasible, &current, &next) {
                    sgmap_trace::add("partition.merges_accepted", 1);
                    current = m;
                    assigned[k.index()] = true;
                    merged_any = true;
                }
            }
            if !merged_any {
                break;
            }
        }
        parts.push(current);
    }
    Ok(())
}

/// Phase 3 (lines 23–31): merge partitions, prioritising IO-bound ones, in
/// three rounds of increasing scope. Candidate pairs are enumerated in the
/// serial scan order and evaluated in deterministic batches, so the accepted
/// merge is always the one the serial scan would accept first. Adjacency is
/// answered by the incrementally maintained index instead of a channel scan
/// per candidate pair.
pub(crate) fn phase3_partition_merging(
    est: &Estimator<'_>,
    feasible: &FeasibilityCache,
    threads: usize,
    batch: usize,
    parts: &mut Vec<Part>,
    adjacency: &mut AdjacencyIndex,
) {
    // Round 1: IO-bound with IO-bound; round 2: IO-bound with anyone;
    // round 3: anyone with anyone.
    for round in 0..3 {
        loop {
            // Candidate sources in ascending order of execution time.
            let mut order: Vec<usize> = (0..parts.len())
                .filter(|&i| match round {
                    0 | 1 => parts[i].estimate.is_io_bound(),
                    _ => true,
                })
                .collect();
            order.sort_by(|&a, &b| {
                parts[a]
                    .estimate
                    .normalized_us
                    .total_cmp(&parts[b].estimate.normalized_us)
            });
            // Candidate pairs in the serial scan order, generated lazily —
            // only the batches up to the first accepted merge materialise.
            let parts_ref: &[Part] = parts;
            let adjacency_ref: &AdjacencyIndex = adjacency;
            let candidates = order
                .iter()
                .flat_map(|&i| (0..parts_ref.len()).map(move |j| (i, j)))
                .filter(|&(i, j)| i != j);
            let found = first_accepted(threads, batch, candidates, |&(i, j)| {
                let partner_ok = match round {
                    0 => parts_ref[j].estimate.is_io_bound(),
                    _ => true,
                };
                if !partner_ok || !adjacency_ref.adjacent(i, j) {
                    return None;
                }
                try_merge(est, feasible, &parts_ref[i], &parts_ref[j])
            });
            match found {
                Some(((i, j), m)) => {
                    sgmap_trace::add("partition.merges_accepted", 1);
                    let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                    adjacency.merge_swap_remove(lo, hi);
                    parts.swap_remove(hi);
                    // After swap_remove(hi), index lo is still valid because
                    // lo < hi.
                    parts[lo] = m;
                }
                None => break,
            }
        }
    }
}

/// Phase 4 (lines 34–35): simultaneous merges of partition triples around a
/// common neighbour, then the all-nodes merge. Triples are enumerated in the
/// serial scan order and evaluated in deterministic batches. Neighbour lists
/// come from the adjacency index (whose iteration order is the ascending
/// part order the serial scan used); accepted triple merges compact the part
/// list with `Vec::remove`, and the index follows that exact bookkeeping
/// incrementally via [`AdjacencyIndex::merge_remove_push`] instead of a full
/// rebuild.
pub(crate) fn phase4_simultaneous(
    est: &Estimator<'_>,
    graph: &StreamGraph,
    feasible: &FeasibilityCache,
    threads: usize,
    batch: usize,
    parts: &mut Vec<Part>,
    adjacency: &mut AdjacencyIndex,
) {
    // (1) Merge two neighbouring partitions of a common partition together
    // with it, which can pay off even when no pairwise merge does.
    if parts.len() <= 200 {
        loop {
            // Triples in the serial scan order, generated lazily: for each
            // common partition p (neighbour list read off the index when p
            // is first drawn), every unordered pair of its neighbours.
            let parts_ref: &[Part] = parts;
            let adjacency_ref: &AdjacencyIndex = adjacency;
            let triples = (0..parts_ref.len()).flat_map(|p| {
                let neighbours: Vec<usize> = adjacency_ref.neighbors(p).collect();
                let pairs: Vec<(usize, usize, usize)> = neighbours
                    .iter()
                    .enumerate()
                    .flat_map(|(x, &a)| neighbours.iter().skip(x + 1).map(move |&b| (p, a, b)))
                    .collect();
                pairs
            });
            let found = first_accepted(threads, batch, triples, |&(p, a, b)| {
                sgmap_trace::add("partition.candidates_evaluated", 1);
                let union = parts_ref[p]
                    .nodes
                    .union(&parts_ref[a].nodes)
                    .union(&parts_ref[b].nodes);
                if !feasible.is_mergeable(graph, &union) {
                    return None;
                }
                // One query for the triple: on a miss its characteristics
                // are derived from the three operands at once, so no
                // intermediate union is characterised.
                let (e, chars) = est.estimate_union(
                    &[p, a, b].map(|k| (&parts_ref[k].nodes, &*parts_ref[k].chars)),
                    &union,
                );
                let e = e?;
                let combined = parts_ref[p].estimate.normalized_us
                    + parts_ref[a].estimate.normalized_us
                    + parts_ref[b].estimate.normalized_us;
                (e.normalized_us < MERGE_GAIN_FACTOR * combined).then_some(Part {
                    nodes: union,
                    estimate: e,
                    chars,
                })
            });
            match found {
                Some(((p, a, b), m)) => {
                    sgmap_trace::add("partition.merges_accepted", 1);
                    let mut remove = [p, a, b];
                    remove.sort_unstable();
                    // Remove from the highest index down so indices stay valid.
                    parts.remove(remove[2]);
                    parts.remove(remove[1]);
                    parts.remove(remove[0]);
                    parts.push(m);
                    adjacency.merge_remove_push(p, a, b);
                }
                None => break,
            }
        }
    }

    // (2) The all-nodes merge: guarantees the multi-partition solution is no
    // worse than the single-partition solution.
    if parts.len() > 1 {
        let all = NodeSet::all(graph);
        if let (Some(e), chars) = est.estimate_with_chars(&all) {
            let total: f64 = parts.iter().map(|p| p.estimate.normalized_us).sum();
            if e.normalized_us < MERGE_GAIN_FACTOR * total {
                sgmap_trace::add("partition.merges_accepted", 1);
                parts.clear();
                parts.push(Part {
                    nodes: all,
                    estimate: e,
                    chars,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgmap_apps::App;
    use sgmap_gpusim::GpuSpec;

    fn run(app: App, n: u32) -> (Partitioning, usize) {
        let graph = app.build(n).unwrap();
        let filters = graph.filter_count();
        let est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
        let p = crate::PartitionRequest::new(&est).run().unwrap();
        (p, filters)
    }

    #[test]
    fn des_partitioning_covers_the_graph_and_merges_filters() {
        let graph = App::Des.build(8).unwrap();
        let est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
        let p = crate::PartitionRequest::new(&est).run().unwrap();
        p.validate_cover(&graph).unwrap();
        assert!(!p.is_empty());
        assert!(
            p.len() < graph.filter_count(),
            "some merging must happen: {} partitions for {} filters",
            p.len(),
            graph.filter_count()
        );
    }

    #[test]
    fn small_apps_collapse_to_few_partitions() {
        let (p, filters) = run(App::MatMul2, 3);
        assert!(p.len() <= filters);
        assert!(
            p.len() <= 6,
            "MatMul2 N=3 should merge heavily: {}",
            p.len()
        );
    }

    #[test]
    fn fmradio_partitions_scale_with_bands() {
        let (small, _) = run(App::FmRadio, 4);
        let (large, _) = run(App::FmRadio, 16);
        assert!(large.len() >= small.len());
    }

    #[test]
    fn pipeline_chain_detection_matches_structure() {
        let graph = App::Des.build(2).unwrap();
        let chains = pipeline_chains(&graph);
        // Every filter with degree <= 1 on both sides is in exactly one chain.
        let covered: usize = chains.iter().map(Vec::len).sum();
        let eligible = graph
            .filter_ids()
            .filter(|&id| graph.predecessors(id).len() <= 1 && graph.successors(id).len() <= 1)
            .count();
        assert_eq!(covered, eligible);
    }

    #[test]
    fn batched_parallel_search_matches_serial_bit_for_bit() {
        for app in [App::Des, App::FmRadio, App::Fft] {
            let n = if app == App::Fft { 64 } else { 8 };
            let graph = app.build(n).unwrap();
            let est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
            let serial = crate::PartitionRequest::new(&est).run().unwrap();
            for (threads, batch) in [(1, 32), (2, 32), (4, 7), (4, 1)] {
                let opts = PartitionSearchOptions::new()
                    .with_threads(threads)
                    .with_batch(batch);
                let parallel = crate::PartitionRequest::new(&est)
                    .with_search(opts)
                    .run()
                    .unwrap();
                assert_eq!(
                    serial.len(),
                    parallel.len(),
                    "{app:?} t={threads} b={batch}"
                );
                for (a, b) in serial.iter().zip(parallel.iter()) {
                    assert_eq!(a.nodes, b.nodes, "{app:?} t={threads} b={batch}");
                    assert_eq!(
                        a.estimate.normalized_us.to_bits(),
                        b.estimate.normalized_us.to_bits(),
                        "{app:?} t={threads} b={batch}"
                    );
                }
            }
        }
    }

    #[test]
    fn total_time_never_exceeds_sum_of_singletons() {
        let graph = App::Fft.build(64).unwrap();
        let est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
        let p = crate::PartitionRequest::new(&est).run().unwrap();
        let singleton_total: f64 = graph
            .filter_ids()
            .map(|id| est.estimate(&NodeSet::singleton(id)).unwrap().normalized_us)
            .sum();
        assert!(p.total_estimated_time_us() <= singleton_total + 1e-6);
    }
}
