//! Multilevel partitioning: coarsen, partition the coarse graph, refine.
//!
//! The flat four-phase search evaluates O(|parts|²) merge candidates per
//! accepted merge, which is fine at the paper's scale (≤ ~100 filters) and
//! hopeless at 10k+. The multilevel scheme brings large graphs into range
//! while reusing the exact machinery the flat search trusts:
//!
//! 1. **Coarsening** — repeated heavy-edge matching over the cluster
//!    adjacency graph ([`AdjacencyIndex`] supplies the edge weights). Two
//!    clusters merge when their union stays connected, convex and
//!    shared-memory feasible — no estimate-improvement requirement, because
//!    coarsening is structural, not a search; SM feasibility alone bounds
//!    cluster growth. Union estimates and characteristics are derived
//!    incrementally with [`Estimator::estimate_union`], so coarse-node
//!    estimates stay cache-exact.
//! 2. **Initial partitioning** — the flat search's phases 3 and 4 run
//!    unchanged on the coarsest clusters (a few dozen to a few hundred
//!    `Part`s, the regime they were built for).
//! 3. **Uncoarsening + refinement** — walking back down the level stack,
//!    boundary clusters of the finer level move between parts whenever the
//!    move *strictly* lowers the summed estimated time of the two parts it
//!    touches. Strict improvement guarantees refinement never worsens the
//!    estimator objective and (since the state space is finite) terminates.
//!
//! Every stage is deterministic for every thread count: matching is a serial
//! ascending scan, and refinement evaluates its candidates through the same
//! `first_accepted` batching discipline the flat phases use, so the
//! accepted move is always the first one in serial order.
//!
//! Refinement pays only for candidates whose inputs changed. Whether moving
//! cluster `c` from part `p` to part `q` is accepted depends on nothing but
//! `c` and the current states of `p` and `q`, and every rejected move is
//! remembered under the key (cluster, stamp of `p`, stamp of `q`). A stamp
//! names one part *state*: whenever a move replaces a part, the part takes
//! the next value of one counter shared by the whole level, so two states
//! never share a stamp. (Per-part version counters would not do: a cluster
//! that moved from A to B can meet B at the version number A had, and
//! inherit a verdict about A.) The scan still restarts at cluster 0 after
//! every move and draws the same batches, known rejections included, but a
//! known rejection is skipped rather than re-estimated. Only rejections are
//! remembered — speculative ones past the accepted move of a batch too —
//! never an accepted plan, so the move sequence, the estimator's misses and
//! every count of accepted work are those of the full rescan (kept as the
//! test oracle in `multilevel/reference.rs`). Each cluster's target list is
//! kept across moves and recomputed only for the moved cluster and its
//! neighbours, the only clusters whose neighbouring parts a move changes.
//! A candidate's remaining part is characterised from its home part's
//! bundle minus the cluster's ([`Estimator::estimate_difference`]), so
//! pricing a move walks the cluster, not the part it leaves.

use sgmap_graph::StreamGraph;
use sgmap_pee::Estimator;

use crate::adjacency::AdjacencyIndex;
use crate::error::PartitionError;
use crate::partitioning::{Partition, Partitioning};
use crate::proposed::{
    phase3_partition_merging, phase4_simultaneous, prewarm_singletons, singleton, FeasibilityCache,
    Part,
};
use crate::search::{first_accepted_skipping, PartitionSearchOptions};

/// Tuning knobs for [`Algorithm::Multilevel`](crate::Algorithm::Multilevel).
/// Integer-only so the options can sit inside hashable / comparable sweep
/// configurations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MultilevelOptions {
    /// Coarsening stops once the cluster count drops to this value (or no
    /// matching round accepts a merge). The coarsest graph is handed to the
    /// flat phases, so this is the part count the O(n²) search sees.
    pub coarsen_target: usize,
    /// Upper bound on coarsening levels; a safety stop, since matching
    /// roughly halves the cluster count per level.
    pub max_levels: usize,
    /// How many heavy neighbours a cluster tries to match with before
    /// staying single for the level (candidates in descending edge-weight
    /// order, index ascending on ties).
    pub matching_attempts: usize,
}

impl Default for MultilevelOptions {
    fn default() -> Self {
        MultilevelOptions {
            coarsen_target: 96,
            max_levels: 20,
            matching_attempts: 4,
        }
    }
}

impl MultilevelOptions {
    /// Default options (target 96 coarse clusters, ≤ 20 levels, 4 matching
    /// attempts per cluster).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the coarsest cluster-count target (clamped to ≥ 2).
    pub fn with_coarsen_target(mut self, target: usize) -> Self {
        self.coarsen_target = target.max(2);
        self
    }

    /// Sets the maximum number of coarsening levels (clamped to ≥ 1).
    pub fn with_max_levels(mut self, levels: usize) -> Self {
        self.max_levels = levels.max(1);
        self
    }

    /// Sets the matching attempts per cluster (clamped to ≥ 1).
    pub fn with_matching_attempts(mut self, attempts: usize) -> Self {
        self.matching_attempts = attempts.max(1);
        self
    }
}

/// The multilevel driver behind
/// [`Algorithm::Multilevel`](crate::Algorithm::Multilevel). Same contract as
/// the flat driver: identical output for every `search` value, write-only
/// tracing (`partition.coarsen` / `partition.initial` / `partition.refine`
/// spans, `partition.coarsen_levels` / `partition.refine_moves` /
/// `partition.adjacency_rebuilds` counters).
pub(crate) fn multilevel_partition(
    est: &Estimator<'_>,
    options: &MultilevelOptions,
    search: &PartitionSearchOptions,
) -> Result<Partitioning, PartitionError> {
    let threads = search.resolved_threads();
    let batch = search.batch.max(1);
    let graph = est.graph();
    let feasible = FeasibilityCache::new(graph);
    let (levels, mut parts) = coarsen_and_partition(est, &feasible, options, threads, batch)?;

    // Uncoarsen: refine against each finer level, coarsest-stored first.
    for (level, level_clusters) in levels.iter().enumerate().rev() {
        let mut span = sgmap_trace::span("partition.refine");
        span.arg("level", level);
        let moves = refine_level(
            est,
            graph,
            &feasible,
            threads,
            batch,
            level_clusters,
            &mut parts,
        );
        span.arg("moves", moves);
    }

    let partitioning: Partitioning = parts
        .into_iter()
        .map(|p| Partition::new(p.nodes, p.estimate))
        .collect();
    partitioning.validate_cover(graph)?;
    Ok(partitioning)
}

/// Prewarm, coarsening and the initial partitioning: returns the cluster
/// sets of the finer levels, finest first, for the way back down, and the
/// parts of the coarsest level.
fn coarsen_and_partition(
    est: &Estimator<'_>,
    feasible: &FeasibilityCache,
    options: &MultilevelOptions,
    threads: usize,
    batch: usize,
) -> Result<(Vec<Vec<Part>>, Vec<Part>), PartitionError> {
    let graph = est.graph();
    {
        let _span = sgmap_trace::span("partition.prewarm");
        prewarm_singletons(est, graph, threads);
    }

    // Level 0: every filter is its own cluster.
    let mut clusters: Vec<Part> = graph
        .filter_ids()
        .map(|id| singleton(est, id))
        .collect::<Result<_, _>>()?;

    // Coarsen until the target is reached or matching dries up.
    let target = options.coarsen_target.max(2);
    let mut levels: Vec<Vec<Part>> = Vec::new();
    while clusters.len() > target && levels.len() < options.max_levels.max(1) {
        let mut span = sgmap_trace::span("partition.coarsen");
        span.arg("level", levels.len());
        span.arg("clusters_in", clusters.len());
        match coarsen_level(est, graph, feasible, options, &clusters) {
            Some(coarser) => {
                span.arg("clusters_out", coarser.len());
                sgmap_trace::add("partition.coarsen_levels", 1);
                levels.push(std::mem::replace(&mut clusters, coarser));
            }
            None => {
                span.arg("clusters_out", clusters.len());
                break;
            }
        }
    }

    // Initial partitioning: the flat phases 3 + 4 on the coarsest clusters.
    let mut parts = clusters;
    let mut span = sgmap_trace::span("partition.initial");
    sgmap_trace::add("partition.adjacency_rebuilds", 1);
    let mut adjacency = AdjacencyIndex::build(graph, parts.iter().map(|p| &p.nodes));
    phase3_partition_merging(est, feasible, threads, batch, &mut parts, &mut adjacency);
    phase4_simultaneous(
        est,
        graph,
        feasible,
        threads,
        batch,
        &mut parts,
        &mut adjacency,
    );
    span.arg("parts", parts.len());
    Ok((levels, parts))
}

/// One heavy-edge matching round. Clusters are visited in ascending order;
/// each unmatched cluster tries its unmatched neighbours in descending
/// edge-weight order (ties broken by ascending index) and merges with the
/// first one whose union is connected, convex and SM-feasible. Returns the
/// coarser cluster set, or `None` if no merge was accepted.
fn coarsen_level(
    est: &Estimator<'_>,
    graph: &StreamGraph,
    feasible: &FeasibilityCache,
    options: &MultilevelOptions,
    clusters: &[Part],
) -> Option<Vec<Part>> {
    sgmap_trace::add("partition.adjacency_rebuilds", 1);
    let adjacency = AdjacencyIndex::build(graph, clusters.iter().map(|p| &p.nodes));
    let mut matched = vec![false; clusters.len()];
    let mut next: Vec<Part> = Vec::with_capacity(clusters.len());
    let mut merges = 0usize;
    for i in 0..clusters.len() {
        if matched[i] {
            continue;
        }
        matched[i] = true;
        let mut candidates: Vec<(u32, usize)> = adjacency
            .neighbors(i)
            .filter(|&j| !matched[j])
            .map(|j| (adjacency.weight(i, j), j))
            .collect();
        candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut made = None;
        for &(_, j) in candidates.iter().take(options.matching_attempts.max(1)) {
            sgmap_trace::add("partition.candidates_evaluated", 1);
            let union = clusters[i].nodes.union(&clusters[j].nodes);
            if !feasible.is_mergeable(graph, &union) {
                continue;
            }
            let (estimate, chars) = est.estimate_union(
                &[
                    (&clusters[i].nodes, &clusters[i].chars),
                    (&clusters[j].nodes, &clusters[j].chars),
                ],
                &union,
            );
            let Some(estimate) = estimate else { continue };
            made = Some((
                j,
                Part {
                    nodes: union,
                    estimate,
                    chars,
                },
            ));
            break;
        }
        match made {
            Some((j, part)) => {
                matched[j] = true;
                merges += 1;
                next.push(part);
            }
            None => next.push(clusters[i].clone()),
        }
    }
    (merges > 0).then_some(next)
}

/// A refinement move under evaluation: what the source part becomes and what
/// the target part becomes if the cluster changes sides.
struct MovePlan {
    remain: Part,
    target: Part,
}

/// Evaluates moving `cluster` from its `home` part to the `target` part: the
/// plan if the move keeps both parts feasible and strictly lowers their
/// summed estimated time, else `None`. A pure function of the cluster and
/// the two parts' states, which is what lets a rejection be remembered.
fn evaluate_move(
    est: &Estimator<'_>,
    graph: &StreamGraph,
    feasible: &FeasibilityCache,
    cluster: &Part,
    home: &Part,
    target: &Part,
) -> Option<MovePlan> {
    sgmap_trace::add("partition.candidates_evaluated", 1);
    let remain = home.nodes.difference(&cluster.nodes);
    if remain.is_empty() || !feasible.is_mergeable(graph, &remain) {
        return None;
    }
    let union = target.nodes.union(&cluster.nodes);
    if !feasible.is_mergeable(graph, &union) {
        return None;
    }
    let (remain_est, remain_chars) =
        est.estimate_difference(&home.chars, (&cluster.nodes, &cluster.chars), &remain);
    let remain_est = remain_est?;
    let (target_est, target_chars) = est.estimate_union(
        &[
            (&target.nodes, &target.chars),
            (&cluster.nodes, &cluster.chars),
        ],
        &union,
    );
    let target_est = target_est?;
    let before = home.estimate.normalized_us + target.estimate.normalized_us;
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
}

/// One entry of a cluster's target list: a neighbouring part, and the
/// stamps of the (home, target) part states under which moving the cluster
/// there was last rejected.
#[derive(Debug, Clone, Copy)]
struct Target {
    part: usize,
    rejected_at: (usize, usize),
}

/// `rejected_at` of a target never rejected (stamps never reach it).
const NEVER: (usize, usize) = (usize::MAX, usize::MAX);

/// A candidate move of the refinement scan.
#[derive(Debug, Clone, Copy)]
struct Move {
    cluster: usize,
    home: usize,
    target: usize,
    known_rejected: bool,
}

/// The sorted, deduplicated parts of a cluster's `neighbours` other than its
/// own `home`, each carrying its verdict over from the `old` list. A verdict
/// whose parts have changed since is carried too; its stamps no longer
/// match, so it is inert.
fn target_list(neighbours: &[usize], home: &[usize], own: usize, old: &[Target]) -> Vec<Target> {
    let mut parts: Vec<usize> = neighbours
        .iter()
        .map(|&d| home[d])
        .filter(|&q| q != own)
        .collect();
    parts.sort_unstable();
    parts.dedup();
    parts
        .into_iter()
        .map(|part| Target {
            part,
            rejected_at: old
                .binary_search_by_key(&part, |t| t.part)
                .map_or(NEVER, |at| old[at].rejected_at),
        })
        .collect()
}

/// Boundary-local refinement at one level: repeatedly move a cluster to an
/// adjacent part while that strictly lowers the summed estimated time of the
/// two parts involved. Candidates are enumerated in ascending (cluster,
/// target-part) order and evaluated through [`first_accepted_skipping`], so
/// any thread count applies the serial move sequence; moves already
/// rejected against the same part states are skipped (see the module
/// docs). A move never empties its source part, so the part count is
/// stable. Returns the number of moves.
///
/// `parts` must be unions of `clusters`, as every level's parts are.
pub(crate) fn refine_level(
    est: &Estimator<'_>,
    graph: &StreamGraph,
    feasible: &FeasibilityCache,
    threads: usize,
    batch: usize,
    clusters: &[Part],
    parts: &mut [Part],
) -> usize {
    let mut cluster_of = vec![usize::MAX; graph.filter_count()];
    for (c, cluster) in clusters.iter().enumerate() {
        for id in cluster.nodes.iter() {
            cluster_of[id.index()] = c;
        }
    }
    // Cluster → the part holding it, maintained across moves.
    let mut home = vec![usize::MAX; clusters.len()];
    for (p, part) in parts.iter().enumerate() {
        for id in part.nodes.iter() {
            home[cluster_of[id.index()]] = p;
        }
    }
    // The clusters a forward channel links to each cluster; fixed for the
    // level. Interior clusters (every neighbour in the home part) end up
    // with an empty target list, so only boundary clusters are candidates.
    let neighbours: Vec<Vec<usize>> = clusters
        .iter()
        .enumerate()
        .map(|(c, cluster)| {
            let mut linked: Vec<usize> = cluster
                .nodes
                .iter()
                .flat_map(|id| {
                    let incident = graph.in_channels(id).iter().chain(graph.out_channels(id));
                    incident
                        .map(|&ch| graph.channel(ch))
                        .filter(|ch| !ch.feedback)
                        .map(move |ch| if ch.src == id { ch.dst } else { ch.src })
                })
                .map(|nb| cluster_of[nb.index()])
                .filter(|&d| d != c)
                .collect();
            linked.sort_unstable();
            linked.dedup();
            linked
        })
        .collect();
    let mut targets: Vec<Vec<Target>> = (0..clusters.len())
        .map(|c| target_list(&neighbours[c], &home, home[c], &[]))
        .collect();
    // Part → stamp of its current state; `next_stamp` is the level's one
    // counter.
    let mut stamp: Vec<usize> = (0..parts.len()).collect();
    let mut next_stamp = parts.len();

    let mut moves = 0usize;
    let mut rejected: Vec<Move> = Vec::new();
    // Strict improvement of a finite state space already terminates; the cap
    // only bounds pathological churn.
    let cap = clusters.len().max(16) * 2;
    while moves < cap {
        let parts_ref: &[Part] = parts;
        let (home_ref, stamp_ref) = (&home, &stamp);
        let candidates = targets.iter().enumerate().flat_map(|(c, list)| {
            let p = home_ref[c];
            list.iter().map(move |t| Move {
                cluster: c,
                home: p,
                target: t.part,
                known_rejected: t.rejected_at == (stamp_ref[p], stamp_ref[t.part]),
            })
        });
        rejected.clear();
        let found = first_accepted_skipping(
            threads,
            batch,
            candidates,
            |m| m.known_rejected,
            |m| {
                evaluate_move(
                    est,
                    graph,
                    feasible,
                    &clusters[m.cluster],
                    &parts_ref[m.home],
                    &parts_ref[m.target],
                )
            },
            |m| rejected.push(*m),
        );
        for m in &rejected {
            let list = &mut targets[m.cluster];
            let at = list
                .binary_search_by_key(&m.target, |t| t.part)
                .expect("a rejected move came from the target list");
            list[at].rejected_at = (stamp[m.home], stamp[m.target]);
        }
        let Some((m, plan)) = found else { break };
        let (c, p, q) = (m.cluster, m.home, m.target);
        parts[p] = plan.remain;
        parts[q] = plan.target;
        for replaced in [p, q] {
            stamp[replaced] = next_stamp;
            next_stamp += 1;
        }
        home[c] = q;
        for d in std::iter::once(c).chain(neighbours[c].iter().copied()) {
            targets[d] = target_list(&neighbours[d], &home, home[d], &targets[d]);
        }
        sgmap_trace::add("partition.refine_moves", 1);
        moves += 1;
    }
    moves
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use sgmap_apps::App;
    use sgmap_gpusim::GpuSpec;
    use sgmap_graph::NodeSet;

    fn multilevel(app: App, n: u32, options: MultilevelOptions) -> (Partitioning, StreamGraph) {
        let graph = app.build(n).unwrap();
        let est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
        let p = crate::PartitionRequest::new(&est)
            .with_algorithm(crate::Algorithm::Multilevel(options))
            .run()
            .unwrap();
        (p, app.build(n).unwrap())
    }

    #[test]
    fn multilevel_covers_and_merges_on_paper_apps() {
        for app in [App::Des, App::Fft] {
            let n = if app == App::Fft { 64 } else { 8 };
            let (p, graph) = multilevel(app, n, MultilevelOptions::default());
            p.validate_cover(&graph).unwrap();
            assert!(p.len() < graph.filter_count(), "{app:?}: no merging");
            for part in p.iter() {
                assert!(part.nodes.is_connected(&graph));
                assert!(part.nodes.is_convex(&graph));
            }
        }
    }

    #[test]
    fn multilevel_never_beats_the_sum_of_singletons_bound() {
        let graph = App::Fft.build(128).unwrap();
        let est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
        let p = crate::PartitionRequest::new(&est)
            .with_algorithm(crate::Algorithm::Multilevel(MultilevelOptions::default()))
            .run()
            .unwrap();
        let singleton_total: f64 = graph
            .filter_ids()
            .map(|id| est.estimate(&NodeSet::singleton(id)).unwrap().normalized_us)
            .sum();
        assert!(p.total_estimated_time_us() <= singleton_total + 1e-6);
    }

    #[test]
    fn coarsening_respects_the_target_and_forced_levels() {
        let graph = App::SynthPipe.build(300).unwrap();
        let est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
        // A tiny target forces several levels; the result must still cover.
        let p = crate::PartitionRequest::new(&est)
            .with_algorithm(crate::Algorithm::Multilevel(
                MultilevelOptions::new()
                    .with_coarsen_target(8)
                    .with_max_levels(3),
            ))
            .run()
            .unwrap();
        p.validate_cover(&graph).unwrap();
    }

    #[test]
    fn multilevel_is_thread_count_invariant() {
        let graph = App::SynthPipe.build(300).unwrap();
        let est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
        let run = |threads: usize| {
            crate::PartitionRequest::new(&est)
                .with_algorithm(crate::Algorithm::Multilevel(MultilevelOptions::default()))
                .with_search(PartitionSearchOptions::new().with_threads(threads))
                .run()
                .unwrap()
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(parallel.iter()) {
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(
                a.estimate.normalized_us.to_bits(),
                b.estimate.normalized_us.to_bits()
            );
        }
    }

    #[test]
    fn refinement_strictly_improves_or_leaves_alone() {
        // A deliberately bad split of a chain: the first two filters in one
        // part, the rest in the other. Refinement may move the boundary but
        // must never raise the total estimate and must keep parts valid.
        let graph = App::SynthPipe.build(60).unwrap();
        let est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
        let feasible = FeasibilityCache::new(&graph);
        let ids: Vec<_> = graph.filter_ids().collect();
        let split = 2usize;
        let make_part = |ids: &[sgmap_graph::FilterId]| {
            let nodes = NodeSet::from_ids(ids.iter().copied());
            let (e, chars) = est.estimate_with_chars(&nodes);
            Part {
                nodes,
                estimate: e.expect("part fits"),
                chars,
            }
        };
        let mut parts = vec![make_part(&ids[..split]), make_part(&ids[split..])];
        // Only refine if the handmade split is actually feasible (the chain
        // prefix of a pipeline-family graph is).
        for part in &parts {
            assert!(part.nodes.is_connected(&graph) && part.nodes.is_convex(&graph));
        }
        let clusters: Vec<Part> = graph
            .filter_ids()
            .map(|id| singleton(&est, id).unwrap())
            .collect();
        let before: f64 = parts.iter().map(|p| p.estimate.normalized_us).sum();
        refine_level(&est, &graph, &feasible, 1, 32, &clusters, &mut parts);
        let after: f64 = parts.iter().map(|p| p.estimate.normalized_us).sum();
        assert!(
            after <= before + 1e-9,
            "refinement worsened: {before} -> {after}"
        );
        assert_eq!(parts.len(), 2, "refinement must not change the part count");
        let p: Partitioning = parts
            .into_iter()
            .map(|p| Partition::new(p.nodes, p.estimate))
            .collect();
        p.validate_cover(&graph).unwrap();
    }
}
