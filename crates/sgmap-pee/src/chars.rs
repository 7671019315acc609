//! The abstract characteristics of a partition that the performance model
//! consumes.
//!
//! [`PartitionCharacteristics::from_set`] is the reference definition: it
//! re-walks the whole graph (a topological sort plus three full channel
//! scans) for every query. The partition search asks for characteristics
//! thousands of times per compile, so this module also provides an
//! incremental path that is bit-identical to the reference:
//!
//! * [`CharsIndex`] — per-graph precomputation (topological positions,
//!   per-channel byte volumes, per-filter facts) built once per estimator,
//! * [`CharsIndex::for_set`] — characteristics of an arbitrary set in
//!   O(|set| · degree) instead of O(|graph|),
//! * [`merge_characteristics`] — characteristics of a *union* of two or
//!   more disjoint operands, derived from the operands plus the channels
//!   crossing between them; only the internal-buffer peak is rescanned (it
//!   depends on the interleaved firing schedule), everything else is pure
//!   integer algebra,
//! * [`subtract_characteristics`] — characteristics of what is left of a
//!   set when a subset is taken out, derived from the two bundles plus the
//!   subset's channels; again only the internal-buffer peak is rescanned.
//!
//! All four produce identical `f64` bit patterns and identical integers
//! (the property suite enforces this on random graphs), so cache keys and
//! estimates are independent of which path computed them. A union of three
//! operands derived in one step equals the two-step derivation through the
//! intermediate union: the filter list is the same sorted merge, the IO,
//! state and peek byte counts are integer sums (associative, so the order of
//! the additions cannot matter), and the one non-algebraic component, the
//! internal peak, is computed over the final union either way. So the
//! intermediate union's peak is never needed, and the one-step derivation
//! skips its scan.
//!
//! Subtraction inverts a two-operand merge. The remaining per-filter list is
//! the sorted list difference. A channel between the subset and the rest is
//! boundary IO of each on one side and internal to the whole, so the rest's
//! input and output bytes are the whole's plus those crossing bytes minus
//! the subset's; state and peek bytes subtract. The highest firing rate
//! does not subtract and is retaken over the remaining list, and the
//! internal peak is rescanned over the rest as a merge rescans the union.
//! All of it is integer algebra on exact values, so the result equals a
//! fresh walk bit for bit. A refinement move prices the part a cluster
//! leaves behind this way, walking the cluster instead of the part.
//!
//! The internal peak is one pass over the set in firing order with no table
//! of buffers: a channel's consumer subtracts what its producer added when
//! the producer fired first, and the channel's full volume (the reference
//! scan's initial value) when it did not, which happens only in the id-order
//! fallback for graphs whose forward channels form a cycle. The pass runs on
//! a per-thread scratch (`PeakScratch`), so it allocates nothing and tests
//! a channel's far end for membership with one load.

use std::cell::RefCell;

use sgmap_gpusim::profile::ProfileTable;
use sgmap_gpusim::sm_layout;
use sgmap_graph::{
    ChannelId, FilterId, FilterKind, NodeSet, RepetitionVector, StreamGraph, TopoIndex,
};

/// Everything the performance model needs to know about a partition,
/// independent of the kernel parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionCharacteristics {
    /// Per member filter: `(t_i, f_i)` — single-thread time of all firings in
    /// one execution (microseconds) and the firing rate.
    pub filters: Vec<(f64, u64)>,
    /// Primary IO bytes per execution (`D / W`).
    pub io_bytes_per_exec: u64,
    /// Shared-memory bytes needed by one execution.
    pub sm_bytes_per_exec: u64,
    /// Highest firing rate among the member filters (bounds useful values of
    /// `S`).
    pub max_firing_rate: u64,
}

impl PartitionCharacteristics {
    /// Builds the characteristics of partition `set` of `graph`.
    ///
    /// `enhanced` applies the splitter/joiner elimination of Chapter V:
    /// splitters and joiners contribute neither compute time nor extra
    /// shared-memory buffers.
    pub fn from_set(
        graph: &StreamGraph,
        set: &NodeSet,
        reps: &RepetitionVector,
        profile: &ProfileTable,
        enhanced: bool,
    ) -> Self {
        let mut filters = Vec::with_capacity(set.len());
        let mut max_firing_rate = 1u64;
        for id in set.iter() {
            if enhanced && graph.filter(id).is_reorder_only() {
                continue;
            }
            let firings = reps[id.index()];
            let t_i = profile.iteration_time_us(id, reps);
            filters.push((t_i, firings));
            max_firing_rate = max_firing_rate.max(firings);
        }
        let fp = sm_layout::footprint(graph, set, reps, enhanced);
        PartitionCharacteristics {
            filters,
            io_bytes_per_exec: fp.io_bytes(),
            sm_bytes_per_exec: fp.per_execution_bytes(),
            max_firing_rate,
        }
    }

    /// Sum of the filters' single-thread times per execution (microseconds).
    pub fn serial_compute_us(&self) -> f64 {
        self.filters.iter().map(|(t, _)| *t).sum()
    }

    /// Shared-memory bytes of a kernel running `w` executions plus the double
    /// buffer.
    pub fn kernel_sm_bytes(&self, w: u32) -> u64 {
        u64::from(w) * self.sm_bytes_per_exec + self.io_bytes_per_exec
    }

    /// Returns `true` if the partition contains no compute work at all.
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }
}

/// Everything about one filter that characteristics computations read,
/// resolved once per graph.
#[derive(Debug, Clone)]
struct FilterFacts {
    /// Single-thread time of all firings in one execution (`t_i`), µs.
    t_us: f64,
    /// Firing rate (`f_i`).
    firings: u64,
    /// `true` for splitters/joiners the enhanced mode elides.
    reorder_only: bool,
    /// Persistent per-filter state bytes.
    state_bytes: u64,
    /// Extra bytes retained by peeking (`(peek - pop) · token_bytes`).
    peek_extra_bytes: u64,
    /// Primary input bytes per execution (sources only).
    primary_input_bytes: u64,
    /// Primary output bytes per execution (sinks only).
    primary_output_bytes: u64,
}

/// Per-graph precomputation for the incremental characteristics path.
///
/// Holds the deterministic scan order (topological positions, or filter-id
/// order for cyclic graphs — the same fallback [`sm_layout::footprint`]
/// uses), per-channel byte volumes and per-filter facts, so a
/// characteristics query touches only the queried set and its incident
/// channels.
#[derive(Debug, Clone)]
pub struct CharsIndex {
    /// Filter → position in the deterministic firing-scan order.
    topo: TopoIndex,
    /// Channel index → bytes moved per steady-state iteration.
    chan_bytes: Vec<u64>,
    facts: Vec<FilterFacts>,
}

impl CharsIndex {
    /// Precomputes the index for `graph` under `reps` and `profile`.
    pub fn new(graph: &StreamGraph, reps: &RepetitionVector, profile: &ProfileTable) -> Self {
        let topo = TopoIndex::new(graph);
        let chan_bytes = graph
            .channels()
            .map(|(cid, _)| graph.channel_iteration_bytes(cid, reps))
            .collect();
        let facts = graph
            .filters()
            .map(|(id, f)| {
                let firings = reps[id.index()];
                FilterFacts {
                    t_us: profile.iteration_time_us(id, reps),
                    firings,
                    reorder_only: f.is_reorder_only(),
                    state_bytes: u64::from(f.state_bytes),
                    peek_extra_bytes: if f.peek > f.pop {
                        u64::from(f.peek - f.pop) * u64::from(f.token_bytes)
                    } else {
                        0
                    },
                    primary_input_bytes: match f.kind {
                        FilterKind::Source => {
                            firings * u64::from(f.push) * u64::from(f.token_bytes)
                        }
                        _ => 0,
                    },
                    primary_output_bytes: match f.kind {
                        FilterKind::Sink => firings * u64::from(f.pop) * u64::from(f.token_bytes),
                        _ => 0,
                    },
                }
            })
            .collect();
        CharsIndex {
            topo,
            chan_bytes,
            facts,
        }
    }

    /// Builds the characteristics of `set` by walking only the set and its
    /// incident channels. Bit-identical to
    /// [`PartitionCharacteristics::from_set`].
    pub fn for_set(&self, graph: &StreamGraph, set: &NodeSet, enhanced: bool) -> SetChars {
        let mut filters = Vec::with_capacity(set.len());
        let mut ids = Vec::with_capacity(set.len());
        let mut max_firing_rate = 1u64;
        let mut input_bytes = 0u64;
        let mut output_bytes = 0u64;
        let mut state_bytes = 0u64;
        let mut peek_bytes = 0u64;
        for id in set.iter() {
            let fx = &self.facts[id.index()];
            if !(enhanced && fx.reorder_only) {
                filters.push((fx.t_us, fx.firings));
                ids.push(id);
                max_firing_rate = max_firing_rate.max(fx.firings);
            }
            input_bytes += fx.primary_input_bytes;
            output_bytes += fx.primary_output_bytes;
            state_bytes += fx.state_bytes;
            peek_bytes += fx.peek_extra_bytes;
            for &c in graph.in_channels(id) {
                if !set.contains(graph.channel(c).src) {
                    input_bytes += self.chan_bytes[c.index()];
                }
            }
            for &c in graph.out_channels(id) {
                if !set.contains(graph.channel(c).dst) {
                    output_bytes += self.chan_bytes[c.index()];
                }
            }
        }
        let internal_peak_bytes = self.internal_peak(graph, set, enhanced);
        SetChars::assemble(
            filters,
            ids,
            max_firing_rate,
            input_bytes,
            output_bytes,
            state_bytes,
            peek_bytes,
            internal_peak_bytes,
        )
    }

    /// The peak of the internal channel buffers that are live simultaneously
    /// under the deterministic firing scan, restricted to `set`. This is the
    /// one component of a union's characteristics that cannot be derived
    /// from the operands (it depends on the interleaved schedule), so both
    /// [`CharsIndex::for_set`] and [`merge_characteristics`] recompute it
    /// with exactly the arithmetic of [`sm_layout::footprint`].
    fn internal_peak(&self, graph: &StreamGraph, set: &NodeSet, enhanced: bool) -> u64 {
        // The reference scan starts every internal channel at its full
        // volume, overwrites it with the produced bytes (zero for elided
        // splitters/joiners) when the source fires, and subtracts what it
        // holds when the destination consumes. So a consumer that fires after
        // its source subtracts the produced bytes, and one that fires first
        // (only in the id-order fallback for cyclic graphs) subtracts the full
        // volume; the source's later production then stays live. Feedback
        // channels are never produced or consumed.
        PEAK_SCRATCH.with(|scratch| {
            let PeakScratch {
                order,
                member,
                epoch,
            } = &mut *scratch.borrow_mut();
            if member.len() < graph.filter_count() {
                member.resize(graph.filter_count(), 0);
            }
            *epoch = epoch.wrapping_add(1);
            if *epoch == 0 {
                // The stamps wrapped: clear them once and start over.
                member.fill(0);
                *epoch = 1;
            }
            let epoch = *epoch;
            order.clear();
            for id in set.iter() {
                member[id.index()] = epoch;
                order.push((self.topo.position(id), id));
            }
            // Positions are distinct, so this is the scan order by position.
            order.sort_unstable();
            let in_set = |id: FilterId| member[id.index()] == epoch;
            let produced = |src: FilterId, c: ChannelId| {
                if enhanced && self.facts[src.index()].reorder_only {
                    0
                } else {
                    self.chan_bytes[c.index()]
                }
            };
            let mut live = 0u64;
            let mut peak = 0u64;
            for &(position, fid) in order.iter() {
                for &c in graph.out_channels(fid) {
                    let ch = graph.channel(c);
                    if !ch.feedback && in_set(ch.dst) {
                        live += produced(fid, c);
                    }
                }
                peak = peak.max(live);
                for &c in graph.in_channels(fid) {
                    let ch = graph.channel(c);
                    if ch.feedback || !in_set(ch.src) {
                        continue;
                    }
                    let bytes = if self.topo.position(ch.src) <= position {
                        produced(ch.src, c)
                    } else {
                        self.chan_bytes[c.index()]
                    };
                    live = live.saturating_sub(bytes);
                }
            }
            peak
        })
    }
}

/// The buffers of one internal-peak scan, reused across calls on a thread:
/// the set in scan order, and member marks that are epoch stamps indexed by
/// filter id (a filter is in the scanned set exactly when its stamp holds
/// the current epoch), so a scan allocates nothing, clears nothing and
/// tests membership with one load instead of a binary search. The partition
/// search derives characteristics on its scoped worker threads, each of
/// which keeps one scratch.
#[derive(Debug, Default)]
struct PeakScratch {
    order: Vec<(usize, FilterId)>,
    member: Vec<u32>,
    epoch: u32,
}

thread_local! {
    static PEAK_SCRATCH: RefCell<PeakScratch> = RefCell::default();
}

/// [`PartitionCharacteristics`] plus the decomposition needed to derive a
/// union's characteristics from its operands.
#[derive(Debug, Clone, PartialEq)]
pub struct SetChars {
    /// The characteristics the performance model consumes.
    pub chars: PartitionCharacteristics,
    /// Filter ids aligned with `chars.filters` (reorder-only filters are
    /// absent in enhanced mode, exactly as in `chars.filters`).
    ids: Vec<FilterId>,
    /// Boundary + primary input bytes per execution.
    input_bytes: u64,
    /// Boundary + primary output bytes per execution.
    output_bytes: u64,
    /// Persistent state bytes of the members.
    state_bytes: u64,
    /// Peek-retention bytes of the members.
    peek_bytes: u64,
    /// Peak of simultaneously live internal buffers.
    internal_peak_bytes: u64,
}

impl SetChars {
    /// The per-filter list and the ids aligned with it.
    fn filter_lists(&self) -> (&[(f64, u64)], &[FilterId]) {
        (&self.chars.filters, &self.ids)
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        filters: Vec<(f64, u64)>,
        ids: Vec<FilterId>,
        max_firing_rate: u64,
        input_bytes: u64,
        output_bytes: u64,
        state_bytes: u64,
        peek_bytes: u64,
        internal_peak_bytes: u64,
    ) -> Self {
        let io_bytes_per_exec = input_bytes + output_bytes;
        SetChars {
            chars: PartitionCharacteristics {
                filters,
                io_bytes_per_exec,
                sm_bytes_per_exec: internal_peak_bytes
                    + io_bytes_per_exec
                    + state_bytes
                    + peek_bytes,
                max_firing_rate,
            },
            ids,
            input_bytes,
            output_bytes,
            state_bytes,
            peek_bytes,
            internal_peak_bytes,
        }
    }
}

/// Derives the characteristics of the union of disjoint `operands` (each a
/// node set with its [`SetChars`]) instead of re-walking the union: the
/// per-filter list is a sorted merge, the IO volumes lose exactly the bytes
/// of the channels crossing between operands on each side, state and peek
/// bytes add, and only the internal-buffer peak is rescanned, once, over
/// `union`, which must equal the operands' union. Bit-identical to
/// [`PartitionCharacteristics::from_set`] on the union.
pub fn merge_characteristics(
    index: &CharsIndex,
    graph: &StreamGraph,
    enhanced: bool,
    operands: &[(&NodeSet, &SetChars)],
    union: &NodeSet,
) -> SetChars {
    // Sorted merge of the per-filter lists, one operand at a time (each list
    // ascends by filter id; the sets are disjoint, so no key appears twice).
    let (first, rest) = operands.split_first().expect("at least one operand");
    let (mut filters, mut ids) = match rest.first() {
        None => (first.1.chars.filters.clone(), first.1.ids.clone()),
        Some(second) => merge_filter_lists(first.1.filter_lists(), second.1.filter_lists()),
    };
    for (_, chars) in rest.iter().skip(1) {
        (filters, ids) = merge_filter_lists((&filters, &ids), chars.filter_lists());
    }

    // Bytes of the channels crossing between operands: each such channel was
    // boundary input of one operand and boundary output of another, and is
    // internal to the union. The largest operand is not scanned; every other
    // one counts its inputs from the other operands and its outputs into the
    // largest operand, which sees every crossing channel exactly once.
    let largest = (0..operands.len())
        .max_by_key(|&k| operands[k].0.len())
        .expect("at least one operand");
    let largest_set = operands[largest].0;
    let mut cross_bytes = 0u64;
    for (k, (set, _)) in operands.iter().enumerate() {
        if k == largest {
            continue;
        }
        for id in set.iter() {
            for &c in graph.in_channels(id) {
                let src = graph.channel(c).src;
                let from_another = operands
                    .iter()
                    .enumerate()
                    .any(|(j, (operand, _))| j != k && operand.contains(src));
                if from_another {
                    cross_bytes += index.chan_bytes[c.index()];
                }
            }
            for &c in graph.out_channels(id) {
                if largest_set.contains(graph.channel(c).dst) {
                    cross_bytes += index.chan_bytes[c.index()];
                }
            }
        }
    }

    let sum = |field: fn(&SetChars) -> u64| operands.iter().map(|(_, c)| field(c)).sum::<u64>();
    SetChars::assemble(
        filters,
        ids,
        operands
            .iter()
            .map(|(_, c)| c.chars.max_firing_rate)
            .max()
            .expect("at least one operand"),
        sum(|c| c.input_bytes) - cross_bytes,
        sum(|c| c.output_bytes) - cross_bytes,
        sum(|c| c.state_bytes),
        sum(|c| c.peek_bytes),
        index.internal_peak(graph, union, enhanced),
    )
}

/// Derives the characteristics of `rest`, the members of the set described
/// by `whole` that are not in `part` (a subset of that set), instead of
/// re-walking `rest`: the per-filter list is the sorted difference of the
/// two lists, the IO volumes gain the bytes of the channels crossing
/// between `part` and `rest` and lose `part`'s, state and peek bytes
/// subtract, and only the internal-buffer peak is rescanned, over `rest`.
/// Walks `part`'s channels, not `rest`'s. Bit-identical to
/// [`PartitionCharacteristics::from_set`] on `rest`.
pub fn subtract_characteristics(
    index: &CharsIndex,
    graph: &StreamGraph,
    enhanced: bool,
    whole: &SetChars,
    part: (&NodeSet, &SetChars),
    rest: &NodeSet,
) -> SetChars {
    let (part_set, part_chars) = part;
    // The list difference copies the runs of `whole` between `part`'s ids;
    // each id is located by binary search past the previous one.
    let kept = whole.ids.len() - part_chars.ids.len();
    let mut filters = Vec::with_capacity(kept);
    let mut ids = Vec::with_capacity(kept);
    let mut start = 0;
    for &id in &part_chars.ids {
        let at = start + whole.ids[start..].partition_point(|&w| w < id);
        filters.extend_from_slice(&whole.chars.filters[start..at]);
        ids.extend_from_slice(&whole.ids[start..at]);
        start = at + 1;
    }
    filters.extend_from_slice(&whole.chars.filters[start..]);
    ids.extend_from_slice(&whole.ids[start..]);
    let max_firing_rate = filters.iter().map(|&(_, f)| f).fold(1, u64::max);

    // Bytes of the channels between `part` and `rest`, in either direction.
    let mut cross_bytes = 0u64;
    for id in part_set.iter() {
        for &c in graph.in_channels(id) {
            if rest.contains(graph.channel(c).src) {
                cross_bytes += index.chan_bytes[c.index()];
            }
        }
        for &c in graph.out_channels(id) {
            if rest.contains(graph.channel(c).dst) {
                cross_bytes += index.chan_bytes[c.index()];
            }
        }
    }

    SetChars::assemble(
        filters,
        ids,
        max_firing_rate,
        whole.input_bytes + cross_bytes - part_chars.input_bytes,
        whole.output_bytes + cross_bytes - part_chars.output_bytes,
        whole.state_bytes - part_chars.state_bytes,
        whole.peek_bytes - part_chars.peek_bytes,
        index.internal_peak(graph, rest, enhanced),
    )
}

/// Merges two per-filter lists ascending by filter id, copying whole runs:
/// each run's end is found by binary search, so merging a small list into a
/// large one costs a few searches plus the copy.
fn merge_filter_lists(
    a: (&[(f64, u64)], &[FilterId]),
    b: (&[(f64, u64)], &[FilterId]),
) -> (Vec<(f64, u64)>, Vec<FilterId>) {
    let mut filters = Vec::with_capacity(a.1.len() + b.1.len());
    let mut ids = Vec::with_capacity(a.1.len() + b.1.len());
    let (mut i, mut j) = (0, 0);
    while i < a.1.len() && j < b.1.len() {
        if a.1[i] < b.1[j] {
            let end = i + a.1[i..].partition_point(|&id| id < b.1[j]);
            filters.extend_from_slice(&a.0[i..end]);
            ids.extend_from_slice(&a.1[i..end]);
            i = end;
        } else {
            let end = j + b.1[j..].partition_point(|&id| id < a.1[i]);
            filters.extend_from_slice(&b.0[j..end]);
            ids.extend_from_slice(&b.1[j..end]);
            j = end;
        }
    }
    filters.extend_from_slice(&a.0[i..]);
    ids.extend_from_slice(&a.1[i..]);
    filters.extend_from_slice(&b.0[j..]);
    ids.extend_from_slice(&b.1[j..]);
    (filters, ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgmap_gpusim::profile::profile_graph;
    use sgmap_gpusim::GpuSpec;
    use sgmap_graph::{Filter, GraphBuilder, JoinKind, SplitKind, StreamSpec};

    fn assert_same(a: &PartitionCharacteristics, b: &PartitionCharacteristics) {
        assert_eq!(a.filters.len(), b.filters.len());
        for ((ta, fa), (tb, fb)) in a.filters.iter().zip(&b.filters) {
            assert_eq!(ta.to_bits(), tb.to_bits());
            assert_eq!(fa, fb);
        }
        assert_eq!(a.io_bytes_per_exec, b.io_bytes_per_exec);
        assert_eq!(a.sm_bytes_per_exec, b.sm_bytes_per_exec);
        assert_eq!(a.max_firing_rate, b.max_firing_rate);
    }

    fn graph_with_split() -> StreamGraph {
        let spec = StreamSpec::pipeline(vec![
            StreamSpec::filter("src", 0, 2, 1.0),
            StreamSpec::split_join(
                SplitKind::RoundRobin(vec![1, 1]),
                vec![
                    StreamSpec::filter("a", 1, 1, 40.0),
                    StreamSpec::filter("b", 1, 1, 40.0),
                ],
                JoinKind::RoundRobin(vec![1, 1]),
            ),
            StreamSpec::filter("sink", 2, 0, 1.0),
        ]);
        GraphBuilder::new("t").build(spec).unwrap()
    }

    #[test]
    fn characteristics_aggregate_profile_times() {
        let g = graph_with_split();
        let reps = g.repetition_vector().unwrap();
        let gpu = GpuSpec::m2090();
        let prof = profile_graph(&g, &gpu);
        let all = NodeSet::all(&g);
        let chars = PartitionCharacteristics::from_set(&g, &all, &reps, &prof, false);
        assert_eq!(chars.filters.len(), g.filter_count());
        assert!(chars.serial_compute_us() > 0.0);
        assert!(chars.io_bytes_per_exec > 0);
        assert!(chars.kernel_sm_bytes(2) > chars.kernel_sm_bytes(1));
    }

    #[test]
    fn indexed_and_merged_characteristics_match_from_set_bit_for_bit() {
        let g = graph_with_split();
        let reps = g.repetition_vector().unwrap();
        let gpu = GpuSpec::m2090();
        let prof = profile_graph(&g, &gpu);
        let index = CharsIndex::new(&g, &reps, &prof);
        for enhanced in [false, true] {
            // Every singleton and the whole graph.
            for id in g.filter_ids() {
                let set = NodeSet::singleton(id);
                let reference =
                    PartitionCharacteristics::from_set(&g, &set, &reps, &prof, enhanced);
                assert_same(&index.for_set(&g, &set, enhanced).chars, &reference);
            }
            let all = NodeSet::all(&g);
            let reference = PartitionCharacteristics::from_set(&g, &all, &reps, &prof, enhanced);
            assert_same(&index.for_set(&g, &all, enhanced).chars, &reference);
            // A union derived incrementally from a front/back split.
            let ids: Vec<_> = g.filter_ids().collect();
            for split_at in 1..ids.len() {
                let front = NodeSet::from_ids(ids[..split_at].iter().copied());
                let back = NodeSet::from_ids(ids[split_at..].iter().copied());
                let merged = merge_characteristics(
                    &index,
                    &g,
                    enhanced,
                    &[
                        (&front, &index.for_set(&g, &front, enhanced)),
                        (&back, &index.for_set(&g, &back, enhanced)),
                    ],
                    &all,
                );
                assert_same(&merged.chars, &reference);
                assert_eq!(merged, index.for_set(&g, &all, enhanced));
            }
        }
    }

    /// Graphs whose forward (non-feedback) channels form a cycle, so the
    /// scan order is the filter ids and some consumers fire before their
    /// producers. Channel volumes differ, so a wrong subtraction shows.
    fn forward_cyclic_graphs() -> Vec<StreamGraph> {
        let split = FilterKind::Splitter(SplitKind::Duplicate);
        let join = FilterKind::Joiner(JoinKind::RoundRobin(vec![1, 1]));
        let mut graphs = Vec::new();

        // A split-join whose joiner feeds back into filter 0, the first in
        // the scan, with a source and a sink hanging off the cycle.
        let mut g = StreamGraph::new("back-edge-into-first");
        let a = g.add_filter(Filter::new("a", 2, 1, 3.0).with_token_bytes(8));
        let s = g.add_filter(Filter::new("split", 1, 2, 0.0).with_kind(split.clone()));
        let b = g.add_filter(Filter::new("b", 1, 1, 7.0).with_token_bytes(12));
        let c = g.add_filter(Filter::new("c", 1, 1, 11.0).with_token_bytes(16));
        let j = g.add_filter(
            Filter::new("join", 2, 2, 0.0)
                .with_kind(join.clone())
                .with_token_bytes(20),
        );
        let src = g.add_filter(Filter::new("src", 0, 1, 1.0).with_token_bytes(24));
        let sink = g.add_filter(Filter::new("sink", 1, 0, 1.0));
        for (from, to) in [
            (src, a),
            (a, s),
            (s, b),
            (s, c),
            (b, j),
            (c, j),
            (j, a),
            (j, sink),
        ] {
            g.add_channel(from, to, 1, 1).unwrap();
        }
        graphs.push(g);

        // A pipeline looping back into its middle, with unequal rates, a
        // splitter inside the loop and a feedback channel alongside.
        let mut g = StreamGraph::new("back-edge-into-middle");
        let src = g.add_filter(Filter::new("src", 0, 2, 1.0).with_token_bytes(4));
        let x = g.add_filter(Filter::new("x", 3, 1, 5.0).with_token_bytes(8));
        let s = g.add_filter(
            Filter::new("split", 1, 2, 0.0)
                .with_kind(split)
                .with_token_bytes(12),
        );
        let y = g.add_filter(Filter::new("y", 1, 1, 9.0).with_token_bytes(16));
        let sink = g.add_filter(Filter::new("sink", 1, 0, 2.0));
        g.add_channel(src, x, 2, 2).unwrap();
        g.add_channel(x, s, 1, 1).unwrap();
        g.add_channel(s, y, 1, 1).unwrap();
        g.add_channel(y, x, 1, 1).unwrap();
        g.add_channel(s, sink, 1, 1).unwrap();
        g.add_feedback_channel(sink, src, 1, 1, 1).unwrap();
        graphs.push(g);

        // Two cycles sharing a joiner, and a source whose id is the highest,
        // so its channel also runs against id order.
        let mut g = StreamGraph::new("two-cycles");
        let p = g.add_filter(Filter::new("p", 2, 1, 4.0).with_token_bytes(8));
        let q = g.add_filter(Filter::new("q", 1, 2, 6.0).with_token_bytes(4));
        let j = g.add_filter(
            Filter::new("join", 2, 2, 0.0)
                .with_kind(join)
                .with_token_bytes(16),
        );
        let r = g.add_filter(Filter::new("r", 1, 1, 8.0).with_token_bytes(32));
        let src = g.add_filter(Filter::new("src", 0, 1, 1.0).with_token_bytes(64));
        g.add_channel(src, p, 1, 1).unwrap();
        g.add_channel(p, q, 1, 1).unwrap();
        g.add_channel(q, j, 1, 1).unwrap();
        g.add_channel(q, r, 1, 1).unwrap();
        g.add_channel(r, j, 1, 1).unwrap();
        g.add_channel(j, p, 1, 1).unwrap();
        g.add_channel(j, q, 1, 1).unwrap();
        graphs.push(g);
        graphs
    }

    #[test]
    fn forward_cyclic_graphs_match_from_set_on_every_subset() {
        let gpu = GpuSpec::m2090();
        for g in forward_cyclic_graphs() {
            assert!(!TopoIndex::new(&g).is_acyclic(), "{}", g.name());
            let reps = g.repetition_vector().unwrap();
            let prof = profile_graph(&g, &gpu);
            let index = CharsIndex::new(&g, &reps, &prof);
            let ids: Vec<_> = g.filter_ids().collect();
            let subset = |mask: u32| {
                NodeSet::from_ids(
                    ids.iter()
                        .enumerate()
                        .filter_map(|(k, &id)| (mask & (1 << k) != 0).then_some(id)),
                )
            };
            let mut internal_peaks = std::collections::BTreeSet::new();
            for enhanced in [false, true] {
                for mask in 1..1u32 << ids.len() {
                    let union = subset(mask);
                    let reference =
                        PartitionCharacteristics::from_set(&g, &union, &reps, &prof, enhanced);
                    let direct = index.for_set(&g, &union, enhanced);
                    assert_same(&direct.chars, &reference);
                    internal_peaks.insert(direct.internal_peak_bytes);
                    // Every split of the set into two operands.
                    let mut part = (mask - 1) & mask;
                    while part != 0 {
                        let (front, back) = (subset(part), subset(mask & !part));
                        let merged = merge_characteristics(
                            &index,
                            &g,
                            enhanced,
                            &[
                                (&front, &index.for_set(&g, &front, enhanced)),
                                (&back, &index.for_set(&g, &back, enhanced)),
                            ],
                            &union,
                        );
                        assert_eq!(merged, direct, "{} {mask:b} = {part:b} + rest", g.name());
                        part = (part - 1) & mask;
                    }
                }
            }
            // The graphs give the scan distinct peaks to get right.
            assert!(internal_peaks.len() > 3, "{}: {internal_peaks:?}", g.name());
        }
    }

    /// Asserts that taking each of `parts` out of `whole` and subtracting
    /// its characteristics gives a fresh walk's, bit for bit.
    fn assert_subtractions_match(
        index: &CharsIndex,
        g: &StreamGraph,
        enhanced: bool,
        whole: &NodeSet,
        parts: impl IntoIterator<Item = NodeSet>,
    ) {
        let whole_chars = index.for_set(g, whole, enhanced);
        for part in parts {
            let rest = whole.difference(&part);
            let subtracted = subtract_characteristics(
                index,
                g,
                enhanced,
                &whole_chars,
                (&part, &index.for_set(g, &part, enhanced)),
                &rest,
            );
            assert_eq!(
                subtracted,
                index.for_set(g, &rest, enhanced),
                "{}: {:?} \\ {:?} (enhanced: {enhanced})",
                g.name(),
                whole.as_slice(),
                part.as_slice()
            );
        }
    }

    /// Every non-empty proper subset of `members`.
    fn proper_subsets(members: &[FilterId]) -> impl Iterator<Item = NodeSet> + '_ {
        (1..(1u32 << members.len()) - 1).map(move |mask| {
            NodeSet::from_ids(
                members
                    .iter()
                    .enumerate()
                    .filter_map(|(k, &id)| (mask & (1 << k) != 0).then_some(id)),
            )
        })
    }

    #[test]
    fn subtracted_characteristics_match_for_set_on_every_split() {
        let gpu = GpuSpec::m2090();
        // The forward-cyclic graphs: every set split into a part and a
        // non-empty rest, every way.
        for g in forward_cyclic_graphs() {
            let reps = g.repetition_vector().unwrap();
            let index = CharsIndex::new(&g, &reps, &profile_graph(&g, &gpu));
            let ids: Vec<_> = g.filter_ids().collect();
            for enhanced in [false, true] {
                for whole in proper_subsets(&ids).chain([NodeSet::all(&g)]) {
                    assert_subtractions_match(
                        &index,
                        &g,
                        enhanced,
                        &whole,
                        proper_subsets(whole.as_slice()),
                    );
                }
            }
        }
        // The applications at their largest quick size: every window of up
        // to six filters in firing order split every way, and the whole
        // graph less every window of up to four.
        for app in sgmap_apps::App::all() {
            let g = app.build(*app.quick_n_values().last().unwrap()).unwrap();
            let reps = g.repetition_vector().unwrap();
            let index = CharsIndex::new(&g, &reps, &profile_graph(&g, &gpu));
            let topo = TopoIndex::new(&g);
            let mut order: Vec<_> = g.filter_ids().collect();
            order.sort_by_key(|&id| topo.position(id));
            let windows = |len: usize| {
                order
                    .windows(len)
                    .map(|w| NodeSet::from_ids(w.iter().copied()))
            };
            for enhanced in [false, true] {
                for len in 2..=6 {
                    for whole in windows(len) {
                        assert_subtractions_match(
                            &index,
                            &g,
                            enhanced,
                            &whole,
                            proper_subsets(whole.as_slice()),
                        );
                    }
                }
                let all = NodeSet::all(&g);
                assert_subtractions_match(&index, &g, enhanced, &all, (1..=4).flat_map(windows));
            }
        }
    }

    #[test]
    fn peak_scans_on_reused_scratch_match_from_set_across_the_epoch_wrap() {
        let g = graph_with_split();
        let reps = g.repetition_vector().unwrap();
        let prof = profile_graph(&g, &GpuSpec::m2090());
        let index = CharsIndex::new(&g, &reps, &prof);
        let ids: Vec<_> = g.filter_ids().collect();
        // Start two scans short of the wrap; every answer must stay put
        // while the stamps wrap and are cleared.
        PEAK_SCRATCH.with(|scratch| scratch.borrow_mut().epoch = u32::MAX - 2);
        for set in proper_subsets(&ids).take(8) {
            let reference = PartitionCharacteristics::from_set(&g, &set, &reps, &prof, false);
            assert_same(&index.for_set(&g, &set, false).chars, &reference);
        }
        PEAK_SCRATCH.with(|scratch| assert!(scratch.borrow().epoch < 100));
    }

    #[test]
    fn enhanced_mode_drops_splitters_and_joiners() {
        let g = graph_with_split();
        let reps = g.repetition_vector().unwrap();
        let gpu = GpuSpec::m2090();
        let prof = profile_graph(&g, &gpu);
        let all = NodeSet::all(&g);
        let plain = PartitionCharacteristics::from_set(&g, &all, &reps, &prof, false);
        let enhanced = PartitionCharacteristics::from_set(&g, &all, &reps, &prof, true);
        assert_eq!(plain.filters.len(), enhanced.filters.len() + 2);
        assert!(enhanced.serial_compute_us() < plain.serial_compute_us());
        assert!(enhanced.sm_bytes_per_exec <= plain.sm_bytes_per_exec);
    }
}
