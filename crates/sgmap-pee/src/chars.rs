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
//! * [`merge_characteristics`] — characteristics of a *union* derived from
//!   the two operands plus the channels crossing between them; only the
//!   internal-buffer peak is rescanned (it depends on the interleaved firing
//!   schedule), everything else is pure integer algebra.
//!
//! All three produce identical `f64` bit patterns and identical integers
//! (the property suite enforces this on random graphs), so cache keys and
//! estimates are independent of which path computed them.

use std::collections::HashMap;

use sgmap_gpusim::profile::ProfileTable;
use sgmap_gpusim::sm_layout;
use sgmap_graph::{FilterId, FilterKind, NodeSet, RepetitionVector, StreamGraph, TopoIndex};

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
        let mut order: Vec<FilterId> = set.iter().collect();
        order.sort_unstable_by_key(|&id| self.topo.position(id));
        // Like the reference scan, the consumed-bytes map starts out holding
        // every internal channel at its full volume; producing a channel
        // overwrites the entry (with zero for elided splitters/joiners).
        let mut consumed_remaining: HashMap<usize, u64> = HashMap::new();
        for &fid in &order {
            for &c in graph.out_channels(fid) {
                if set.contains(graph.channel(c).dst) {
                    consumed_remaining.insert(c.index(), self.chan_bytes[c.index()]);
                }
            }
        }
        let mut live = 0u64;
        let mut peak = 0u64;
        for &fid in &order {
            for &c in graph.out_channels(fid) {
                let ch = graph.channel(c);
                if ch.feedback || !set.contains(ch.dst) {
                    continue;
                }
                let bytes = if enhanced && self.facts[fid.index()].reorder_only {
                    0
                } else {
                    self.chan_bytes[c.index()]
                };
                live += bytes;
                consumed_remaining.insert(c.index(), bytes);
            }
            peak = peak.max(live);
            for &c in graph.in_channels(fid) {
                let ch = graph.channel(c);
                if ch.feedback || !set.contains(ch.src) {
                    continue;
                }
                if let Some(bytes) = consumed_remaining.remove(&c.index()) {
                    live = live.saturating_sub(bytes);
                }
            }
        }
        peak
    }
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

/// Derives the characteristics of `a ∪ b` from the operands' [`SetChars`]
/// plus the channels crossing between the two (disjoint) sets, instead of
/// re-walking the union: the per-filter list is a sorted merge, the IO
/// volumes lose exactly the crossing bytes on each side, state and peek
/// bytes add, and only the internal-buffer peak is rescanned over the union.
/// Bit-identical to [`PartitionCharacteristics::from_set`] on the union.
#[allow(clippy::too_many_arguments)]
pub fn merge_characteristics(
    index: &CharsIndex,
    graph: &StreamGraph,
    enhanced: bool,
    a: &SetChars,
    a_set: &NodeSet,
    b: &SetChars,
    b_set: &NodeSet,
    union: &NodeSet,
) -> SetChars {
    // Sorted merge of the per-filter lists (both ascend by filter id; the
    // sets are disjoint, so no key appears twice).
    let mut filters = Vec::with_capacity(a.ids.len() + b.ids.len());
    let mut ids = Vec::with_capacity(a.ids.len() + b.ids.len());
    let (mut i, mut j) = (0, 0);
    while i < a.ids.len() && j < b.ids.len() {
        if a.ids[i] < b.ids[j] {
            filters.push(a.chars.filters[i]);
            ids.push(a.ids[i]);
            i += 1;
        } else {
            filters.push(b.chars.filters[j]);
            ids.push(b.ids[j]);
            j += 1;
        }
    }
    filters.extend_from_slice(&a.chars.filters[i..]);
    ids.extend_from_slice(&a.ids[i..]);
    filters.extend_from_slice(&b.chars.filters[j..]);
    ids.extend_from_slice(&b.ids[j..]);

    // Bytes of the channels crossing between the operands: each such channel
    // was boundary input of exactly one operand and boundary output of the
    // other, and is internal to the union. Scanning the smaller side's
    // incident channels sees every crossing channel exactly once.
    let (small, other) = if a_set.len() <= b_set.len() {
        (a_set, b_set)
    } else {
        (b_set, a_set)
    };
    let mut cross_bytes = 0u64;
    for id in small.iter() {
        for &c in graph.in_channels(id) {
            if other.contains(graph.channel(c).src) {
                cross_bytes += index.chan_bytes[c.index()];
            }
        }
        for &c in graph.out_channels(id) {
            if other.contains(graph.channel(c).dst) {
                cross_bytes += index.chan_bytes[c.index()];
            }
        }
    }

    SetChars::assemble(
        filters,
        ids,
        a.chars.max_firing_rate.max(b.chars.max_firing_rate),
        a.input_bytes + b.input_bytes - cross_bytes,
        a.output_bytes + b.output_bytes - cross_bytes,
        a.state_bytes + b.state_bytes,
        a.peek_bytes + b.peek_bytes,
        index.internal_peak(graph, union, enhanced),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgmap_gpusim::profile::profile_graph;
    use sgmap_gpusim::GpuSpec;
    use sgmap_graph::{GraphBuilder, JoinKind, SplitKind, StreamSpec};

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
        let assert_same = |a: &PartitionCharacteristics, b: &PartitionCharacteristics| {
            assert_eq!(a.filters.len(), b.filters.len());
            for ((ta, fa), (tb, fb)) in a.filters.iter().zip(&b.filters) {
                assert_eq!(ta.to_bits(), tb.to_bits());
                assert_eq!(fa, fb);
            }
            assert_eq!(a.io_bytes_per_exec, b.io_bytes_per_exec);
            assert_eq!(a.sm_bytes_per_exec, b.sm_bytes_per_exec);
            assert_eq!(a.max_firing_rate, b.max_firing_rate);
        };
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
                    &index.for_set(&g, &front, enhanced),
                    &front,
                    &index.for_set(&g, &back, enhanced),
                    &back,
                    &all,
                );
                assert_same(&merged.chars, &reference);
                assert_eq!(merged, index.for_set(&g, &all, enhanced));
            }
        }
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
