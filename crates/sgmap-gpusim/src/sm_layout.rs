//! Shared-memory footprint of a partition.
//!
//! In the one-kernel-for-graph execution style, every channel that is
//! internal to a partition lives in the SM's shared memory (scratchpad). The
//! footprint therefore depends on the *lifetimes* of the channel buffers
//! under a topological firing schedule (Figure 3.2 of the paper): a pipeline
//! reuses buffers as it goes, while a split structure keeps the split
//! branches' buffers alive simultaneously.
//!
//! The `enhanced` mode models the splitter/joiner elimination of Chapter V:
//! buffers *produced* by a splitter or joiner alias the filter's input buffer
//! (consumers re-index into it), so they cost no additional shared memory.

use sgmap_graph::{FilterKind, NodeSet, RepetitionVector, StreamGraph};

/// Breakdown of the shared-memory footprint of one execution of a partition.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SmFootprint {
    /// Peak of the internal channel buffers that are live simultaneously,
    /// in bytes.
    pub internal_peak_bytes: u64,
    /// Bytes of primary/boundary input staged in shared memory per execution.
    pub input_bytes: u64,
    /// Bytes of primary/boundary output staged in shared memory per
    /// execution.
    pub output_bytes: u64,
    /// Persistent per-filter state bytes.
    pub state_bytes: u64,
    /// Extra bytes retained by peeking filters (`peek - pop` tokens).
    pub peek_bytes: u64,
}

impl SmFootprint {
    /// Bytes of IO staging (input + output) per execution.
    pub fn io_bytes(&self) -> u64 {
        self.input_bytes + self.output_bytes
    }

    /// Shared-memory bytes needed by a single execution (working set plus one
    /// IO staging buffer), excluding the double buffer.
    pub fn per_execution_bytes(&self) -> u64 {
        self.internal_peak_bytes + self.io_bytes() + self.state_bytes + self.peek_bytes
    }

    /// Total shared-memory bytes of a kernel running `w` executions
    /// concurrently with double-buffered IO: every execution owns its working
    /// set and IO staging, plus one extra IO-sized buffer for the double
    /// buffer.
    pub fn kernel_bytes(&self, w: u32) -> u64 {
        u64::from(w) * self.per_execution_bytes() + self.io_bytes()
    }
}

/// Computes the shared-memory footprint of one execution of the partition
/// `set` of `graph`.
///
/// `enhanced` enables the splitter/joiner elimination of Chapter V.
///
/// # Panics
///
/// Panics if `set` references filters outside `graph`.
pub fn footprint(
    graph: &StreamGraph,
    set: &NodeSet,
    reps: &RepetitionVector,
    enhanced: bool,
) -> SmFootprint {
    let mut fp = SmFootprint::default();

    // Per-iteration byte volume of each channel.
    let channel_bytes = |cid: sgmap_graph::ChannelId| graph.channel_iteration_bytes(cid, reps);

    // Boundary IO and primary IO.
    for cid in set.input_channels(graph) {
        fp.input_bytes += channel_bytes(cid);
    }
    for cid in set.output_channels(graph) {
        fp.output_bytes += channel_bytes(cid);
    }
    for id in set.iter() {
        let f = graph.filter(id);
        match f.kind {
            FilterKind::Source => {
                fp.input_bytes += reps[id.index()] * u64::from(f.push) * u64::from(f.token_bytes)
            }
            FilterKind::Sink => {
                fp.output_bytes += reps[id.index()] * u64::from(f.pop) * u64::from(f.token_bytes)
            }
            _ => {}
        }
        fp.state_bytes += u64::from(f.state_bytes);
        if f.peek > f.pop {
            fp.peek_bytes += u64::from(f.peek - f.pop) * u64::from(f.token_bytes);
        }
    }

    // Internal buffers: lifetime scan over a topological schedule restricted
    // to the partition's members.
    let order: Vec<_> = match graph.topological_order() {
        Ok(o) => o.into_iter().filter(|id| set.contains(*id)).collect(),
        Err(_) => set.iter().collect(),
    };
    // `internal_channels` returns ids in ascending order (graph.channels()
    // enumerates by index), so binary search is sufficient.
    let internal = set.internal_channels(graph);
    let is_internal = |cid: sgmap_graph::ChannelId| internal.binary_search(&cid).is_ok();

    let mut live: u64 = 0;
    let mut peak: u64 = 0;
    let mut consumed_remaining: std::collections::HashMap<usize, u64> = internal
        .iter()
        .map(|&cid| (cid.index(), channel_bytes(cid)))
        .collect();
    for &fid in &order {
        // Firing this filter materialises all of its internal output buffers.
        for &cid in graph.out_channels(fid) {
            if !is_internal(cid) {
                continue;
            }
            let ch = graph.channel(cid);
            if ch.feedback {
                continue;
            }
            let bytes = if enhanced && graph.filter(fid).is_reorder_only() {
                // Enhanced codegen: the splitter/joiner output aliases its
                // input buffer; no new allocation.
                0
            } else {
                channel_bytes(cid)
            };
            live += bytes;
            consumed_remaining.insert(cid.index(), bytes);
        }
        peak = peak.max(live);
        // After the filter (and all its firings) complete, the buffers it
        // consumed are dead.
        for &cid in graph.in_channels(fid) {
            if !is_internal(cid) {
                continue;
            }
            if graph.channel(cid).feedback {
                continue;
            }
            if let Some(bytes) = consumed_remaining.remove(&cid.index()) {
                live = live.saturating_sub(bytes);
            }
        }
    }
    fp.internal_peak_bytes = peak;
    fp
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgmap_graph::{GraphBuilder, JoinKind, NodeSet, SplitKind, StreamSpec};

    fn pipeline_graph(stages: usize) -> StreamGraph {
        let mut specs = vec![StreamSpec::filter("src", 0, 1, 1.0)];
        for i in 0..stages {
            specs.push(StreamSpec::filter(format!("s{i}"), 1, 1, 2.0));
        }
        specs.push(StreamSpec::filter("sink", 1, 0, 1.0));
        GraphBuilder::new("pipe")
            .build(StreamSpec::pipeline(specs))
            .unwrap()
    }

    fn split_graph(branches: usize) -> StreamGraph {
        let spec = StreamSpec::pipeline(vec![
            StreamSpec::filter("src", 0, 1, 1.0),
            StreamSpec::split_join(
                SplitKind::Duplicate,
                (0..branches)
                    .map(|i| StreamSpec::filter(format!("b{i}"), 1, 1, 2.0))
                    .collect(),
                JoinKind::round_robin_uniform(branches),
            ),
            StreamSpec::filter("sink", branches as u32, 0, 1.0),
        ]);
        GraphBuilder::new("split").build(spec).unwrap()
    }

    #[test]
    fn pipeline_peak_is_bounded_by_adjacent_buffers() {
        let g = pipeline_graph(6);
        let reps = g.repetition_vector().unwrap();
        let all = NodeSet::all(&g);
        let fp = footprint(&g, &all, &reps, false);
        // Every channel carries 1 token of 4 bytes; with buffer reuse the
        // peak stays far below the total channel volume.
        let total: u64 = g
            .channels()
            .map(|(id, _)| g.channel_iteration_bytes(id, &reps))
            .sum();
        assert!(fp.internal_peak_bytes < total);
        assert!(fp.internal_peak_bytes >= 4);
        assert_eq!(fp.input_bytes, 4);
        assert_eq!(fp.output_bytes, 4);
    }

    #[test]
    fn split_structure_needs_more_memory_than_pipeline() {
        // Matches Figure 3.2: with the same number of compute filters, the
        // split keeps all branch buffers alive at once.
        let pipe = pipeline_graph(4);
        let split = split_graph(4);
        let pr = pipe.repetition_vector().unwrap();
        let sr = split.repetition_vector().unwrap();
        let fp_pipe = footprint(&pipe, &NodeSet::all(&pipe), &pr, false);
        let fp_split = footprint(&split, &NodeSet::all(&split), &sr, false);
        assert!(
            fp_split.internal_peak_bytes > fp_pipe.internal_peak_bytes,
            "split {} <= pipe {}",
            fp_split.internal_peak_bytes,
            fp_pipe.internal_peak_bytes
        );
    }

    #[test]
    fn enhanced_mode_reduces_split_footprint() {
        let g = split_graph(4);
        let reps = g.repetition_vector().unwrap();
        let all = NodeSet::all(&g);
        let normal = footprint(&g, &all, &reps, false);
        let enhanced = footprint(&g, &all, &reps, true);
        assert!(enhanced.internal_peak_bytes < normal.internal_peak_bytes);
    }

    #[test]
    fn kernel_bytes_grow_linearly_with_w() {
        let g = pipeline_graph(3);
        let reps = g.repetition_vector().unwrap();
        let all = NodeSet::all(&g);
        let fp = footprint(&g, &all, &reps, false);
        let one = fp.kernel_bytes(1);
        let four = fp.kernel_bytes(4);
        assert_eq!(four - one, 3 * fp.per_execution_bytes());
    }

    #[test]
    fn sub_partition_io_counts_boundary_channels() {
        let g = pipeline_graph(3);
        let reps = g.repetition_vector().unwrap();
        // Take the middle filters only: boundary channels on both sides.
        let s0 = g.filter_by_name("s0").unwrap();
        let s1 = g.filter_by_name("s1").unwrap();
        let set = NodeSet::from_ids([s0, s1]);
        let fp = footprint(&g, &set, &reps, false);
        assert_eq!(fp.input_bytes, 4);
        assert_eq!(fp.output_bytes, 4);
        assert_eq!(fp.io_bytes(), 8);
    }
}
