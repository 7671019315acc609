//! The Partition Dependence Graph (Figure 3.4).
//!
//! Once the stream graph is partitioned, the mapping step only needs to know
//! each partition's workload `T_i` and, for every pair of partitions with at
//! least one stream-graph channel between them, the total data volume `D_ij`
//! crossing that boundary per steady-state iteration. Partitions that contain
//! source (sink) filters additionally exchange the primary input (output)
//! with the host.

use sgmap_graph::{FilterKind, RepetitionVector, StreamGraph};

use crate::partitioning::Partitioning;

/// One edge of the PDG: data flowing from partition `from` to partition `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PdgEdge {
    /// Producing partition index.
    pub from: usize,
    /// Consuming partition index.
    pub to: usize,
    /// Bytes crossing this boundary per steady-state iteration (`D_ij`).
    pub bytes_per_iteration: u64,
}

/// The Partition Dependence Graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Pdg {
    /// Workload `T_i` of each partition (normalised microseconds per
    /// execution), indexed like the partitioning.
    pub times_us: Vec<f64>,
    /// Inter-partition edges with their data volumes.
    pub edges: Vec<PdgEdge>,
    /// Primary input bytes per iteration entering each partition from the
    /// host.
    pub primary_input_bytes: Vec<u64>,
    /// Primary output bytes per iteration leaving each partition to the host.
    pub primary_output_bytes: Vec<u64>,
}

impl Pdg {
    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.times_us.len()
    }

    /// Returns `true` if the PDG has no partitions.
    pub fn is_empty(&self) -> bool {
        self.times_us.is_empty()
    }

    /// Total workload of all partitions, microseconds.
    pub fn total_time_us(&self) -> f64 {
        self.times_us.iter().sum()
    }

    /// A topological order of the partitions (the PDG of a convex
    /// partitioning of an acyclic graph is a DAG).
    ///
    /// # Panics
    ///
    /// Panics if the PDG contains a cycle; [`Pdg::unordered_partitions`]
    /// names the partitions involved without panicking.
    pub fn topological_order(&self) -> Vec<usize> {
        let order = self.kahn_order();
        assert_eq!(
            order.len(),
            self.len(),
            "partition dependence graph has a cycle"
        );
        order
    }

    /// The partitions Kahn's pass cannot order, ascending: those on a cycle
    /// of the PDG or downstream of one. Empty exactly when the PDG is a DAG.
    pub fn unordered_partitions(&self) -> Vec<usize> {
        let mut ordered = vec![false; self.len()];
        for p in self.kahn_order() {
            ordered[p] = true;
        }
        (0..self.len()).filter(|&p| !ordered[p]).collect()
    }

    /// Kahn's pass: the partitions it can order, in order. Sources are
    /// taken in ascending order and each partition's successors in edge
    /// order.
    fn kahn_order(&self) -> Vec<usize> {
        let n = self.len();
        let mut indegree = vec![0usize; n];
        let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in &self.edges {
            indegree[e.to] += 1;
            successors[e.from].push(e.to);
        }
        let mut order: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut head = 0;
        while head < order.len() {
            let u = order[head];
            head += 1;
            for &v in &successors[u] {
                indegree[v] -= 1;
                if indegree[v] == 0 {
                    order.push(v);
                }
            }
        }
        order
    }
}

/// Builds the PDG of a partitioning.
///
/// # Panics
///
/// Panics if the partitioning does not cover the graph (use
/// [`Partitioning::validate_cover`] first).
pub fn build_pdg(graph: &StreamGraph, reps: &RepetitionVector, partitioning: &Partitioning) -> Pdg {
    let n = partitioning.len();
    let times_us = partitioning.iter().map(|p| p.time_us()).collect();
    let owner: Vec<usize> = graph
        .filter_ids()
        .map(|id| {
            partitioning
                .partition_of(id)
                .expect("partitioning covers every filter")
        })
        .collect();

    let mut edge_bytes = std::collections::HashMap::<(usize, usize), u64>::new();
    for (cid, ch) in graph.channels() {
        let from = owner[ch.src.index()];
        let to = owner[ch.dst.index()];
        if from != to {
            *edge_bytes.entry((from, to)).or_insert(0) += graph.channel_iteration_bytes(cid, reps);
        }
    }
    let mut edges: Vec<PdgEdge> = edge_bytes
        .into_iter()
        .map(|((from, to), bytes_per_iteration)| PdgEdge {
            from,
            to,
            bytes_per_iteration,
        })
        .collect();
    edges.sort_by_key(|e| (e.from, e.to));

    let mut primary_input_bytes = vec![0u64; n];
    let mut primary_output_bytes = vec![0u64; n];
    for (id, f) in graph.filters() {
        let p = owner[id.index()];
        match f.kind {
            FilterKind::Source => {
                primary_input_bytes[p] +=
                    reps[id.index()] * u64::from(f.push) * u64::from(f.token_bytes);
            }
            FilterKind::Sink => {
                primary_output_bytes[p] +=
                    reps[id.index()] * u64::from(f.pop) * u64::from(f.token_bytes);
            }
            _ => {}
        }
    }

    Pdg {
        times_us,
        edges,
        primary_input_bytes,
        primary_output_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spsg::single_partition;
    use crate::PartitionRequest;
    use crate::Partitioning;
    use sgmap_apps::App;
    use sgmap_gpusim::GpuSpec;
    use sgmap_pee::Estimator;

    #[test]
    fn pdg_of_a_single_partition_has_no_edges() {
        let graph = App::Des.build(4).unwrap();
        let est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
        let reps = graph.repetition_vector().unwrap();
        let partitioning = Partitioning::new(vec![single_partition(&est)]);
        let pdg = build_pdg(&graph, &reps, &partitioning);
        assert_eq!(pdg.len(), 1);
        assert!(pdg.edges.is_empty());
        assert!(pdg.primary_input_bytes[0] > 0);
        assert!(pdg.primary_output_bytes[0] > 0);
        assert_eq!(pdg.topological_order(), vec![0]);
    }

    #[test]
    fn pdg_edges_connect_adjacent_partitions_and_respect_dataflow() {
        let graph = App::FmRadio.build(8).unwrap();
        let est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
        let reps = graph.repetition_vector().unwrap();
        let partitioning = PartitionRequest::new(&est).run().unwrap();
        let pdg = build_pdg(&graph, &reps, &partitioning);
        assert_eq!(pdg.len(), partitioning.len());
        // Edge volumes equal the sum of crossing channel volumes.
        let crossing: u64 = graph
            .channels()
            .filter(|(_, ch)| {
                partitioning.partition_of(ch.src) != partitioning.partition_of(ch.dst)
            })
            .map(|(cid, _)| graph.channel_iteration_bytes(cid, &reps))
            .sum();
        let edge_bytes: u64 = pdg.edges.iter().map(|e| e.bytes_per_iteration).sum();
        assert_eq!(edge_bytes, crossing);
        // Topological order covers every partition once.
        let order = pdg.topological_order();
        assert_eq!(order.len(), pdg.len());
        assert!(pdg.unordered_partitions().is_empty());
        // The total workload matches the partitioning's estimate sum.
        assert!((pdg.total_time_us() - partitioning.total_estimated_time_us()).abs() < 1e-9);
    }

    #[test]
    fn kahn_leaves_cycles_and_what_they_feed_unordered() {
        let edge = |from, to| PdgEdge {
            from,
            to,
            bytes_per_iteration: 1,
        };
        // 0 -> 1 -> 2 -> 1 (a cycle), 2 -> 3, and an independent 4 -> 0.
        let pdg = Pdg {
            times_us: vec![1.0; 5],
            edges: vec![edge(0, 1), edge(1, 2), edge(2, 1), edge(2, 3), edge(4, 0)],
            primary_input_bytes: vec![0; 5],
            primary_output_bytes: vec![0; 5],
        };
        assert_eq!(pdg.unordered_partitions(), vec![1, 2, 3]);
        assert!(std::panic::catch_unwind(|| pdg.topological_order()).is_err());
    }
}
