//! The partitioning result types.

use sgmap_graph::{FilterId, NodeSet, StreamGraph};
use sgmap_pee::Estimate;

use crate::error::PartitionError;

/// One partition: a set of filters plus the PEE's estimate for it.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// The filters in this partition.
    pub nodes: NodeSet,
    /// The performance estimate (including the selected kernel parameters).
    pub estimate: Estimate,
}

impl Partition {
    /// Creates a partition.
    pub fn new(nodes: NodeSet, estimate: Estimate) -> Self {
        Partition { nodes, estimate }
    }

    /// The normalised execution-time estimate `T(p)` in microseconds.
    pub fn time_us(&self) -> f64 {
        self.estimate.normalized_us
    }

    /// Number of filters in the partition.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the partition contains no filters.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// A complete partitioning of a stream graph.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Partitioning {
    partitions: Vec<Partition>,
}

impl Partitioning {
    /// Creates a partitioning from a list of partitions.
    pub fn new(partitions: Vec<Partition>) -> Self {
        Partitioning { partitions }
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// Returns `true` if there are no partitions.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// The partitions, in creation order.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Iterates over the partitions.
    pub fn iter(&self) -> impl Iterator<Item = &Partition> + '_ {
        self.partitions.iter()
    }

    /// Sum of the partitions' estimated times (the quantity Algorithm 1
    /// minimises), in microseconds.
    pub fn total_estimated_time_us(&self) -> f64 {
        self.partitions.iter().map(Partition::time_us).sum()
    }

    /// Index of the partition containing `id`, if any.
    pub fn partition_of(&self, id: FilterId) -> Option<usize> {
        self.partitions.iter().position(|p| p.nodes.contains(id))
    }

    /// Checks that every filter of `graph` belongs to exactly one partition.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::InvalidCover`] otherwise.
    pub fn validate_cover(&self, graph: &StreamGraph) -> Result<(), PartitionError> {
        let mut seen = vec![false; graph.filter_count()];
        for p in &self.partitions {
            for id in p.nodes.iter() {
                if id.index() >= seen.len() || seen[id.index()] {
                    return Err(PartitionError::InvalidCover);
                }
                seen[id.index()] = true;
            }
        }
        if seen.iter().all(|&s| s) {
            Ok(())
        } else {
            Err(PartitionError::InvalidCover)
        }
    }
}

impl FromIterator<Partition> for Partitioning {
    fn from_iter<T: IntoIterator<Item = Partition>>(iter: T) -> Self {
        Partitioning::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgmap_gpusim::KernelParams;

    fn dummy_estimate(t: f64) -> Estimate {
        Estimate {
            params: KernelParams { w: 1, s: 1, f: 32 },
            t_comp_us: t,
            t_dt_us: t / 2.0,
            t_db_us: 0.1,
            t_exec_us: t + 0.1,
            normalized_us: t + 0.1,
            sm_bytes: 1024,
            io_bytes_per_exec: 64,
        }
    }

    #[test]
    fn totals_and_lookup() {
        let p0 = Partition::new(
            NodeSet::from_ids([FilterId::from_index(0), FilterId::from_index(1)]),
            dummy_estimate(10.0),
        );
        let p1 = Partition::new(
            NodeSet::singleton(FilterId::from_index(2)),
            dummy_estimate(5.0),
        );
        let part = Partitioning::new(vec![p0, p1]);
        assert_eq!(part.len(), 2);
        assert!((part.total_estimated_time_us() - 15.2).abs() < 1e-9);
        assert_eq!(part.partition_of(FilterId::from_index(1)), Some(0));
        assert_eq!(part.partition_of(FilterId::from_index(2)), Some(1));
        assert_eq!(part.partition_of(FilterId::from_index(9)), None);
    }

    #[test]
    fn cover_validation_detects_gaps_and_overlaps() {
        use sgmap_graph::{Filter, StreamGraph};
        let mut g = StreamGraph::new("t");
        let a = g.add_filter(Filter::new("a", 0, 1, 1.0));
        let b = g.add_filter(Filter::new("b", 1, 0, 1.0));
        g.add_channel(a, b, 1, 1).unwrap();

        let full = Partitioning::new(vec![Partition::new(
            NodeSet::from_ids([a, b]),
            dummy_estimate(1.0),
        )]);
        assert!(full.validate_cover(&g).is_ok());

        let gap = Partitioning::new(vec![Partition::new(
            NodeSet::singleton(a),
            dummy_estimate(1.0),
        )]);
        assert_eq!(gap.validate_cover(&g), Err(PartitionError::InvalidCover));

        let overlap = Partitioning::new(vec![
            Partition::new(NodeSet::from_ids([a, b]), dummy_estimate(1.0)),
            Partition::new(NodeSet::singleton(b), dummy_estimate(1.0)),
        ]);
        assert_eq!(
            overlap.validate_cover(&g),
            Err(PartitionError::InvalidCover)
        );
    }
}
