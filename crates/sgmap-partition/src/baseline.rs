//! The prior work's partitioning heuristic (Huynh et al. [7]).
//!
//! The previous framework "uses a partitioning heuristic that keeps merging
//! filters until the SM requirement is violated" (Section 3.1.1): the only
//! merging criterion is that the merged partition still fits in shared
//! memory; predicted execution time plays no role. The result is fewer,
//! larger partitions than Algorithm 1 produces — which is exactly the
//! contrast the paper's Section 4.0.3 quantifies with the "kernel count
//! ratio".

use sgmap_graph::{NodeSet, TopoIndex};
use sgmap_pee::{Estimate, Estimator};

use crate::error::PartitionError;
use crate::partitioning::{Partition, Partitioning};

/// Runs the SM-requirement-only partitioner.
///
/// # Errors
///
/// Returns [`PartitionError::FilterTooLarge`] if a filter does not fit in
/// shared memory on its own, or a graph error if the rates are inconsistent.
pub fn partition_baseline(est: &Estimator<'_>) -> Result<Partitioning, PartitionError> {
    let graph = est.graph();
    let order = graph.topological_order().map_err(PartitionError::Graph)?;
    let topo = TopoIndex::new(graph);

    let mut partitions: Vec<Partition> = Vec::new();
    let mut current: Option<(NodeSet, Estimate)> = None;

    for id in order {
        let single = NodeSet::singleton(id);
        let single_est = est
            .estimate(&single)
            .ok_or(PartitionError::FilterTooLarge(id))?;
        current = match current.take() {
            None => Some((single, single_est)),
            Some((set, set_est)) => {
                let union = set.union(&single);
                let feasible = union.is_connected(graph)
                    && union.is_convex_in(graph, &topo)
                    && est.estimate(&union).is_some();
                if feasible {
                    let e = est.estimate(&union).expect("checked above");
                    Some((union, e))
                } else {
                    partitions.push(Partition::new(set, set_est));
                    Some((single, single_est))
                }
            }
        };
    }
    if let Some((set, e)) = current {
        partitions.push(Partition::new(set, e));
    }

    let partitioning = Partitioning::new(partitions);
    partitioning.validate_cover(graph)?;
    Ok(partitioning)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PartitionRequest;
    use sgmap_apps::App;
    use sgmap_gpusim::GpuSpec;

    #[test]
    fn baseline_covers_the_graph() {
        let graph = App::Des.build(8).unwrap();
        let est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
        let p = partition_baseline(&est).unwrap();
        p.validate_cover(&graph).unwrap();
        assert!(!p.is_empty());
    }

    #[test]
    fn baseline_produces_no_more_partitions_than_the_proposed_heuristic() {
        // Section 4.0.3: the proposed partitioner's counts are "almost always
        // greater than or equal to" the prior work's, because its merging
        // criteria are stricter.
        for (app, n) in [
            (App::Des, 8),
            (App::Dct, 6),
            (App::Fft, 64),
            (App::Bitonic, 8),
        ] {
            let graph = app.build(n).unwrap();
            let est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
            let baseline = partition_baseline(&est).unwrap();
            let proposed = PartitionRequest::new(&est).run().unwrap();
            assert!(
                baseline.len() <= proposed.len(),
                "{app} N={n}: baseline {} > proposed {}",
                baseline.len(),
                proposed.len()
            );
        }
    }

    #[test]
    fn baseline_partitions_fit_in_shared_memory() {
        let graph = App::FmRadio.build(8).unwrap();
        let est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
        let p = partition_baseline(&est).unwrap();
        for part in p.iter() {
            assert!(part.estimate.sm_bytes <= u64::from(est.gpu().shared_mem_bytes));
        }
    }
}
