//! The unified partition entry point: one builder, one `run()`.
//!
//! Pick a [`PartitionerKind`], an [`Algorithm`], a [`PartitionSearchOptions`]
//! and an optional trace collector, then call [`PartitionRequest::run`].
//!
//! ```rust
//! use sgmap_apps::App;
//! use sgmap_gpusim::GpuSpec;
//! use sgmap_partition::{Algorithm, MultilevelOptions, PartitionRequest};
//! use sgmap_pee::Estimator;
//!
//! let graph = App::FmRadio.build(8).unwrap();
//! let est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
//! let flat = PartitionRequest::new(&est).run().unwrap();
//! let ml = PartitionRequest::new(&est)
//!     .with_algorithm(Algorithm::Multilevel(MultilevelOptions::default()))
//!     .run()
//!     .unwrap();
//! assert!(!flat.is_empty() && !ml.is_empty());
//! ```

use std::sync::Arc;

use sgmap_pee::Estimator;
use sgmap_trace::Collector;

use crate::error::PartitionError;
use crate::multilevel::{multilevel_partition, MultilevelOptions};
use crate::partitioning::Partitioning;
use crate::proposed::flat_partition;
use crate::search::PartitionSearchOptions;
use crate::{partition_baseline, single_partition, PartitionerKind};

/// How the proposed partitioner searches the merge space. The baseline and
/// SPSG partitioners ignore this (they have no search).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// The paper's four-phase search over the full filter graph. Exact but
    /// quadratic-ish in the part count — the right choice up to a few
    /// hundred filters.
    #[default]
    Flat,
    /// Heavy-edge coarsening, four-phase search on the coarsest graph, then
    /// boundary-local refinement during uncoarsening. Scales to 10k+ filter
    /// graphs that the flat search cannot finish.
    Multilevel(MultilevelOptions),
}

/// A configured partitioning run, built incrementally and executed by
/// [`PartitionRequest::run`]. The single entry point behind every partition
/// call in the repository.
#[derive(Debug)]
pub struct PartitionRequest<'e, 'g, 't> {
    estimator: &'e Estimator<'g>,
    kind: PartitionerKind,
    algorithm: Algorithm,
    search: PartitionSearchOptions,
    trace: Option<&'t Arc<Collector>>,
}

impl<'e, 'g, 't> PartitionRequest<'e, 'g, 't> {
    /// Starts a request with the defaults: the proposed partitioner, the
    /// flat algorithm, the serial search, no tracing.
    pub fn new(estimator: &'e Estimator<'g>) -> Self {
        PartitionRequest {
            estimator,
            kind: PartitionerKind::Proposed,
            algorithm: Algorithm::Flat,
            search: PartitionSearchOptions::serial(),
            trace: None,
        }
    }

    /// Selects which partitioner runs (proposed / baseline / SPSG).
    pub fn with_kind(mut self, kind: PartitionerKind) -> Self {
        self.kind = kind;
        self
    }

    /// Selects the proposed partitioner's algorithm (flat or multilevel).
    /// Ignored by the baseline and SPSG partitioners.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the candidate-search options (threads, batch size). Any value
    /// produces the identical partitioning; see [`PartitionSearchOptions`].
    pub fn with_search(mut self, search: PartitionSearchOptions) -> Self {
        self.search = search;
        self
    }

    /// Attaches an optional trace collector (spans per phase / level and
    /// search counters), installed as the ambient collector for the run;
    /// `None` records into whatever collector is already ambient. The
    /// collector is write-only: the result is bit-identical with and without
    /// it.
    pub fn with_trace(mut self, trace: Option<&'t Arc<Collector>>) -> Self {
        self.trace = trace;
        self
    }

    /// Runs the configured partitioner.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::FilterTooLarge`] if a filter cannot fit in
    /// shared memory even on its own, or a graph error if the stream rates
    /// are inconsistent.
    pub fn run(&self) -> Result<Partitioning, PartitionError> {
        sgmap_trace::scope(self.trace, || match self.kind {
            PartitionerKind::Proposed => match &self.algorithm {
                Algorithm::Flat => flat_partition(self.estimator, &self.search),
                Algorithm::Multilevel(options) => {
                    multilevel_partition(self.estimator, options, &self.search)
                }
            },
            PartitionerKind::Baseline => partition_baseline(self.estimator),
            PartitionerKind::Single => {
                Ok(Partitioning::new(vec![single_partition(self.estimator)]))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgmap_apps::App;
    use sgmap_gpusim::GpuSpec;

    /// The defaults are the settings of the paper's Algorithm 1 that the
    /// historical `partition_stream_graph` entry point ran: the proposed
    /// partitioner, the flat algorithm and the exact serial search.
    #[test]
    fn request_defaults_match_the_legacy_entry_points() {
        let graph = App::Des.build(8).unwrap();
        let est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
        let via_defaults = PartitionRequest::new(&est).run().unwrap();
        let via_explicit = PartitionRequest::new(&est)
            .with_kind(PartitionerKind::Proposed)
            .with_algorithm(Algorithm::Flat)
            .with_search(PartitionSearchOptions::serial())
            .run()
            .unwrap();
        assert_eq!(via_defaults.len(), via_explicit.len());
        for (a, b) in via_defaults.iter().zip(via_explicit.iter()) {
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(
                a.estimate.normalized_us.to_bits(),
                b.estimate.normalized_us.to_bits()
            );
        }
    }

    #[test]
    fn every_kind_runs_through_the_request() {
        let graph = App::FmRadio.build(4).unwrap();
        let est = Estimator::new(&graph, GpuSpec::m2090()).unwrap();
        for kind in [
            PartitionerKind::Proposed,
            PartitionerKind::Baseline,
            PartitionerKind::Single,
        ] {
            let p = PartitionRequest::new(&est).with_kind(kind).run().unwrap();
            p.validate_cover(&graph).unwrap();
        }
    }
}
