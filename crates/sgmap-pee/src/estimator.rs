//! The estimator façade: per-partition time estimates with caching.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::{Arc, OnceLock, RwLock};

use sgmap_gpusim::profile::{profile_graph, ProfileTable};
use sgmap_gpusim::{GpuSpec, KernelParams};
use sgmap_graph::{FxHasher, GraphError, NodeSet, RepetitionVector, StreamGraph};

use crate::chars::{
    merge_characteristics, subtract_characteristics, CharsIndex, PartitionCharacteristics, SetChars,
};
use crate::model::PerfModel;
use crate::params::{search, Selection};
use crate::shared_cache::{CacheContext, EstimateCache};

/// The PEE's answer for one partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The kernel parameters the code generator should use.
    pub params: KernelParams,
    /// Compute time of the kernel (equation III.9), microseconds.
    pub t_comp_us: f64,
    /// Data-transfer time (III.10), microseconds.
    pub t_dt_us: f64,
    /// Buffer-swap time (III.11), microseconds.
    pub t_db_us: f64,
    /// Total kernel time (III.8), microseconds.
    pub t_exec_us: f64,
    /// Normalised per-execution time `T` (III.12), microseconds. This is the
    /// `T(p)` used by the partitioning heuristic and the `T_i` workload of
    /// the ILP mapping.
    pub normalized_us: f64,
    /// Shared-memory bytes of the kernel (all executions plus double buffer).
    pub sm_bytes: u64,
    /// Primary IO bytes per execution.
    pub io_bytes_per_exec: u64,
}

impl Estimate {
    /// A partition is compute-bound when its compute time dominates its
    /// data-transfer time (Section 3.1.1).
    pub fn is_compute_bound(&self) -> bool {
        self.t_comp_us >= self.t_dt_us
    }

    /// A partition is IO-bound when data transfer dominates.
    pub fn is_io_bound(&self) -> bool {
        !self.is_compute_bound()
    }
}

/// What the local cache remembers per node set: the estimate plus the
/// characteristics bundle, so later merges involving this set derive their
/// union characteristics incrementally instead of re-walking the graph.
#[derive(Debug, Clone)]
struct CachedEstimate {
    estimate: Option<Estimate>,
    chars: Arc<SetChars>,
}

/// The local cache: single-flight cells keyed by node set. (The enhancement
/// flag is no longer part of the key; flipping it clears the cache instead.)
/// Lookups borrow the caller's set — the key is cloned only when a fresh
/// entry is inserted — and [`FxHasher`] hashes the set's precomputed hash,
/// one word, so a lookup never re-walks the members.
type LocalCache = HashMap<NodeSet, Arc<OnceLock<CachedEstimate>>, BuildHasherDefault<FxHasher>>;

/// The Performance Estimation Engine: profiles a stream graph once, then
/// produces [`Estimate`]s for arbitrary sub-graphs, caching results because
/// the partitioning heuristic queries the same candidate sets repeatedly.
///
/// The estimator is `Sync`: the parallel partition search shares one
/// estimator across its scoped worker threads. The local cache uses per-key
/// single-flight entries (like [`EstimateCache`]), so each distinct node set
/// is computed — and forwarded to the shared cache — exactly once no matter
/// how concurrent queries interleave, which keeps cache counters
/// deterministic across thread counts.
pub struct Estimator<'g> {
    graph: &'g StreamGraph,
    reps: RepetitionVector,
    profile: ProfileTable,
    index: CharsIndex,
    gpu: GpuSpec,
    /// `PerfModel::for_gpu(&gpu)`: the model is fixed by the device.
    model: PerfModel,
    enhanced: bool,
    cache: RwLock<LocalCache>,
    /// The attached shared cache and this estimator's context in it.
    shared: Option<(Arc<EstimateCache>, Arc<CacheContext>)>,
    trace: Option<Arc<sgmap_trace::Collector>>,
}

impl<'g> Estimator<'g> {
    /// Creates an estimator for `graph` targeting `gpu`. It records into the
    /// trace collector that is ambient when it is created or, when none is,
    /// into the one ambient when it is queried (see
    /// [`Estimator::with_trace`]).
    ///
    /// # Errors
    ///
    /// Returns an error if the graph's balance equations are inconsistent.
    pub fn new(graph: &'g StreamGraph, gpu: GpuSpec) -> Result<Self, GraphError> {
        let reps = graph.repetition_vector()?;
        let profile = profile_graph(graph, &gpu);
        let index = CharsIndex::new(graph, &reps, &profile);
        let model = PerfModel::for_gpu(&gpu);
        Ok(Estimator {
            graph,
            reps,
            profile,
            index,
            gpu,
            model,
            enhanced: false,
            cache: RwLock::new(HashMap::default()),
            shared: None,
            trace: sgmap_trace::current(),
        })
    }

    /// Enables or disables the splitter/joiner elimination of Chapter V for
    /// all subsequent estimates.
    pub fn with_enhancement(mut self, enhanced: bool) -> Self {
        if self.enhanced != enhanced {
            // The local cache is keyed by node set alone; entries computed
            // under the other flag would be stale.
            self.cache
                .get_mut()
                .expect("estimator cache lock poisoned")
                .clear();
        }
        self.enhanced = enhanced;
        self
    }

    /// Attaches a shared, thread-safe estimate cache. Queries are answered
    /// from (and recorded into) the shared cache keyed by partition
    /// characteristics and platform parameters, so estimators for different
    /// graphs — including estimators on other threads — reuse each other's
    /// work. Cached answers are bit-identical to fresh computations. The
    /// estimator's model and device are resolved to their context of the
    /// cache here, once, so a query keys only its characteristics.
    pub fn with_shared_cache(mut self, cache: Arc<EstimateCache>) -> Self {
        let context = cache.context(&self.model, &self.gpu);
        self.shared = Some((cache, context));
        self
    }

    /// Replaces the trace collector taken from the ambient scope at
    /// construction; `None` records into whatever collector is ambient at
    /// query time. The estimator records `pee.estimate_hits` /
    /// `pee.estimate_misses` counters (local single-flight cache) plus
    /// per-path counters and set-size histograms for the three ways
    /// characteristics are obtained (`pee.chars_from_set`,
    /// `pee.chars_merged` and `pee.chars_subtracted`), and `pee.param_points`, the kernel-parameter
    /// points its searches priced. It keeps its own handle so that its
    /// counters land in one collector wherever it is queried: on
    /// partition-search worker threads, or after the scope it was built in
    /// has ended. The collector is write-only: estimates are bit-identical
    /// with and without it.
    pub fn with_trace(mut self, trace: Option<Arc<sgmap_trace::Collector>>) -> Self {
        self.trace = trace;
        self
    }

    /// The stream graph being estimated.
    pub fn graph(&self) -> &StreamGraph {
        self.graph
    }

    /// The steady-state repetition vector of the graph.
    pub fn repetition_vector(&self) -> &RepetitionVector {
        &self.reps
    }

    /// The per-filter profile.
    pub fn profile(&self) -> &ProfileTable {
        &self.profile
    }

    /// The target device.
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// The analytic model in use.
    pub fn model(&self) -> &PerfModel {
        &self.model
    }

    /// Whether Chapter-V enhancement is applied.
    pub fn enhanced(&self) -> bool {
        self.enhanced
    }

    /// Characteristics of a partition (uncached helper, mostly for tests and
    /// the code generator). Computed through the per-graph [`CharsIndex`],
    /// bit-identical to [`PartitionCharacteristics::from_set`].
    pub fn characteristics(&self, set: &NodeSet) -> PartitionCharacteristics {
        self.index.for_set(self.graph, set, self.enhanced).chars
    }

    /// Estimates the execution time of partition `set`, or returns `None`
    /// when the partition cannot fit in shared memory with any parameter
    /// choice (i.e. it must not be formed).
    pub fn estimate(&self, set: &NodeSet) -> Option<Estimate> {
        self.estimate_with_chars(set).0
    }

    /// Like [`Estimator::estimate`], but also returns the partition's
    /// characteristics bundle so the caller can later derive union
    /// characteristics incrementally via [`Estimator::estimate_union`].
    pub fn estimate_with_chars(&self, set: &NodeSet) -> (Option<Estimate>, Arc<SetChars>) {
        self.estimate_impl(set, || {
            // Path counters live inside the compute closure: they only fire
            // on the single-flight compute, so the counts are deterministic
            // across thread counts.
            self.add("pee.chars_from_set", 1);
            self.record("pee.chars_from_set_size", set.len() as u64);
            Arc::new(self.index.for_set(self.graph, set, self.enhanced))
        })
    }

    /// Estimates the union of disjoint, already-characterised sets: the
    /// `operands` pair each node set with its characteristics bundle.
    ///
    /// `union` must equal the operands' union and the bundles must come
    /// from this estimator (under its current enhancement flag). When the
    /// union is not already cached, its characteristics are derived from
    /// the operands via [`merge_characteristics`] instead of re-walking the
    /// graph; on a cache hit nothing is derived. The result — estimate,
    /// cache key, counters — is bit-identical to [`Estimator::estimate`] on
    /// `union` either way.
    pub fn estimate_union(
        &self,
        operands: &[(&NodeSet, &SetChars)],
        union: &NodeSet,
    ) -> (Option<Estimate>, Arc<SetChars>) {
        self.estimate_impl(union, || {
            self.add("pee.chars_merged", 1);
            self.record("pee.chars_merged_size", union.len() as u64);
            Arc::new(merge_characteristics(
                &self.index,
                self.graph,
                self.enhanced,
                operands,
                union,
            ))
        })
    }

    /// Estimates `rest`, what is left of a set when `part` is taken out of
    /// it, given the set's characteristics bundle `whole` and `part` paired
    /// with its own.
    ///
    /// `part` must be a subset of the set, `rest` must equal their
    /// difference, and the bundles must come from this estimator (under its
    /// current enhancement flag). When `rest` is not already cached, its
    /// characteristics are derived from the operands via
    /// [`subtract_characteristics`] instead of re-walking the graph; on a
    /// cache hit nothing is derived. The result — estimate, cache key,
    /// counters — is bit-identical to [`Estimator::estimate`] on `rest`
    /// either way.
    pub fn estimate_difference(
        &self,
        whole: &SetChars,
        part: (&NodeSet, &SetChars),
        rest: &NodeSet,
    ) -> (Option<Estimate>, Arc<SetChars>) {
        self.estimate_impl(rest, || {
            self.add("pee.chars_subtracted", 1);
            self.record("pee.chars_subtracted_size", rest.len() as u64);
            Arc::new(subtract_characteristics(
                &self.index,
                self.graph,
                self.enhanced,
                whole,
                part,
                rest,
            ))
        })
    }

    fn estimate_impl(
        &self,
        set: &NodeSet,
        make_chars: impl FnOnce() -> Arc<SetChars>,
    ) -> (Option<Estimate>, Arc<SetChars>) {
        let existing = {
            let map = self.cache.read().expect("estimator cache lock poisoned");
            map.get(set).cloned()
        };
        let cell = match existing {
            Some(cell) => cell,
            None => {
                let mut map = self.cache.write().expect("estimator cache lock poisoned");
                match map.entry(set.clone()) {
                    Entry::Occupied(e) => e.get().clone(),
                    Entry::Vacant(v) => {
                        let cell = Arc::new(OnceLock::new());
                        v.insert(cell.clone());
                        cell
                    }
                }
            }
        };
        // Single-flight: the computation (and any query it forwards to the
        // shared cache) runs exactly once per distinct key, outside the map
        // lock so concurrent queries for other sets proceed.
        let mut computed = false;
        let cached = cell.get_or_init(|| {
            computed = true;
            let chars = make_chars();
            let estimate = match &self.shared {
                Some((shared, context)) => shared.get_or_compute(context, &chars.chars, || {
                    self.estimate_from_chars(&chars.chars)
                }),
                None => self.estimate_from_chars(&chars.chars),
            };
            CachedEstimate { estimate, chars }
        });
        let counter = if computed {
            "pee.estimate_misses"
        } else {
            "pee.estimate_hits"
        };
        self.add(counter, 1);
        (cached.estimate, cached.chars.clone())
    }

    /// Adds to a counter of the attached collector, else of the ambient one.
    fn add(&self, name: &'static str, delta: u64) {
        match &self.trace {
            Some(trace) => trace.add(name, delta),
            None => sgmap_trace::add(name, delta),
        }
    }

    /// Records a histogram sample into the attached collector, else into
    /// the ambient one.
    fn record(&self, name: &'static str, value: u64) {
        match &self.trace {
            Some(trace) => trace.record(name, value),
            None => sgmap_trace::record(name, value),
        }
    }

    fn estimate_from_chars(&self, chars: &PartitionCharacteristics) -> Option<Estimate> {
        let (selection, points) = search(chars, &self.model, &self.gpu);
        self.add("pee.param_points", points);
        let Selection {
            params,
            normalized_us,
            latency_us,
            serial_us,
        } = selection?;
        Some(Estimate {
            params,
            t_comp_us: self.model.comp_from(latency_us, serial_us, params.w),
            t_dt_us: self.model.t_dt_us(chars, params),
            t_db_us: self.model.t_db_us(chars, params),
            t_exec_us: self.model.exec_from(chars, latency_us, serial_us, params),
            normalized_us,
            sm_bytes: chars.kernel_sm_bytes(params.w),
            io_bytes_per_exec: chars.io_bytes_per_exec,
        })
    }
}

impl std::fmt::Debug for Estimator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Estimator")
            .field("graph", &self.graph.name())
            .field("gpu", &self.gpu.name)
            .field("enhanced", &self.enhanced)
            .field(
                "cached",
                &self
                    .cache
                    .read()
                    .expect("estimator cache lock poisoned")
                    .len(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgmap_graph::{Filter, FilterId};

    fn chain(works: &[f64]) -> StreamGraph {
        let mut g = StreamGraph::new("chain");
        let n = works.len();
        let ids: Vec<_> = works
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                g.add_filter(Filter::new(
                    format!("f{i}"),
                    if i == 0 { 0 } else { 1 },
                    if i + 1 == n { 0 } else { 1 },
                    w,
                ))
            })
            .collect();
        for pair in ids.windows(2) {
            g.add_channel(pair[0], pair[1], 1, 1).unwrap();
        }
        g
    }

    #[test]
    fn estimates_are_cached_and_consistent() {
        let g = chain(&[1.0, 500.0, 500.0, 1.0]);
        let est = Estimator::new(&g, GpuSpec::m2090()).unwrap();
        let all = NodeSet::all(&g);
        let a = est.estimate(&all).unwrap();
        let b = est.estimate(&all).unwrap();
        assert_eq!(a, b);
        assert!(a.t_exec_us > 0.0);
        assert!(a.normalized_us <= a.t_exec_us);
        assert!(a.sm_bytes <= u64::from(est.gpu().shared_mem_bytes));
    }

    #[test]
    fn merging_whole_graph_beats_tiny_fragments_for_compute_bound_chains() {
        // For a compute-heavy chain the whole-graph partition amortises IO
        // better than the single middle filter alone plus its IO.
        let g = chain(&[1.0, 2000.0, 2000.0, 1.0]);
        let est = Estimator::new(&g, GpuSpec::m2090()).unwrap();
        let whole = est.estimate(&NodeSet::all(&g)).unwrap();
        let single = est
            .estimate(&NodeSet::singleton(FilterId::from_index(1)))
            .unwrap();
        assert!(whole.is_compute_bound());
        // The sum of the parts' normalised times exceeds the whole's.
        let parts: f64 = (0..4)
            .map(|i| {
                est.estimate(&NodeSet::singleton(FilterId::from_index(i)))
                    .unwrap()
                    .normalized_us
            })
            .sum();
        assert!(whole.normalized_us < parts);
        assert!(single.normalized_us > 0.0);
    }

    #[test]
    fn io_heavy_graphs_are_classified_io_bound() {
        // Filters that do almost nothing but move lots of bytes.
        let mut g = StreamGraph::new("io");
        let a = g.add_filter(Filter::new("src", 0, 256, 1.0).with_token_bytes(16));
        let b = g.add_filter(Filter::new("sink", 256, 0, 1.0).with_token_bytes(16));
        g.add_channel(a, b, 256, 256).unwrap();
        let est = Estimator::new(&g, GpuSpec::m2090()).unwrap();
        let e = est.estimate(&NodeSet::all(&g)).unwrap();
        assert!(e.is_io_bound());
    }

    #[test]
    fn one_estimator_shared_across_threads_queries_the_shared_cache_once_per_key() {
        use crate::EstimateCache;

        let g = chain(&[3.0, 40.0, 80.0, 120.0, 7.0]);
        let cache = EstimateCache::shared();
        let est = Estimator::new(&g, GpuSpec::m2090())
            .unwrap()
            .with_shared_cache(cache.clone());
        std::thread::scope(|s| {
            for t in 0..8 {
                let est = &est;
                s.spawn(move || {
                    for round in 0..25 {
                        for i in 0..5 {
                            let idx = (i + t + round) % 5;
                            est.estimate(&NodeSet::singleton(FilterId::from_index(idx)));
                        }
                    }
                });
            }
        });
        // The single-flight local cache forwards each of the 5 distinct keys
        // to the shared cache exactly once, however the threads interleaved.
        let stats = cache.stats();
        assert_eq!(stats.queries(), 5);
        assert_eq!(stats.misses, 5);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn enhancement_flag_changes_the_cache_key() {
        let g = chain(&[1.0, 10.0, 1.0]);
        let est = Estimator::new(&g, GpuSpec::m2090())
            .unwrap()
            .with_enhancement(true);
        assert!(est.enhanced());
        let e = est.estimate(&NodeSet::all(&g)).unwrap();
        assert!(e.t_exec_us > 0.0);
    }

    #[test]
    fn an_estimator_built_outside_a_scope_records_into_the_scope_it_is_queried_in() {
        use std::sync::Arc;

        let g = chain(&[1.0, 10.0, 1.0]);
        let est = Estimator::new(&g, GpuSpec::m2090()).unwrap();
        let collector = Arc::new(sgmap_trace::Collector::new());
        sgmap_trace::scope(Some(&collector), || {
            est.estimate(&NodeSet::all(&g));
            est.estimate(&NodeSet::all(&g));
        });
        assert!(collector.counter("pee.estimate_misses") > 0);
        assert_eq!(collector.counter("pee.estimate_hits"), 1);
        assert_eq!(collector.counter("pee.chars_from_set"), 1);
    }
}
