//! A thread-safe estimate cache shared across estimators.
//!
//! The per-[`Estimator`](crate::Estimator) cache is keyed by node set and
//! only helps within one graph. Sweeps over (application, N, GPU count,
//! mapper, ...) grids re-partition closely related graphs over and over, and
//! the expensive part of every query — the kernel-parameter search — depends
//! only on the *characteristics* of the candidate partition and the device
//! model, not on which graph the partition came from. This module provides a
//! process-wide cache keyed by exactly those inputs, so any two sweep points
//! that ask the same physical question share one answer.
//!
//! The cache has two levels, matching the two halves of an [`EstimateKey`]:
//!
//! * a **context** per distinct (model constants, device limits). Every
//!   query of one estimator shares these, so the estimator
//!   resolves its context once, when
//!   [`Estimator::with_shared_cache`](crate::Estimator::with_shared_cache)
//!   attaches the cache, and never compares or clones them again;
//! * inside each context, one single-flight cell per partition
//!   characteristics. A query hashes the borrowed
//!   [`PartitionCharacteristics`] once and looks the hash up under the read
//!   lock, then under the write lock when it must insert; it allocates
//!   nothing unless it inserts a new cell, the only point where the owned
//!   per-set key is built. A bucket holds every key of one hash, so a hash
//!   collision costs a comparison, never a wrong answer.
//!
//! Splitting the key changes neither what is cached nor what is counted: a
//! query is answered by the cell of exactly its full key, [`CacheStats`]
//! counts one hit or one miss per query as a single-level map did, and
//! [`EstimateCache::entries`] joins the two halves back into full
//! [`EstimateKey`]s for the persisted cache file.
//!
//! The cells are single-flight: when several threads race on the same fresh
//! key, one computes while the others block on the cell, so each unique key
//! is computed exactly once. A useful consequence is that the hit/miss
//! totals are deterministic for a fixed query multiset — misses equal the
//! number of distinct keys regardless of thread interleaving — which lets
//! sweep reports include cache statistics while staying byte-identical
//! across thread counts.
//!
//! Keys are hashed with [`FxHasher`], a seedless multiply-rotate hasher that
//! costs a fraction of the standard library's SipHash on a key of a few
//! dozen words; every key is built by the estimator from characteristics,
//! never read from outside the program, so none is crafted to collide.
//! Determinism does not rest on the hasher: an answer is a function of its
//! key alone, the counters follow from the query multiset as above, and
//! the one reader of the maps' iteration order, [`EstimateCache::entries`],
//! feeds a persisted cache file whose writer sorts the entries.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use sgmap_gpusim::GpuSpec;
use sgmap_graph::FxHasher;

use crate::chars::PartitionCharacteristics;
use crate::estimator::Estimate;
use crate::model::PerfModel;

/// Everything an estimate depends on, in hashable form.
///
/// `f64` inputs are keyed by their IEEE-754 bit patterns, so two keys are
/// equal exactly when the estimation pipeline would be handed bit-identical
/// inputs — the cached answer is then bit-identical to a fresh computation.
/// The parameter search space and the model's saturation term are the same
/// for every estimator, so neither is part of the key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EstimateKey {
    /// Per member filter `(t_i bits, f_i)` of the partition characteristics.
    pub filters: Vec<(u64, u64)>,
    /// Primary IO bytes per execution.
    pub io_bytes_per_exec: u64,
    /// Shared-memory bytes per execution.
    pub sm_bytes_per_exec: u64,
    /// Highest firing rate among member filters.
    pub max_firing_rate: u64,
    /// Performance-model constants `(c1 bits, c2 bits, warp size)`.
    pub model: (u64, u64, u32),
    /// Device limits that constrain the parameter search: `(shared-memory
    /// bytes, max threads per block)`.
    pub device: (u32, u32),
}

impl EstimateKey {
    /// Splits the key into its context and per-set halves.
    fn split(self) -> (ContextKey, SetKey) {
        (
            ContextKey {
                model: self.model,
                device: self.device,
            },
            SetKey {
                filters: self.filters,
                io_bytes_per_exec: self.io_bytes_per_exec,
                sm_bytes_per_exec: self.sm_bytes_per_exec,
                max_firing_rate: self.max_firing_rate,
            },
        )
    }
}

/// The half of an [`EstimateKey`] every query of one estimator shares.
#[derive(Debug, PartialEq, Eq)]
struct ContextKey {
    model: (u64, u64, u32),
    device: (u32, u32),
}

impl ContextKey {
    fn new(model: &PerfModel, gpu: &GpuSpec) -> Self {
        ContextKey {
            model: (model.c1.to_bits(), model.c2.to_bits(), model.warp_size),
            device: (gpu.shared_mem_bytes, gpu.max_threads_per_block),
        }
    }

    /// The full key of `set` in this context.
    fn join(&self, set: &SetKey) -> EstimateKey {
        EstimateKey {
            filters: set.filters.clone(),
            io_bytes_per_exec: set.io_bytes_per_exec,
            sm_bytes_per_exec: set.sm_bytes_per_exec,
            max_firing_rate: set.max_firing_rate,
            model: self.model,
            device: self.device,
        }
    }
}

/// The per-set half of an [`EstimateKey`], owned: built only when a query
/// inserts a new cell (or a preload stores one).
#[derive(Debug, PartialEq, Eq)]
struct SetKey {
    filters: Vec<(u64, u64)>,
    io_bytes_per_exec: u64,
    sm_bytes_per_exec: u64,
    max_firing_rate: u64,
}

impl SetKey {
    fn new(chars: &PartitionCharacteristics) -> Self {
        SetKey {
            filters: chars
                .filters
                .iter()
                .map(|&(t, f)| (t.to_bits(), f))
                .collect(),
            io_bytes_per_exec: chars.io_bytes_per_exec,
            sm_bytes_per_exec: chars.sm_bytes_per_exec,
            max_firing_rate: chars.max_firing_rate,
        }
    }

    /// `true` if this is the key of `chars`, without building that key.
    fn matches(&self, chars: &PartitionCharacteristics) -> bool {
        self.io_bytes_per_exec == chars.io_bytes_per_exec
            && self.sm_bytes_per_exec == chars.sm_bytes_per_exec
            && self.max_firing_rate == chars.max_firing_rate
            && self.filters.len() == chars.filters.len()
            && self
                .filters
                .iter()
                .zip(&chars.filters)
                .all(|(&(t, f), &(ct, cf))| t == ct.to_bits() && f == cf)
    }

    fn hash(&self) -> u64 {
        set_hash(
            self.filters.iter().copied(),
            self.io_bytes_per_exec,
            self.sm_bytes_per_exec,
            self.max_firing_rate,
        )
    }
}

/// The hash of a per-set key, computed alike from the owned [`SetKey`] and
/// from borrowed characteristics.
fn set_hash(
    filters: impl ExactSizeIterator<Item = (u64, u64)>,
    io_bytes_per_exec: u64,
    sm_bytes_per_exec: u64,
    max_firing_rate: u64,
) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(filters.len());
    for (t, f) in filters {
        h.write_u64(t);
        h.write_u64(f);
    }
    h.write_u64(io_bytes_per_exec);
    h.write_u64(sm_bytes_per_exec);
    h.write_u64(max_firing_rate);
    h.finish()
}

fn chars_hash(chars: &PartitionCharacteristics) -> u64 {
    set_hash(
        chars.filters.iter().map(|&(t, f)| (t.to_bits(), f)),
        chars.io_bytes_per_exec,
        chars.sm_bytes_per_exec,
        chars.max_firing_rate,
    )
}

/// Version of the estimation *algorithm* (model equations, parameter-search
/// procedure) whose answers an [`EstimateCache`] holds. [`EstimateKey`]
/// captures every numeric input, but not the code that consumes them: bump
/// this whenever `estimate_from_chars`/`select_parameters` logic changes an
/// answer, so persisted caches from older binaries are rejected instead of
/// silently replaying stale estimates. A change that leaves every answer
/// bit-identical does not bump it: skipping parameter ladders that cannot
/// win, reusing the search's sums, splitting the cache into two levels and
/// dropping the fixed search space and saturation switch from the key left
/// it at 1.
pub const ESTIMATOR_ALGORITHM_VERSION: u32 = 1;

/// Hit/miss/size counters of an [`EstimateCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Queries answered from the cache (including queries that waited for an
    /// in-flight computation of the same key).
    pub hits: u64,
    /// Queries that had to compute a fresh entry.
    pub misses: u64,
    /// Number of distinct keys stored.
    pub entries: u64,
}

impl CacheStats {
    /// Total number of queries served.
    pub fn queries(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of queries answered from the cache (0.0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let q = self.queries();
        if q == 0 {
            0.0
        } else {
            self.hits as f64 / q as f64
        }
    }
}

/// One single-flight cell: the answer, once computed.
type Cell = Arc<OnceLock<Option<Estimate>>>;

/// A context's map: per-set hash → every (key, cell) of that hash.
type Cells = HashMap<u64, Vec<(SetKey, Cell)>, BuildHasherDefault<FxHasher>>;

/// The first level of the cache: the cells of every key that shares one
/// (model, device). An estimator holds its context from the
/// moment it attaches the cache.
#[derive(Debug)]
pub(crate) struct CacheContext {
    key: ContextKey,
    cells: RwLock<Cells>,
}

/// The cell of `chars` in `bucket`, if there is one.
fn find<'a>(bucket: &'a [(SetKey, Cell)], chars: &PartitionCharacteristics) -> Option<&'a Cell> {
    bucket
        .iter()
        .find(|(key, _)| key.matches(chars))
        .map(|(_, cell)| cell)
}

/// A shared, thread-safe estimate cache.
///
/// Cloneable handles are obtained by wrapping the cache in an [`Arc`] and
/// passing it to [`Estimator::with_shared_cache`](crate::Estimator::with_shared_cache).
#[derive(Default)]
pub struct EstimateCache {
    contexts: RwLock<Vec<Arc<CacheContext>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    entries: AtomicU64,
}

impl EstimateCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        EstimateCache::default()
    }

    /// Creates an empty cache behind an [`Arc`], ready to share.
    pub fn shared() -> Arc<Self> {
        Arc::new(EstimateCache::new())
    }

    /// The context of every query under `model` and `gpu`, created empty on
    /// first use.
    pub(crate) fn context(&self, model: &PerfModel, gpu: &GpuSpec) -> Arc<CacheContext> {
        self.context_of(ContextKey::new(model, gpu))
    }

    fn context_of(&self, key: ContextKey) -> Arc<CacheContext> {
        let known =
            |contexts: &[Arc<CacheContext>]| contexts.iter().find(|c| c.key == key).map(Arc::clone);
        if let Some(context) = known(&self.contexts.read().expect("estimate cache lock poisoned")) {
            return context;
        }
        let mut contexts = self.contexts.write().expect("estimate cache lock poisoned");
        if let Some(context) = known(&contexts) {
            return context;
        }
        let context = Arc::new(CacheContext {
            key,
            cells: RwLock::new(HashMap::default()),
        });
        contexts.push(context.clone());
        context
    }

    /// Returns the cached estimate for `chars` in `context`, which must come
    /// from this cache, computing it with `compute` if absent. Concurrent
    /// callers with the same fresh key block until the single in-flight
    /// computation finishes; exactly one of them is counted as the miss.
    pub(crate) fn get_or_compute(
        &self,
        context: &CacheContext,
        chars: &PartitionCharacteristics,
        compute: impl FnOnce() -> Option<Estimate>,
    ) -> Option<Estimate> {
        let hash = chars_hash(chars);
        let existing = {
            let cells = context.cells.read().expect("estimate cache lock poisoned");
            cells
                .get(&hash)
                .and_then(|bucket| find(bucket, chars))
                .cloned()
        };
        let (cell, fresh) = match existing {
            Some(cell) => (cell, false),
            None => {
                let mut cells = context.cells.write().expect("estimate cache lock poisoned");
                let bucket = cells.entry(hash).or_insert_with(|| Vec::with_capacity(1));
                match find(bucket, chars) {
                    Some(cell) => (cell.clone(), false),
                    None => {
                        let cell = Cell::default();
                        bucket.push((SetKey::new(chars), cell.clone()));
                        self.entries.fetch_add(1, Ordering::Relaxed);
                        (cell, true)
                    }
                }
            }
        };
        if fresh {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        // The computation itself runs outside the map lock, so slow estimates
        // never serialise unrelated queries.
        *cell.get_or_init(compute)
    }

    /// A snapshot of every completed entry, for persistence. In-flight
    /// computations (cells not yet initialised) are skipped.
    pub fn entries(&self) -> Vec<(EstimateKey, Option<Estimate>)> {
        let contexts = self.contexts.read().expect("estimate cache lock poisoned");
        let mut entries = Vec::new();
        for context in contexts.iter() {
            let cells = context.cells.read().expect("estimate cache lock poisoned");
            for (set, cell) in cells.values().flatten() {
                if let Some(value) = cell.get() {
                    entries.push((context.key.join(set), *value));
                }
            }
        }
        entries
    }

    /// Inserts a completed entry without touching the hit/miss counters, so
    /// a cache warm-started from disk reports every subsequent first query
    /// of a preloaded key as a hit. A key that already exists is left
    /// untouched.
    pub fn preload(&self, key: EstimateKey, estimate: Option<Estimate>) {
        let (context, set) = key.split();
        let context = self.context_of(context);
        let mut cells = context.cells.write().expect("estimate cache lock poisoned");
        let bucket = cells
            .entry(set.hash())
            .or_insert_with(|| Vec::with_capacity(1));
        if bucket.iter().all(|(known, _)| *known != set) {
            let cell = Cell::default();
            cell.set(estimate).expect("fresh cell is uninitialised");
            bucket.push((set, cell));
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }

    /// Number of distinct keys stored.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed) as usize
    }

    /// `true` if no key has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for EstimateCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("EstimateCache")
            .field("entries", &stats.entries)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Estimator;
    use proptest::prelude::*;
    use sgmap_graph::{Filter, NodeSet, StreamGraph};

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
    fn shared_and_unshared_estimates_are_bit_identical() {
        let g = chain(&[1.0, 500.0, 250.0, 1.0]);
        let gpu = GpuSpec::m2090();
        let plain = Estimator::new(&g, gpu.clone()).unwrap();
        let cache = EstimateCache::shared();
        let cached = Estimator::new(&g, gpu)
            .unwrap()
            .with_shared_cache(cache.clone());
        for i in 0..4 {
            let set = NodeSet::singleton(sgmap_graph::FilterId::from_index(i));
            let a = plain.estimate(&set);
            let b = cached.estimate(&set);
            match (a, b) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.params, b.params);
                    assert_eq!(a.t_comp_us.to_bits(), b.t_comp_us.to_bits());
                    assert_eq!(a.t_dt_us.to_bits(), b.t_dt_us.to_bits());
                    assert_eq!(a.t_db_us.to_bits(), b.t_db_us.to_bits());
                    assert_eq!(a.t_exec_us.to_bits(), b.t_exec_us.to_bits());
                    assert_eq!(a.normalized_us.to_bits(), b.normalized_us.to_bits());
                    assert_eq!(a.sm_bytes, b.sm_bytes);
                    assert_eq!(a.io_bytes_per_exec, b.io_bytes_per_exec);
                }
                (a, b) => panic!("cached/uncached disagree: {a:?} vs {b:?}"),
            }
        }
        let all = NodeSet::all(&g);
        assert_eq!(plain.estimate(&all), cached.estimate(&all));
        assert!(cache.stats().misses > 0);
    }

    #[test]
    fn a_second_estimator_hits_what_the_first_computed() {
        let g = chain(&[2.0, 300.0, 2.0]);
        let gpu = GpuSpec::m2090();
        let cache = EstimateCache::shared();
        let all = NodeSet::all(&g);
        let first = Estimator::new(&g, gpu.clone())
            .unwrap()
            .with_shared_cache(cache.clone());
        first.estimate(&all);
        let after_first = cache.stats();
        assert_eq!(after_first.hits, 0);
        // A fresh estimator over the same graph has an empty local cache, so
        // its query reaches the shared cache and hits.
        let second = Estimator::new(&g, gpu)
            .unwrap()
            .with_shared_cache(cache.clone());
        assert_eq!(second.estimate(&all), first.estimate(&all));
        let after_second = cache.stats();
        assert_eq!(after_second.misses, after_first.misses);
        assert_eq!(after_second.hits, 1);
        assert_eq!(after_second.entries, after_first.entries);
    }

    #[test]
    fn preloaded_entries_answer_queries_as_hits_with_zero_misses() {
        let g = chain(&[2.0, 300.0, 2.0]);
        let gpu = GpuSpec::m2090();
        let first_cache = EstimateCache::shared();
        let first = Estimator::new(&g, gpu.clone())
            .unwrap()
            .with_shared_cache(first_cache.clone());
        let all = NodeSet::all(&g);
        let expected = first.estimate(&all);
        let entries = first_cache.entries();
        assert_eq!(entries.len() as u64, first_cache.stats().entries);

        // Transplant the snapshot into a fresh cache: the same query is now
        // answered bit-identically with zero misses.
        let second_cache = EstimateCache::shared();
        for (key, value) in entries {
            second_cache.preload(key, value);
        }
        assert_eq!(second_cache.stats().queries(), 0);
        let second = Estimator::new(&g, gpu)
            .unwrap()
            .with_shared_cache(second_cache.clone());
        assert_eq!(second.estimate(&all), expected);
        let stats = second_cache.stats();
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.hits, 1);
        // Preloading an existing key never clobbers the entry.
        let again = first_cache.entries();
        for (key, value) in again {
            second_cache.preload(key, value);
        }
        assert_eq!(second_cache.stats().misses, 0);
    }

    /// The single-level key the two-level cache replaced: the context and
    /// the set's characteristics in one owned key, built field by field.
    fn reference_key(
        chars: &PartitionCharacteristics,
        model: &PerfModel,
        gpu: &GpuSpec,
    ) -> EstimateKey {
        EstimateKey {
            filters: chars
                .filters
                .iter()
                .map(|&(t, f)| (t.to_bits(), f))
                .collect(),
            io_bytes_per_exec: chars.io_bytes_per_exec,
            sm_bytes_per_exec: chars.sm_bytes_per_exec,
            max_firing_rate: chars.max_firing_rate,
            model: (model.c1.to_bits(), model.c2.to_bits(), model.warp_size),
            device: (gpu.shared_mem_bytes, gpu.max_threads_per_block),
        }
    }

    /// Estimator contexts: the first, one that differs from it in device
    /// and model constants, and one each that differs from it in only the
    /// device limits or only the model constants.
    fn contexts() -> [(PerfModel, GpuSpec); 4] {
        let (m2090, c2070) = (GpuSpec::m2090(), GpuSpec::c2070());
        let model = PerfModel::for_gpu(&m2090);
        let small_smem = GpuSpec {
            shared_mem_bytes: m2090.shared_mem_bytes / 2,
            ..m2090.clone()
        };
        let paper = PerfModel {
            c1: crate::PAPER_C1,
            c2: crate::PAPER_C2,
            ..model
        };
        [
            (model, m2090.clone()),
            (PerfModel::for_gpu(&c2070), c2070),
            (model, small_smem),
            (paper, m2090),
        ]
    }

    /// Characteristics whose keys differ from the first one's in one `t_i`
    /// bit, one `f_i`, the filter order, the filter count or one byte count.
    fn near_keys() -> Vec<PartitionCharacteristics> {
        let base = PartitionCharacteristics {
            filters: vec![(12.5, 4), (3.25, 1), (40.0, 8)],
            io_bytes_per_exec: 4096,
            sm_bytes_per_exec: 1024,
            max_firing_rate: 8,
        };
        let mut t_bit = base.clone();
        t_bit.filters[0].0 = f64::from_bits(t_bit.filters[0].0.to_bits() ^ 1);
        let mut f_i = base.clone();
        f_i.filters[1].1 = 2;
        let mut order = base.clone();
        order.filters.swap(0, 1);
        let mut shorter = base.clone();
        shorter.filters.pop();
        let mut io = base.clone();
        io.io_bytes_per_exec += 1;
        vec![base, t_bit, f_i, order, shorter, io]
    }

    /// A computed answer that names its context and key, so an answer
    /// returned for the wrong key or context shows; one key has no answer.
    fn answer(context: usize, key: usize) -> Option<Estimate> {
        if (context, key) == (1, 2) {
            return None;
        }
        Some(Estimate {
            params: sgmap_gpusim::KernelParams {
                w: 1 + key as u32,
                s: 1,
                f: 16 << context,
            },
            t_comp_us: 1.0,
            t_dt_us: 2.0,
            t_db_us: 0.5,
            t_exec_us: 3.0,
            normalized_us: (100 * context + key) as f64,
            sm_bytes: 64,
            io_bytes_per_exec: 128,
        })
    }

    fn sorted(entries: Vec<(EstimateKey, Option<Estimate>)>) -> Vec<String> {
        let mut rendered: Vec<String> = entries.into_iter().map(|e| format!("{e:?}")).collect();
        rendered.sort();
        rendered
    }

    proptest! {
        /// The two-level cache against the single-level owned-key map it
        /// replaced, on one random query multiset from four contexts: the
        /// same answer to every query, the same counters and the same
        /// entries, also after a round trip through `entries`/`preload`.
        #[test]
        fn two_level_cache_matches_the_owned_key_map(
            queries in prop::collection::vec((0usize..4, 0usize..6), 0..120),
        ) {
            let contexts = contexts();
            let keys = near_keys();
            let cache = EstimateCache::new();
            let handles: Vec<_> = contexts
                .iter()
                .map(|(model, gpu)| cache.context(model, gpu))
                .collect();
            let mut reference: HashMap<EstimateKey, Option<Estimate>> = HashMap::default();
            let mut expected = CacheStats::default();
            for &(c, k) in &queries {
                let got = cache.get_or_compute(&handles[c], &keys[k], || answer(c, k));
                let (model, gpu) = &contexts[c];
                let key = reference_key(&keys[k], model, gpu);
                let want = match reference.get(&key) {
                    Some(&known) => {
                        expected.hits += 1;
                        known
                    }
                    None => {
                        expected.misses += 1;
                        reference.insert(key, answer(c, k));
                        answer(c, k)
                    }
                };
                prop_assert_eq!(got, want, "query ({}, {})", c, k);
            }
            expected.entries = reference.len() as u64;
            prop_assert_eq!(cache.stats(), expected);
            let entries = sorted(cache.entries());
            prop_assert_eq!(&entries, &sorted(reference.into_iter().collect()));

            // A cache preloaded from the snapshot holds the same entries and
            // answers every stored key as a hit, computing nothing.
            let restored = EstimateCache::new();
            for (key, value) in cache.entries() {
                restored.preload(key, value);
            }
            prop_assert_eq!(&sorted(restored.entries()), &entries);
            prop_assert_eq!(restored.stats().queries(), 0);
            let restored_handles: Vec<_> = contexts
                .iter()
                .map(|(model, gpu)| restored.context(model, gpu))
                .collect();
            for &(c, k) in &queries {
                let got = restored.get_or_compute(&restored_handles[c], &keys[k], || {
                    panic!("a preloaded key was computed")
                });
                prop_assert_eq!(got, answer(c, k));
            }
            prop_assert_eq!(restored.stats().misses, 0);
        }
    }

    #[test]
    fn a_set_key_matches_exactly_the_characteristics_it_was_built_from() {
        // Near keys usually hash apart, so the cache compares them only on
        // a hash collision; the comparison must still tell them apart.
        let keys = near_keys();
        for a in &keys {
            let key = SetKey::new(a);
            assert_eq!(key.hash(), chars_hash(a));
            for b in &keys {
                assert_eq!(key.matches(b), SetKey::new(b) == key, "{a:?} vs {b:?}");
                assert_eq!(key.matches(b), std::ptr::eq(a, b));
            }
        }
    }

    #[test]
    fn concurrent_queries_count_one_miss_per_distinct_key_and_never_poison() {
        // All five filters have pairwise-distinct work, so their singleton
        // partitions have distinct characteristics and thus distinct cache
        // keys. (Filters with identical characteristics would — by design —
        // share one key.)
        let g = chain(&[3.0, 40.0, 80.0, 120.0, 7.0]);
        let gpu = GpuSpec::m2090();
        let cache = EstimateCache::shared();
        let threads = 8;
        let rounds = 25;
        std::thread::scope(|s| {
            for t in 0..threads {
                let cache = cache.clone();
                let g = &g;
                let gpu = gpu.clone();
                s.spawn(move || {
                    // Each thread gets its own estimator (local caches are
                    // per-estimator) but shares the one cache; rotating the
                    // start index varies the arrival order across threads.
                    let est = Estimator::new(g, gpu).unwrap().with_shared_cache(cache);
                    for round in 0..rounds {
                        for i in 0..5 {
                            let idx = (i + t + round) % 5;
                            let set = NodeSet::singleton(sgmap_graph::FilterId::from_index(idx));
                            est.estimate(&set);
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        // Every estimator's local cache deduplicates its own repeats, so each
        // of the 8 estimators sends exactly 5 queries to the shared cache.
        assert_eq!(stats.queries(), threads as u64 * 5);
        // Single-flight: each of the 5 distinct keys misses exactly once, no
        // matter how the threads interleaved.
        assert_eq!(stats.misses, 5);
        assert_eq!(stats.hits, threads as u64 * 5 - 5);
        assert_eq!(stats.entries, 5);
        // `stats()` above takes the read lock; reaching this point also
        // proves no lock was poisoned.
        assert!(cache.stats().hit_rate() > 0.8);
    }
}
