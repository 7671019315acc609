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
//! The cache is `RwLock`-guarded and uses per-key single-flight entries: when
//! several threads race on the same fresh key, one computes while the others
//! block on the entry, so each unique key is computed exactly once. A useful
//! consequence is that the hit/miss totals are deterministic for a fixed
//! query multiset — misses equal the number of distinct keys regardless of
//! thread interleaving — which lets sweep reports include cache statistics
//! while staying byte-identical across thread counts.
//!
//! Keys are hashed with [`FxHasher`], a seedless multiply-rotate hasher that
//! costs a fraction of the standard library's SipHash on a key of a few
//! dozen words; every key is built by the estimator from characteristics,
//! never read from outside the program, so none is crafted to collide.
//! Determinism does not rest on the hasher: an answer is a function of its
//! key alone, the counters follow from the query multiset as above, and
//! the one reader of the map's iteration order, [`EstimateCache::entries`],
//! feeds a persisted cache file whose writer sorts the entries.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use sgmap_gpusim::GpuSpec;
use sgmap_graph::FxHasher;

use crate::chars::PartitionCharacteristics;
use crate::estimator::Estimate;
use crate::model::PerfModel;
use crate::params::ParamSearchSpace;

/// Everything an estimate depends on, in hashable form.
///
/// `f64` inputs are keyed by their IEEE-754 bit patterns, so two keys are
/// equal exactly when the estimation pipeline would be handed bit-identical
/// inputs — the cached answer is then bit-identical to a fresh computation.
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
    /// Performance-model constants `(c1 bits, c2 bits, warp size,
    /// issue-throughput correction)`.
    pub model: (u64, u64, u32, bool),
    /// Device limits that constrain the parameter search: `(shared-memory
    /// bytes, max threads per block)`.
    pub device: (u32, u32),
    /// The enumerated parameter search space: `(S candidates, F candidates,
    /// max W)`.
    pub space: (Vec<u32>, Vec<u32>, u32),
}

impl EstimateKey {
    /// Builds the key for estimating a partition with the given
    /// characteristics under the given model, device and search space.
    pub fn new(
        chars: &PartitionCharacteristics,
        model: &PerfModel,
        gpu: &GpuSpec,
        space: &ParamSearchSpace,
    ) -> Self {
        EstimateKey {
            filters: chars
                .filters
                .iter()
                .map(|&(t, f)| (t.to_bits(), f))
                .collect(),
            io_bytes_per_exec: chars.io_bytes_per_exec,
            sm_bytes_per_exec: chars.sm_bytes_per_exec,
            max_firing_rate: chars.max_firing_rate,
            model: (
                model.c1.to_bits(),
                model.c2.to_bits(),
                model.warp_size,
                model.issue_throughput_correction,
            ),
            device: (gpu.shared_mem_bytes, gpu.max_threads_per_block),
            space: (
                space.s_candidates.clone(),
                space.f_candidates.clone(),
                space.max_w,
            ),
        }
    }
}

/// Version of the estimation *algorithm* (model equations, parameter-search
/// procedure) whose answers an [`EstimateCache`] holds. [`EstimateKey`]
/// captures every numeric input, but not the code that consumes them: bump
/// this whenever `estimate_from_chars`/`select_parameters` logic changes an
/// answer, so persisted caches from older binaries are rejected instead of
/// silently replaying stale estimates. A speed-up that leaves every answer
/// bit-identical does not bump it: skipping parameter ladders that cannot
/// win and reusing the search's sums left it at 1.
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

/// The cache's map: one single-flight cell per key.
type Cells = HashMap<EstimateKey, Arc<OnceLock<Option<Estimate>>>, BuildHasherDefault<FxHasher>>;

/// A shared, thread-safe estimate cache.
///
/// Cloneable handles are obtained by wrapping the cache in an [`Arc`] and
/// passing it to [`Estimator::with_shared_cache`](crate::Estimator::with_shared_cache).
#[derive(Default)]
pub struct EstimateCache {
    map: RwLock<Cells>,
    hits: AtomicU64,
    misses: AtomicU64,
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

    /// Returns the cached estimate for `key`, computing it with `compute` if
    /// absent. Concurrent callers with the same fresh key block until the
    /// single in-flight computation finishes; exactly one of them is counted
    /// as the miss.
    pub fn get_or_compute(
        &self,
        key: EstimateKey,
        compute: impl FnOnce() -> Option<Estimate>,
    ) -> Option<Estimate> {
        let existing = {
            let map = self.map.read().expect("estimate cache lock poisoned");
            map.get(&key).cloned()
        };
        let (cell, fresh) = match existing {
            Some(cell) => (cell, false),
            None => {
                let mut map = self.map.write().expect("estimate cache lock poisoned");
                match map.entry(key) {
                    Entry::Occupied(e) => (e.get().clone(), false),
                    Entry::Vacant(v) => {
                        let cell = Arc::new(OnceLock::new());
                        v.insert(cell.clone());
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
        self.map
            .read()
            .expect("estimate cache lock poisoned")
            .iter()
            .filter_map(|(key, cell)| cell.get().map(|value| (key.clone(), *value)))
            .collect()
    }

    /// Inserts a completed entry without touching the hit/miss counters, so
    /// a cache warm-started from disk reports every subsequent first query
    /// of a preloaded key as a hit. A key that already exists is left
    /// untouched.
    pub fn preload(&self, key: EstimateKey, estimate: Option<Estimate>) {
        let mut map = self.map.write().expect("estimate cache lock poisoned");
        map.entry(key).or_insert_with(|| {
            let cell = Arc::new(OnceLock::new());
            cell.set(estimate).expect("fresh cell is uninitialised");
            cell
        });
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.read().expect("estimate cache lock poisoned").len() as u64,
        }
    }

    /// Number of distinct keys stored.
    pub fn len(&self) -> usize {
        self.map.read().expect("estimate cache lock poisoned").len()
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
