//! Deterministic parallel evaluation of partition-search candidates.
//!
//! The proposed partitioner spends nearly all of its time asking the PEE to
//! evaluate merge candidates. Those evaluations are pure — an estimate
//! depends only on the candidate node set — so they can run on scoped worker
//! threads. Determinism is preserved by two rules:
//!
//! 1. Candidates are evaluated in fixed-size *batches* whose size is
//!    independent of the thread count, and the accepted candidate is always
//!    the first one in serial order within the earliest batch containing a
//!    success. The search therefore picks exactly the merge the serial
//!    algorithm would pick, and the set of evaluated candidates (hence every
//!    cache counter downstream) is a function of the batch size alone.
//! 2. Results are written back by candidate index, so neither scheduling nor
//!    thread count can reorder them.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Knobs of the proposed partitioner's candidate search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSearchOptions {
    /// Worker threads evaluating merge candidates. `0` resolves to the
    /// machine's available parallelism (capped at 8); `1` evaluates inline.
    pub threads: usize,
    /// Candidates evaluated per speculative batch. The batch size — not the
    /// thread count — determines which candidates get evaluated, so two runs
    /// with equal batch sizes produce identical cache statistics regardless
    /// of `threads`. `1` reproduces the serial search's early-exit behaviour
    /// exactly.
    pub batch: usize,
}

impl PartitionSearchOptions {
    /// The default speculative batch size. Large enough to keep a few worker
    /// threads busy between merge decisions, small enough that the wasted
    /// evaluations past the accepted candidate stay negligible (and they are
    /// cached for later iterations anyway).
    pub const DEFAULT_BATCH: usize = 32;

    /// Inline evaluation with the default batch size.
    pub fn new() -> Self {
        PartitionSearchOptions {
            threads: 1,
            batch: Self::DEFAULT_BATCH,
        }
    }

    /// The exact serial search: one candidate at a time, evaluated inline,
    /// stopping at the first success — byte-for-byte the historical
    /// behaviour. This is the reference the property tests compare the
    /// batched parallel search against.
    pub fn serial() -> Self {
        PartitionSearchOptions {
            threads: 1,
            batch: 1,
        }
    }

    /// Sets the worker-thread count (`0` = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the speculative batch size (clamped to at least 1).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// The actual number of worker threads to use.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
                .min(8)
        } else {
            self.threads
        }
    }
}

impl Default for PartitionSearchOptions {
    fn default() -> Self {
        PartitionSearchOptions::new()
    }
}

/// Maps `f` over `items` on `threads` scoped worker threads, returning the
/// results in item order. Falls back to an inline loop for a single thread
/// or a single item.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub(crate) fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    // Workers record into the spawning thread's trace collector.
    let trace = sgmap_trace::current();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(items.len()) {
            scope.spawn(|| {
                sgmap_trace::scope(trace.as_ref(), || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = f(&items[i]);
                    results.lock().expect("search results lock poisoned")[i] = Some(r);
                })
            });
        }
    });
    results
        .into_inner()
        .expect("search results lock poisoned")
        .into_iter()
        .map(|r| r.expect("every item is mapped"))
        .collect()
}

/// Draws candidates lazily from `items` in batches of `batch` and returns
/// the first (in item order) accepted candidate together with its result.
/// Once a batch is drawn, every item in it is evaluated — even on one
/// thread — so the evaluated set depends only on the batch size, never on
/// the thread count; but candidates past the accepting batch are neither
/// generated nor evaluated, preserving the serial search's early-exit
/// enumeration cost.
pub(crate) fn first_accepted<T, R, F, I>(
    threads: usize,
    batch: usize,
    items: I,
    eval: F,
) -> Option<(T, R)>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> Option<R> + Sync,
    I: Iterator<Item = T>,
{
    first_accepted_skipping(threads, batch, items, |_| false, eval, |_| {})
}

/// [`first_accepted`] for a caller that already knows some candidates fail.
/// An item for which `known_rejected` holds still takes its place in its
/// batch, so every batch covers the same items as in the plain scan and the
/// accepted candidate is the same, but it is not evaluated. Every evaluated
/// rejection of a drawn batch — speculative ones past the accepted
/// candidate included — is passed to `on_rejected`, in item order, for the
/// caller to remember.
pub(crate) fn first_accepted_skipping<T, R, F, I>(
    threads: usize,
    batch: usize,
    items: I,
    known_rejected: impl Fn(&T) -> bool,
    eval: F,
    mut on_rejected: impl FnMut(&T),
) -> Option<(T, R)>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> Option<R> + Sync,
    I: Iterator<Item = T>,
{
    let batch = batch.max(1);
    let mut items = items.peekable();
    let mut chunk = Vec::with_capacity(batch);
    while items.peek().is_some() {
        chunk.clear();
        chunk.extend(
            items
                .by_ref()
                .take(batch)
                .filter(|item| !known_rejected(item)),
        );
        let results = par_map(threads, &chunk, &eval);
        for (item, result) in chunk.iter().zip(&results) {
            if result.is_none() {
                on_rejected(item);
            }
        }
        if let Some(offset) = results.iter().position(Option::is_some) {
            let r = results
                .into_iter()
                .nth(offset)
                .flatten()
                .expect("position() found an accepted candidate");
            return Some((chunk.swap_remove(offset), r));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_item_order_at_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 4, 16] {
            assert_eq!(par_map(threads, &items, |&x| x * x), expected, "{threads}");
        }
    }

    #[test]
    fn first_accepted_matches_serial_scan_for_every_batch_and_thread_count() {
        let items: Vec<u32> = vec![7, 3, 9, 4, 1, 4, 8];
        let serial = items.iter().find(|&&x| x % 2 == 0).map(|&x| (x, x * 10));
        for batch in [1, 2, 3, 64] {
            for threads in [1, 3] {
                let got = first_accepted(threads, batch, items.iter().copied(), |&x| {
                    (x % 2 == 0).then_some(x * 10)
                });
                assert_eq!(got, serial, "batch={batch} threads={threads}");
            }
        }
        assert_eq!(
            first_accepted(2, 2, items.iter().copied(), |&x| (x > 100).then_some(x)),
            None
        );
    }

    #[test]
    fn first_accepted_stops_drawing_candidates_after_the_accepting_batch() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let generated = AtomicUsize::new(0);
        let candidates = (0..1_000_000usize).inspect(|_| {
            generated.fetch_add(1, Ordering::Relaxed);
        });
        let got = first_accepted(1, 4, candidates, |&x| (x == 2).then_some(x));
        assert_eq!(got, Some((2, 2)));
        // One batch of 4 (plus the peeked element) — not the whole range.
        assert!(generated.load(Ordering::Relaxed) <= 8);
    }

    #[test]
    fn skipped_items_keep_their_batch_slot_and_rejections_are_reported() {
        // Batches of 3 over 0..9: [0 1 2] [3 4 5] [6 7 8]. Even numbers
        // above 4 are accepted; 1 and 2 are known rejections.
        let mut rejected = Vec::new();
        let got = first_accepted_skipping(
            1,
            3,
            0..9u32,
            |&x| x == 1 || x == 2,
            |&x| (x > 4 && x % 2 == 0).then_some(x),
            |&x| rejected.push(x),
        );
        assert_eq!(got, Some((6, 6)));
        // 1 and 2 are never evaluated; the accepting batch [6 7 8] reports
        // its speculative rejection 7 but never the accepted 6 or 8.
        assert_eq!(rejected, vec![0, 3, 4, 5, 7]);
    }

    #[test]
    fn options_resolve_and_clamp() {
        assert_eq!(PartitionSearchOptions::serial().resolved_threads(), 1);
        assert!(
            PartitionSearchOptions::new()
                .with_threads(0)
                .resolved_threads()
                >= 1
        );
        assert_eq!(PartitionSearchOptions::new().with_batch(0).batch, 1);
        assert_eq!(
            PartitionSearchOptions::default().batch,
            PartitionSearchOptions::DEFAULT_BATCH
        );
    }
}
